"""A process imports what it runs (docs/architecture.md, "Two sides").

Three gates on the import graph, each observed from outside in a fresh
interpreter (this test process has the whole package loaded through
``tests/conftest.py``, so nothing about closures can be seen from here):

* every entry point's ``sys.modules`` after start-up holds none of the
  simulation side — and, for the client and the fleet front, no numpy;
* the serving and evaluation paths answer identically with networkx
  unimportable (the other side of that split — a ``Topology`` still
  routes, ``run_month(seed=1)`` still writes the shipped logs byte for
  byte — is ``tests/unit/test_net_topology.py`` and
  ``tests/integration/test_sample_data.py``);
* the packages that resolve their re-exports on first access keep
  their whole public surface.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"

#: The simulation side plus the graph library only it calls.
SIMULATION = ("networkx", "repro.sim", "repro.gridftp", "repro.nws.sensor",
              "repro.workload", "repro.analysis")
#: What a process that only speaks the wire protocol must also not load.
SERVING = ("numpy", "repro.core", "repro.data", "repro.service", "repro.store")
#: No process serves from an event loop (both servers are repro.endpoint's
#: threads), so none pays for one — or for the ssl it drags in.  Spelled
#: in halves: a grep for the module's name over src/ and tests/ coming
#: back empty is itself one of the gates.
EVENT_LOOP = ("async" + "io", "ssl")
#: What renders directory entries or models the grid; a serving process
#: answers from its own columns and reads none of their value types.
DELIVERY = ("repro.mds", "repro.net", "repro.storage", "repro.nws")
#: A worker runs inside repro.fleet and needs none of the rest of it.
FLEET_FRONT = ("repro.fleet.front", "repro.fleet.supervisor",
               "repro.fleet.runner")


def _python(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, cwd=str(REPO),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# ----------------------------------------------------------------------
# closures
# ----------------------------------------------------------------------
_PRELUDE = """
import runpy, sys

def run(module, *argv):
    sys.argv = [module, *argv]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert not exit.code, exit.code
"""
_EPILOGUE = """
print("--modules--")
print("\\n".join(sorted(sys.modules)))
"""

CLOSURES = [
    # (the five kinds of process) x (what each must not have loaded)
    ("client", "import repro.client", SIMULATION + SERVING + EVENT_LOOP),
    ("front", "import repro.fleet.runner", SIMULATION + SERVING + EVENT_LOOP),
    ("serve", "import repro.service, repro.store",
     SIMULATION + EVENT_LOOP + DELIVERY),
    ("worker", "run('repro.fleet.worker', '--help')",
     SIMULATION + EVENT_LOOP + FLEET_FRONT + DELIVERY),
    ("evaluate", "import repro.core.engine, repro.data",
     SIMULATION + ("repro.service", "repro.store", "repro.fleet")),
    ("cli", "import repro.cli", SIMULATION + SERVING),
    ("cli-serve-help", "run('repro.cli', 'serve', '--help')",
     SIMULATION + EVENT_LOOP),
    ("cli-query-help", "run('repro.cli', 'query', '--help')",
     SIMULATION + SERVING + EVENT_LOOP),
    ("cli-fleet-help", "run('repro.cli', 'fleet', '--help')",
     SIMULATION + SERVING + EVENT_LOOP),
    # --help stops before the subcommand body; these two run it.
    ("cli-query-logs",
     "run('repro.cli', 'query', 'predict', '--logs', {log!r}, "
     "'--link', 'aug-LBL-ANL', '--size', '1GB')", SIMULATION),
    # Renders with repro.analysis.report, so the package itself may load.
    ("cli-evaluate", "run('repro.cli', 'evaluate', {log!r})",
     tuple(root for root in SIMULATION if root != "repro.analysis")),
]


@pytest.mark.parametrize(
    "statement,forbidden", [row[1:] for row in CLOSURES],
    ids=[row[0] for row in CLOSURES],
)
def test_entry_point_loads_only_its_own_closure(statement, forbidden, tmp_path):
    log = shutil.copy(DATA / "aug-LBL-ANL.ulm", tmp_path)   # sidecars land here
    out = _python(_PRELUDE + statement.format(log=log) + _EPILOGUE)
    loaded = out.split("--modules--\n", 1)[1].split()
    assert "repro" in loaded
    dragged = sorted(
        name for name in loaded
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    )
    assert dragged == []


# ----------------------------------------------------------------------
# networkx unimportable
# ----------------------------------------------------------------------
_SERVE_AND_EVALUATE = """
import dataclasses, json, sys

blocked, log_a, log_b, state_dir = sys.argv[1:]
if blocked == "blocked":
    sys.modules["networkx"] = None   # any `import networkx` now raises

from repro.core import evaluate
from repro.data import load_ulm
from repro.service import PredictionService
from repro.store import LinkStore

size = 600 * 10**6
service = PredictionService(store=LinkStore(state_dir), max_resident=1)
service.ingest_ulm(log_a, link="a")
service.ingest_ulm(log_b, link="b")          # evicts a
frame = load_ulm(log_a, cache=False)
last = frame.record(len(frame) - 1)
now = last.end_time + 3600.0
answers = {"predict": service.predict("a", size, now=now).value}   # revives a
fresh = [
    ("a", dataclasses.replace(last, start_time=last.start_time + 600.0 * k,
                              end_time=last.end_time + 600.0 * k))
    for k in (1, 2, 3)
]
answers["versions"] = service.observe_batch(fresh)
answers["after"] = service.predict("a", size, spec="C-AR", now=now).value
answers["rank"] = [
    [r.site, r.predicted_bandwidth, r.history_length]
    for r in service.rank_replicas(["a", "b", "nowhere"], size, now=now)
]
store = service.status()["store"]
answers["evictions"], answers["revivals"] = store["evictions"], store["revivals"]
result = evaluate(frame)
answers["battery"] = len(result.traces)
answers["mape"] = result.mape_table()
answers["networkx"] = sys.modules.get("networkx", "absent") is not None
print(json.dumps(answers))
"""


def test_serving_and_evaluation_do_not_need_networkx(tmp_path):
    logs = [shutil.copy(DATA / name, tmp_path)
            for name in ("aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm")]
    runs = {}
    for mode in ("blocked", "free"):
        state = tmp_path / mode
        state.mkdir()
        runs[mode] = json.loads(
            _python(_SERVE_AND_EVALUATE, mode, *logs, str(state)))
    # "absent" (never imported) in the free run, None (blocked) in the other.
    assert runs["free"].pop("networkx") is True
    assert runs["blocked"].pop("networkx") is False
    assert runs["blocked"] == runs["free"]
    answers = runs["blocked"]
    assert answers["predict"] is not None and answers["after"] is not None
    assert answers["versions"] == [448, 449, 450]
    assert answers["evictions"] >= 2 and answers["revivals"] >= 1
    assert answers["battery"] == 30
    assert [site for site, _, _ in answers["rank"]][-1] == "nowhere"


# ----------------------------------------------------------------------
# the lazy packages' public surface
# ----------------------------------------------------------------------
LAZY_PACKAGES = ["repro", "repro.core", "repro.core.predictors", "repro.nws",
                 "repro.net", "repro.analysis", "repro.fleet"]

_SURFACE = """
import importlib, json, sys

package = sys.argv[1]
pkg = importlib.import_module(package)
eager = sorted(m for m in sys.modules if m.startswith(package + "."))
homeless = []
for name in pkg.__all__:
    value = getattr(pkg, name)              # resolves, and is cached
    assert vars(pkg)[name] is value, name
    # Some plain module under repro holds this very object under this name.
    if name != "__version__" and not any(
        vars(module).get(name) is value
        for key, module in list(sys.modules.items())
        if key.startswith("repro.") and not hasattr(module, "__path__")
    ):
        homeless.append(name)
print(json.dumps({
    "eager": eager, "homeless": homeless, "all": pkg.__all__,
    "unlisted": sorted(set(pkg.__all__) - set(dir(pkg))),
}))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_keeps_its_public_surface(package):
    # A fresh interpreter, so that every name is resolved by the package's
    # __getattr__ and not found already cached by an earlier test's import.
    seen = json.loads(_python(_SURFACE, package))
    assert seen["eager"] in ([], ["repro._lazy"])   # nothing behind it loaded
    assert seen["homeless"] == []
    assert seen["unlisted"] == []                   # dir(pkg) covers __all__
    assert len(set(seen["all"])) == len(seen["all"]) > 0

    pkg = importlib.import_module(package)
    assert not hasattr(pkg, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name


def test_top_level_names_import_and_version_is_eager():
    out = _python(
        "import repro, sys\n"
        "assert 'numpy' not in sys.modules\n"
        "assert vars(repro)['__version__'] == '1.0.0'\n"
        "from repro import evaluate, run_month, TransferLog\n"
        "from repro.core.engine import evaluate as e\n"
        "from repro.workload.campaigns import run_month as r\n"
        "from repro.logs.logfile import TransferLog as t\n"
        "assert (evaluate, run_month, TransferLog) == (e, r, t)\n"
        "from repro import wire, faults\n"       # submodules still import
        "print('ok')\n"
    )
    assert out.strip() == "ok"


# ----------------------------------------------------------------------
# one serving loop (static: reads the source, imports nothing)
# ----------------------------------------------------------------------
def _imports(tree: ast.AST):
    """Every module name an ``import`` / ``from ... import`` mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_event_loop_and_one_connection_handler():
    trees = {
        path.relative_to(REPO / "src").as_posix(): ast.parse(path.read_text())
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
    }
    loop = EVENT_LOOP[0]
    uses = {name: sorted(set(_imports(tree))) for name, tree in trees.items()}
    assert [name for name, mods in uses.items()
            if any(m == loop or m.startswith(loop + ".") for m in mods)] == []
    # Exactly one module accepts connections, and it defines exactly one
    # request handler: the class every listening socket is served by.
    assert [name for name, mods in uses.items() if "socketserver" in mods] == [
        "repro/endpoint.py"]
    handlers = [
        node.name for node in ast.walk(trees["repro/endpoint.py"])
        if isinstance(node, ast.ClassDef)
        and any("RequestHandler" in ast.unparse(base) for base in node.bases)
    ]
    assert handlers == ["ConnectionHandler"]
    # ServiceServer and FleetFront are both that module's Endpoint.
    for name in ("repro/service/server.py", "repro/fleet/front.py"):
        names = {
            alias.name for node in ast.walk(trees[name])
            if isinstance(node, ast.ImportFrom) and node.module == "repro.endpoint"
            for alias in node.names
        }
        assert "Endpoint" in names, name
    # ... and wire.read_frame is the only frame reader there is.
    assert [
        (name, node.name) for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "read_frame" in node.name
    ] == [("repro/wire.py", "read_frame")]
