"""Every public name in ``src/repro`` has a caller or a stated reason.

Static: parses the sources with ``ast`` and imports nothing from the
package.  A public name is a top-level function or class whose name does
not start with ``_``, or such a method of a public class.  It must be
*used* somewhere in ``src/``, ``examples/`` or ``benchmarks/`` outside
its own definition, or be listed in :data:`ALLOWED` with the reason it
stays.  A use is an ``ast.Name``, an ``ast.Attribute`` or an import
alias with the same bare name (so a use inside an f-string counts, and
a method counts as used wherever an attribute of its name is read).
Strings do not count: a name that only ``__all__`` or a package's lazy
export table spells is not used.

A name that only its own unit tests call is dead weight in every
process, and a deletion leaves its callees behind unless something
checks; the table is the one place a name without a caller explains
itself.  An entry whose name is gone, or has since gained a caller, is
stale and fails too.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
USERS = ("src", "examples", "benchmarks")

_MDS = ("repro.mds: whether the in-process directory stays is "
        "ROADMAP item 20's to decide")

#: Qualified name -> why it stays without a caller.  Four kinds: a result
#: or feature the paper names, a test seam other tests drive, a
#: ``repro.mds`` name, and a method the standard library calls by name.
ALLOWED: Dict[str, str] = {
    # A result or feature the paper names.
    "repro.analysis.summary.SummaryClaims.all_hold":
        "paper: the verdict that every Section 6.2 claim holds "
        "(tests/integration/test_prediction_pipeline.py)",
    "repro.analysis.sweep.sweep_claims":
        "paper: the Section 6.2 claims across seeds (EXPERIMENTS.md "
        "'Robustness'; tests/integration/test_seed_robustness.py)",
    "repro.core.accuracy.RiskAdjustedRanking":
        "paper: replica ranking discounted by backtested error (README, "
        "docs/predictors.md; tests/integration/test_replica_selection.py)",
    "repro.core.accuracy.RiskAdjustedRanking.select":
        "paper: the broker's choice of one replica (Section 1) over the "
        "risk-adjusted ranking, as ReplicaBroker.select",
    "repro.core.predictors.hybrid.HybridPredictor":
        "paper: the NWS-probe hybrid of Section 7 (README, "
        "docs/predictors.md; tests/integration/test_nws_vs_gridftp.py)",
    "repro.core.selection.RankedReplica.estimated_time":
        "paper: a replica's predicted transfer time, the broker's answer "
        "(Section 1; tests/integration/test_replica_selection.py)",
    "repro.core.selection.ReplicaBroker.select":
        "paper: the broker's choice of one replica (Section 1; "
        "tests/integration/test_replica_selection.py)",
    "repro.gridftp.client.GridFTPClient.partial_get":
        "paper: GridFTP partial file transfer, a protocol feature the "
        "paper lists (tests/integration/test_failure_injection.py)",
    "repro.nws.forecaster.DynamicForecaster":
        "paper: NWS dynamic forecaster selection, Section 7 "
        "(tests/integration/test_nws_vs_gridftp.py)",
    "repro.nws.forecaster.standard_battery":
        "paper: the NWS forecaster battery DynamicForecaster selects from "
        "(tests/integration/test_nws_vs_gridftp.py)",
    # A test seam other tests drive.
    "repro.data.frame.TransferFrame.equals":
        "seam: the frame-identical check of the ingest unit and property "
        "tests",
    "repro.faults.FaultInjector.inject":
        "seam: arms a fault site for the chaos, store and tail tests",
    "repro.faults.FaultInjector.total_fired":
        "seam: faults fired, asserted by the chaos and store tests",
    "repro.faults.active":
        "seam: the installed injector, asserted by the faults tests",
    "repro.faults.injected":
        "seam: installs an injector for one with-block in the fault tests",
    "repro.faults.uninstall":
        "seam: the chaos suites' teardown",
    "repro.fleet.supervisor.WorkerSupervisor.stall":
        "seam: SIGSTOPs a worker for the fleet chaos tests",
    "repro.obs.quality.AccuracyTracker.pending_count":
        "seam: answers awaiting an observation, asserted by the quality "
        "tests",
    "repro.obs.quality.AccuracyTracker.score":
        "seam: the one-observation staging that PredictionService.observe "
        "inlines; the quality tests drive the pairing rules through it",
    "repro.service.service.PredictionService.ingest_records":
        "seam: seeds a service from records in process, in most service, "
        "store and parity tests",
    "repro.storage.disk.Disk.active":
        "seam: a disk's active-transfer count, asserted by the concurrency "
        "and server tests",
    # A repro.mds name.
    "repro.mds.broker.MdsReplicaBroker.select": _MDS,
    "repro.mds.giis.GIIS.breaker_status": _MDS,
    "repro.mds.giis.GIIS.degraded_sources": _MDS,
    "repro.mds.giis.GIIS.renew": _MDS,
    "repro.mds.gris.GRIS.invalidate": _MDS,
    "repro.mds.gris.GRIS.providers": _MDS,
    "repro.mds.gris.GRIS.remove_provider": _MDS,
    "repro.mds.ldif.Entry.attribute_names": _MDS,
    "repro.mds.provider.ProviderReport.total_seconds": _MDS,
    "repro.mds.registration.SoftStateRegistry.deregister": _MDS,
}


def _python_files(roots: Iterable[Path]) -> List[Path]:
    return sorted(path for root in roots if root.is_dir()
                  for path in root.rglob("*.py"))


def _module_name(path: Path, package_root: Path) -> str:
    parts = list(path.relative_to(package_root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def definitions(package_root: Path) -> Dict[str, Tuple[Path, int, int]]:
    """Qualified public name -> (file, first line, last line).

    The first line is the first decorator's, so a use in a decorator's
    arguments is inside the definition."""
    found: Dict[str, Tuple[Path, int, int]] = {}

    def public(nodes, kinds):
        return [node for node in nodes
                if isinstance(node, kinds) and not node.name.startswith("_")]

    def span(path, node):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return path, first, node.end_lineno

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in _python_files([package_root]):
        module = _module_name(path, package_root)
        for node in public(ast.parse(path.read_text()).body,
                           (*functions, ast.ClassDef)):
            found[f"{module}.{node.name}"] = span(path, node)
            if isinstance(node, ast.ClassDef):
                for member in public(node.body, functions):
                    found[f"{module}.{node.name}.{member.name}"] = span(
                        path, member)
    return found


def uses(roots: Iterable[Path]) -> Dict[str, List[Tuple[Path, int]]]:
    """Bare name -> every (file, line) that reads it."""
    found: Dict[str, List[Tuple[Path, int]]] = {}
    for path in _python_files(roots):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append((path, node.lineno))
    return found


def unreferenced(package_root: Path, roots: Iterable[Path]) -> Set[str]:
    """The public names of ``package_root`` that nothing under ``roots``
    uses outside the name's own definition."""
    used = uses(roots)
    dead = set()
    for qualified, (path, first, last) in definitions(package_root).items():
        bare = qualified.rsplit(".", 1)[-1]
        if not any(where != path or not first <= line <= last
                   for where, line in used.get(bare, ())):
            dead.add(qualified)
    return dead


def audit(package_root: Path, roots: Iterable[Path],
          allowed: Mapping[str, str]) -> Tuple[List[str], List[str]]:
    """``(unexplained, stale)``: names with no use and no entry, and
    entries whose name is gone or now has a use."""
    dead = unreferenced(package_root, roots)
    return sorted(dead - set(allowed)), sorted(set(allowed) - dead)


def test_every_public_name_has_a_caller_or_a_reason():
    unexplained, stale = audit(REPO / "src" / "repro",
                               [REPO / root for root in USERS], ALLOWED)
    assert unexplained == [], "no caller in src/, examples/ or benchmarks/"
    assert stale == [], "ALLOWED entry whose name is gone or has a caller"


def test_every_allowed_entry_states_its_reason():
    assert [name for name, reason in ALLOWED.items()
            if not reason.strip()] == []


# ----------------------------------------------------------------------
# the scanner itself, on a planted package
# ----------------------------------------------------------------------
_PLANTED = {
    "src/pkg/__init__.py": "",
    "src/pkg/mod.py": """
        __all__ = ["dead", "Box"]  # strings are not uses


        def dead():
            return dead()  # nor is its own body


        def shown():
            return 1


        def imported():
            return 2


        class Box:
            def orphan(self):
                return 0

            def called(self):
                return f"{shown()}"

            def _private(self):
                return 0


        def _helper():
            return Box().called()
        """,
    "examples/use.py": """
        from pkg.mod import imported
        """,
}


def _plant(root: Path) -> Tuple[Path, List[Path]]:
    for name, text in _PLANTED.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root / "src" / "pkg", [root / "src", root / "examples"]


def test_the_scanner_reports_an_unused_function_and_method(tmp_path):
    package, roots = _plant(tmp_path)
    assert unreferenced(package, roots) == {"pkg.mod.dead",
                                            "pkg.mod.Box.orphan"}


def test_an_fstring_an_import_and_a_method_call_are_uses(tmp_path):
    package, roots = _plant(tmp_path)
    dead = unreferenced(package, roots)
    for name in ("shown", "imported", "Box.called", "Box"):
        assert f"pkg.mod.{name}" in definitions(package)
        assert f"pkg.mod.{name}" not in dead


def test_a_stale_entry_is_reported(tmp_path):
    package, roots = _plant(tmp_path)
    allowed = {"pkg.mod.dead": "planted", "pkg.mod.gone": "deleted",
               "pkg.mod.imported": "has a caller"}
    assert audit(package, roots, allowed) == (
        ["pkg.mod.Box.orphan"], ["pkg.mod.gone", "pkg.mod.imported"])
