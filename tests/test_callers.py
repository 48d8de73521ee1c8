"""Every public name in ``src/repro`` has a caller, and every defaulted
parameter a setter, or a stated reason.

Static: parses the sources with ``ast`` and imports nothing from the
package.  A public name is a top-level function or class whose name does
not start with ``_``, or such a method of a public class.  It must be
*used* somewhere in ``src/``, ``examples/`` or ``benchmarks/`` outside
its own definition, or be listed in :data:`ALLOWED` with the reason it
stays.  A use of a function or class is an ``ast.Name``, an
``ast.Attribute`` or an import alias with the same bare name (so a use
inside an f-string counts).  A method is reached only through an
attribute (or an import), so only those count for it: a method counts
as used wherever an attribute of its name is read, and a local variable
or a function that shares its name does not use it.  A ``self.<name>``
or ``cls.<name>`` read inside a class reaches only that class's family
(its ancestors, its descendants and itself, by bare name), so an
unrelated class's method or attribute of the same name does not use
it.  Strings do not
count: a name that only ``__all__`` or a package's lazy export table
spells is not used.

A name that only its own unit tests call is dead weight in every
process, and a deletion leaves its callees behind unless something
checks; the table is the one place a name without a caller explains
itself.  An entry whose name is gone, or has since gained a caller, is
stale and fails too.

The parameter pass asks the same of defaults.  Every parameter with a
default, of any function or method in ``src/repro`` (nested ones too),
must be passed by some call in ``src/``, ``examples/`` or
``benchmarks/``, or be listed in :data:`ALLOWED_PARAMETERS`; a default
no call there overrides is a constant with a knob on it, and every knob
doubles what tests and benchmarks must cover.  A call in ``tests/``
does not count: a knob only a test turns is one value in every process
that runs, so it is a constant, or a seam whose entry names the test
that needs another value and why.  A call is matched by the bare
name it spells (a class's name for its ``__init__``, or the name of a
subclass without an ``__init__`` of its own), and it sets a parameter
by keyword, by position (``self`` and ``cls`` skipped), by ``*args``
for a positional one, or by a ``**mapping`` it builds.  A ``**kwargs``
the caller only passes on sets what the callers of *that* function
pass.  ``super().__init__(...)`` and ``Base.__init__(self, ...)`` call
the enclosing class's bases.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, List, Mapping, NamedTuple,
                    Optional, Set, Tuple)

import pytest

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
    "repro.analysis.sweep.SweepResult.aggregate":
        "paper: the Section 6.2 headline metrics' mean and spread across "
        "seeds (EXPERIMENTS.md 'Robustness'; "
        "tests/integration/test_seed_robustness.py)",
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
    "repro.fleet.supervisor.WorkerSupervisor.resume":
        "seam: SIGCONTs the worker a fleet chaos test stalled",
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
    "repro.mds.schema.ObjectClass.attribute": _MDS,
    # A method the standard library calls by name.
    "repro.endpoint.ConnectionHandler.handle":
        "stdlib: socketserver.BaseRequestHandler calls handle() for each "
        "connection",
}

_OBSERVE = ("wire: an optional field of the observe request, which a "
            "monitor that knows it sends (tests/integration/"
            "test_wire_protocol.py round-trips each)")
_RUNNER = ("seam: tests/integration/test_fleet_chaos.py kills and stalls "
           "workers under 0.1-0.5 s timings; at the default timings each "
           "of its recover cycles waits seconds longer")

#: ``module.qualname(param)`` -> why a default no call in ``src/``,
#: ``examples/`` or ``benchmarks/`` overrides stays a parameter rather
#: than a constant.  Five kinds: a feature or result the paper names, an
#: injected clock or sleep, fault arming, a wire-protocol field, and a
#: test seam whose reason names the test.
ALLOWED_PARAMETERS: Dict[str, str] = {
    # A feature or result the paper names.
    "repro.analysis.errors.compute_class_errors(classification)":
        "paper: Section 4.3's edges 'apply to the set of hosts for our "
        "testbed only'; test_prediction_pipeline.py::TestClassEdges "
        "compares other partitions, which no running system builds",
    "repro.analysis.errors.compute_class_errors(training)":
        "paper: Section 6.1's 15-value prefix is not load-bearing; "
        "test_prediction_pipeline.py runs 1 and 100 to show it",
    "repro.analysis.sweep.sweep_claims(seeds)":
        "paper: the Section 6.2 claims across seeds (EXPERIMENTS.md "
        "'Robustness'; tests/integration/test_seed_robustness.py)",
    "repro.analysis.sweep.sweep_claims(start_epoch)":
        "paper: the Section 6.2 claims on December as well as August "
        "(tests/integration/test_seed_robustness.py)",
    "repro.analysis.sweep.sweep_claims(days)":
        "seam: tests/unit/test_analysis_sweep.py sweeps 7-day campaigns; "
        "the 14-day default doubles that file's tier-1 time",
    "repro.core.accuracy.RiskAdjustedRanking.__init__(risk_aversion)":
        "paper: the broker's certainty discount; "
        "test_replica_selection.py's risk-adjusted policy runs at 0.5, and "
        "test_core_accuracy.py pins 0 (the plain broker) and the formula",
    "repro.gridftp.client.GridFTPClient.partial_get(buffer)":
        "paper: the TCP buffer, a GridFTP option each log record carries "
        "(Section 3)",
    "repro.gridftp.client.GridFTPClient.partial_get(streams)":
        "paper: parallel streams, a GridFTP option each log record carries "
        "(Section 3)",
    "repro.gridftp.client.GridFTPClient.put(buffer)":
        "paper: the TCP buffer, a GridFTP option each log record carries "
        "(Section 3)",
    "repro.gridftp.client.GridFTPClient.put(streams)":
        "paper: parallel streams, a GridFTP option each log record carries "
        "(Section 3)",
    "repro.net.tcp.TcpModel.bandwidth(streams)":
        "paper: parallel streams, the GridFTP option of Section 3; "
        "test_net_tcp.py and test_prop_tcp.py compare stream counts",
    # An injected clock or sleep.
    "repro.obs.tracing.Span.__init__(clock)":
        "seam: an injected clock (tests/unit/test_obs_tracing.py)",
    "repro.resilience.breaker.CircuitBreaker.__init__(clock)":
        "seam: an injected clock (tests/unit/test_resilience.py)",
    "repro.resilience.deadline.Deadline.__init__(clock)":
        "seam: an injected clock (the deadline tests of the server, "
        "residency and batch suites)",
    "repro.resilience.deadline.Deadline.after(clock)":
        "seam: an injected clock (tests/unit/test_resilience.py)",
    "repro.service.service.PredictionService.__init__(clock)":
        "seam: an injected clock (the service, store and fleet suites)",
    "repro.faults.FaultInjector.__init__(sleep)":
        "seam: an injected sleep (tests/unit/test_faults.py)",
    "repro.fleet.supervisor.WorkerSupervisor._wait_ready(sleep)":
        "seam: an injected sleep (tests/unit/test_fleet_supervisor.py)",
    # Fault arming: only the chaos, store and tail tests arm faults.
    "repro.faults.FaultInjector.__init__(seed)":
        "seam: fault arming, the chaos suites' seeded injector",
    "repro.faults.FaultInjector.inject(after)": "seam: fault arming",
    "repro.faults.FaultInjector.inject(corrupt)": "seam: fault arming",
    "repro.faults.FaultInjector.inject(error)": "seam: fault arming",
    "repro.faults.FaultInjector.inject(latency)": "seam: fault arming",
    "repro.faults.FaultInjector.inject(message)": "seam: fault arming",
    "repro.faults.FaultInjector.inject(times)": "seam: fault arming",
    "repro.faults.FaultInjector.inject(truncate)": "seam: fault arming",
    # A wire-protocol field.
    "repro.client.ServiceClient.observe(bandwidth)": _OBSERVE,
    "repro.client.ServiceClient.observe(file_name)": _OBSERVE,
    "repro.client.ServiceClient.observe(offset)": _OBSERVE,
    "repro.client.ServiceClient.observe(operation)": _OBSERVE,
    "repro.client.ServiceClient.observe(source_ip)": _OBSERVE,
    "repro.client.ServiceClient.observe(streams)": _OBSERVE,
    "repro.client.ServiceClient.observe(tcp_buffer)": _OBSERVE,
    "repro.client.ServiceClient.observe(volume)": _OBSERVE,
    "repro.client.ServiceClient.rank(now)":
        "wire: the rank request's optional anchor time "
        "(tests/integration/test_wire_protocol.py)",
    # A test seam: the reason names the test.
    "repro.fleet.front.FleetFront.__init__(max_pending)":
        "seam: test_fleet_front.py and test_fleet_front_threads.py shed "
        "load at 0 and 1 requests in flight; the default 64 needs 64 "
        "stalled calls",
    "repro.fleet.runner.FleetRunner.__init__(breaker_reset)": _RUNNER,
    "repro.fleet.runner.FleetRunner.__init__(breaker_threshold)": _RUNNER,
    "repro.fleet.runner.FleetRunner.__init__(call_timeout)": _RUNNER,
    "repro.fleet.runner.FleetRunner.__init__(heartbeat_interval)": _RUNNER,
    "repro.fleet.runner.FleetRunner.__init__(heartbeat_timeout)": _RUNNER,
    "repro.fleet.runner.FleetRunner.__init__(stable_after)": _RUNNER,
    "repro.service.server.ServiceServer.__init__(request_timeout)":
        "seam: test_service_server.py cuts a request over the socket with "
        "a 1e-9 s timeout; no request the tests send outlasts 30 s",
    "repro.service.server.handle_request(deadline)":
        "set at run time: the endpoint calls dispatch(req, deadline) "
        "through the partial ServiceServer hands it, a call this scan "
        "cannot follow",
    "repro.store.store.LinkStore.__init__(segment_rows)":
        "seam: the store and service machines and the durable and chaos "
        "store tests seal at 4-128 rows; at 4,096 each would append "
        "thousands of rows",
    "repro.store.store.LinkStore.append_rows(source_offset)":
        "set at run time: LinkState's persist hook is "
        "partial(LinkStore.append_rows, link) and passes every row's "
        "offset, a call this scan cannot follow",
    # A repro.mds name.
    "repro.mds.giis.GIIS.__init__(breaker_failures)": _MDS,
    "repro.mds.giis.GIIS.__init__(breaker_reset)": _MDS,
    "repro.mds.gris.GRIS.__init__(cache_ttl)": _MDS,
    "repro.mds.ldif.Entry.__init__(attributes)": _MDS,
    "repro.mds.provider.GridFTPInfoProvider.__init__(recent)": _MDS,
    "repro.mds.registration.SoftStateRegistry.renew(ttl)": _MDS,
    "repro.mds.schema.validate_entry(object_class)": _MDS,
}


def _python_files(roots: Iterable[Path]) -> List[Path]:
    return sorted(path for root in roots if root.is_dir()
                  for path in root.rglob("*.py"))


def _module_name(path: Path, package_root: Path) -> str:
    parts = list(path.relative_to(package_root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Definition(NamedTuple):
    """Where a public name is defined, and whether it is a method."""

    path: Path
    first: int   # the first decorator's line, so a use in its arguments is inside
    last: int
    method: bool


def definitions(package_root: Path) -> Dict[str, Definition]:
    """Qualified public name -> its :class:`Definition`."""
    found: Dict[str, Definition] = {}

    def public(nodes, kinds):
        return [node for node in nodes
                if isinstance(node, kinds) and not node.name.startswith("_")]

    def span(path, node, method=False):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return Definition(path, first, node.end_lineno, method)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in _python_files([package_root]):
        module = _module_name(path, package_root)
        for node in public(ast.parse(path.read_text()).body,
                           (*functions, ast.ClassDef)):
            found[f"{module}.{node.name}"] = span(path, node)
            if isinstance(node, ast.ClassDef):
                for member in public(node.body, functions):
                    found[f"{module}.{node.name}.{member.name}"] = span(
                        path, member, method=True)
    return found


class Use(NamedTuple):
    """One read of a bare name."""

    path: Path
    line: int
    bare: bool             # an ``ast.Name``, which cannot reach a method
    owner: Optional[str]   # the class of a ``self.<name>`` / ``cls.<name>`` read


def uses(roots: Iterable[Path]) -> Tuple[Dict[str, List[Use]],
                                         Dict[str, Set[str]]]:
    """``(bare name -> every Use of it, class -> its bases)``, the bases
    by the bare names the class statements spell."""
    found: Dict[str, List[Use]] = {}
    bases: Dict[str, Set[str]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases.setdefault(child.name, set()).update(
                    filter(None, map(_bare, child.bases)))
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name):
                names, of = [child.id], None
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
                of = owner if isinstance(child.value, ast.Name) \
                    and child.value.id in ("self", "cls") else None
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in child.names]
                of = None
            else:
                visit(child, owner)
                continue
            bare = isinstance(child, ast.Name)
            for name in names:
                found.setdefault(name, []).append(
                    Use(path, child.lineno, bare, of))
            visit(child, owner)

    for path in _python_files(roots):
        visit(ast.parse(path.read_text()), None)
    return found, bases


def _families(bases: Mapping[str, Set[str]]) -> Dict[str, Set[str]]:
    """Class -> its ancestors, its descendants and itself, by bare name."""
    subclasses: Dict[str, Set[str]] = {}
    for name, of in bases.items():
        for base in of:
            subclasses.setdefault(base, set()).add(name)

    def reach(name, step):
        found, todo = set(), [name]
        while todo:
            for other in step.get(todo.pop(), ()):
                if other not in found:
                    found.add(other)
                    todo.append(other)
        return found

    return {name: {name} | reach(name, bases) | reach(name, subclasses)
            for name in bases}


def unreferenced(package_root: Path, roots: Iterable[Path]) -> Set[str]:
    """The public names of ``package_root`` that nothing under ``roots``
    uses outside the name's own definition (a method: through an
    attribute or an import; through ``self`` or ``cls`` only inside its
    class's family)."""
    used, bases = uses(roots)
    families = _families(bases)
    dead = set()
    for qualified, where in definitions(package_root).items():
        name = qualified.rsplit(".", 1)[-1]
        family = (families.get(qualified.rsplit(".", 2)[1], set())
                  if where.method else set())
        if not any((use.path != where.path
                    or not where.first <= use.line <= where.last)
                   and not (use.bare and where.method)
                   and (use.owner is None or not where.method
                        or use.owner in family)
                   for use in used.get(name, ())):
            dead.add(qualified)
    return dead


def audit(dead: Set[str],
          allowed: Mapping[str, str]) -> Tuple[List[str], List[str]]:
    """``(unexplained, stale)``: what a scan found ``dead`` with no
    entry, and entries whose name is gone or no longer dead."""
    return sorted(dead - set(allowed)), sorted(set(allowed) - dead)


def test_every_public_name_has_a_caller_or_a_reason():
    unexplained, stale = audit(
        unreferenced(REPO / "src" / "repro", [REPO / root for root in USERS]),
        ALLOWED)
    assert unexplained == [], "no caller in src/, examples/ or benchmarks/"
    assert stale == [], "ALLOWED entry whose name is gone or has a caller"


def test_every_allowed_entry_states_its_reason():
    assert [name for name, reason in {**ALLOWED, **ALLOWED_PARAMETERS}.items()
            if not reason.strip()] == []


# ----------------------------------------------------------------------
# parameters: every default is one some caller overrides
# ----------------------------------------------------------------------
class Parameter(NamedTuple):
    """A defaulted parameter as a call reaches it."""

    callee: str              # the bare name a call spells (a class's for __init__)
    position: Optional[int]  # among the explicit arguments; None if keyword-only
    name: str


class Call(NamedTuple):
    """What one call passes, by shape."""

    positional: int          # positional arguments before any ``*args``
    starred: bool            # a ``*args``
    keywords: FrozenSet[str]
    spread: bool             # a ``**mapping`` the caller built
    forwards: Optional[str]  # a ``**kwargs`` that is the caller's own: its callee


def _bare(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _callee(function: ast.AST, owner: Optional[ast.ClassDef]) -> str:
    """The bare name a call spells to reach ``function``: its class's
    for an ``__init__``."""
    if owner is not None and function.name == "__init__":
        return owner.name
    return function.name


def parameters(package_root: Path) -> Dict[str, Parameter]:
    """``module.qualname(param)`` -> every parameter of a function or
    method, nested ones too, that has a default."""
    found: Dict[str, Parameter] = {}

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                static = any(_bare(d) == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if owner is not None and not static else 0
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                qualified = f"{prefix}.{child.name}"
                callee = _callee(child, owner)
                for index in range(first, len(positional)):
                    found[f"{qualified}({positional[index].arg})"] = Parameter(
                        callee, index - bound, positional[index].arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{qualified}({arg.arg})"] = Parameter(
                            callee, None, arg.arg)
                visit(child, qualified, None)
            else:
                visit(child, prefix, owner)

    for path in _python_files([package_root]):
        visit(ast.parse(path.read_text()), _module_name(path, package_root),
              None)
    return found


def calls(roots: Iterable[Path]) -> Tuple[Dict[str, List[Call]],
                                          Dict[str, Set[str]]]:
    """``(callee -> its calls, class -> its subclasses without an
    __init__)``.  ``super().__init__`` and ``Base.__init__(self, ...)``
    inside a class call its bases by name."""
    found: Dict[str, List[Call]] = {}
    inherits: Dict[str, Set[str]] = {}

    def record(call: ast.Call, names, shift, enclosing):
        arguments = call.args
        stars = [i for i, arg in enumerate(arguments)
                 if isinstance(arg, ast.Starred)]
        spreads = [k.value for k in call.keywords if k.arg is None]
        own = enclosing[1] if enclosing is not None else None
        forwarded = [v for v in spreads
                     if isinstance(v, ast.Name) and v.id == own]
        shape = Call(
            positional=(stars[0] if stars else len(arguments)) - shift,
            starred=bool(stars),
            keywords=frozenset(k.arg for k in call.keywords if k.arg),
            spread=len(spreads) > len(forwarded),
            forwards=enclosing[0] if forwarded else None)
        for name in names:
            found.setdefault(name, []).append(shape)

    def visit(node, owner, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not any(isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and m.name == "__init__" for m in child.body):
                    for base in child.bases:
                        inherits.setdefault(_bare(base), set()).add(child.name)
                visit(child, child, enclosing)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kwarg = child.args.kwarg
                visit(child, owner, (_callee(child, owner),
                                     kwarg.arg if kwarg else None))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and func.attr == "__init__":
                    if isinstance(func.value, ast.Call) and \
                            _bare(func.value.func) == "super":
                        names = [_bare(base) for base in owner.bases] \
                            if owner is not None else []
                        record(child, names, 0, enclosing)
                    else:
                        record(child, [_bare(func.value)], 1, enclosing)
                elif _bare(func) is not None:
                    record(child, [_bare(func)], 0, enclosing)
            visit(child, owner, enclosing)

    for path in _python_files(roots):
        visit(ast.parse(path.read_text()), None, None)
    return found, inherits


def unset(package_root: Path, roots: Iterable[Path]) -> Set[str]:
    """The defaulted parameters of ``package_root`` that no call under
    ``roots`` passes, so only the default ever runs."""
    found, inherits = calls(roots)

    def spelled(callee: str) -> Set[str]:
        names, todo = set(), [callee]
        while todo:
            name = todo.pop()
            if name not in names:
                names.add(name)
                todo.extend(inherits.get(name, ()))
        return names

    def sets(parameter: Parameter, seen: Set[str]) -> bool:
        for name in spelled(parameter.callee):
            for call in found.get(name, ()):
                if (parameter.name in call.keywords or call.spread
                        or parameter.position is not None and (
                            parameter.position < call.positional
                            or call.starred)):
                    return True
                if call.forwards is not None and call.forwards not in seen \
                        and sets(Parameter(call.forwards, None, parameter.name),
                                 seen | {call.forwards}):
                    return True
        return False

    return {qualified for qualified, parameter
            in parameters(package_root).items()
            if not sets(parameter, {parameter.callee})}


def test_every_defaulted_parameter_has_a_setter_or_a_reason():
    unexplained, stale = audit(
        unset(REPO / "src" / "repro",
              [REPO / root for root in USERS]),
        ALLOWED_PARAMETERS)
    assert unexplained == [], \
        "no call in src/, examples/ or benchmarks/ passes it"
    assert stale == [], \
        "ALLOWED_PARAMETERS entry whose parameter is gone or has a setter"


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

            def shadowed(self):
                return 0

            def _private(self):
                return 0


        def _helper():
            shadowed = Box().called()  # a local, not the method
            return shadowed
        """,
    "examples/use.py": """
        from pkg.mod import imported
        """,
}


def _plant(root: Path, files: Mapping[str, str]) -> Tuple[Path, List[Path]]:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root / "src" / "pkg", [root / top for top in USERS]


def test_the_scanner_reports_an_unused_function_and_method(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED)
    assert unreferenced(package, roots) == {"pkg.mod.dead",
                                            "pkg.mod.Box.orphan",
                                            "pkg.mod.Box.shadowed"}


def test_a_method_read_only_through_a_same_named_local_is_reported(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED)
    assert "pkg.mod.Box.shadowed" in unreferenced(package, roots)
    (tmp_path / "examples" / "call.py").write_text(
        "from pkg.mod import Box\nBox().shadowed()\n")
    assert "pkg.mod.Box.shadowed" not in unreferenced(package, roots)


def test_an_fstring_an_import_and_a_method_call_are_uses(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED)
    dead = unreferenced(package, roots)
    for name in ("shown", "imported", "Box.called", "Box"):
        assert f"pkg.mod.{name}" in definitions(package)
        assert f"pkg.mod.{name}" not in dead


_PLANTED_FAMILY = {
    "src/pkg/__init__.py": "",
    "src/pkg/family.py": """
        class Left:
            def ping(self):
                return 0


        class Right:
            def ping(self):
                return 1

            def run(self):
                return self.ping()  # reaches Right's family, not Left


        class Base:
            def hook(self):
                return 0


        class Sub(Base):
            @classmethod
            def go(cls):
                return cls.hook(None)  # an ancestor's method
        """,
    "examples/use.py": """
        from pkg.family import Left, Right, Sub

        Right().run(), Sub.go(), Left
        """,
}


def test_a_self_read_reaches_only_its_class_family(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED_FAMILY)
    assert unreferenced(package, roots) == {"pkg.family.Left.ping"}
    (tmp_path / "examples" / "call.py").write_text(
        "from pkg.family import Left\nLeft().ping()\n")
    assert unreferenced(package, roots) == set()


def test_a_stale_entry_is_reported(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED)
    allowed = {"pkg.mod.dead": "planted", "pkg.mod.gone": "deleted",
               "pkg.mod.imported": "has a caller"}
    assert audit(unreferenced(package, roots), allowed) == (
        ["pkg.mod.Box.orphan", "pkg.mod.Box.shadowed"],
        ["pkg.mod.gone", "pkg.mod.imported"])


_PLANTED_PARAMETERS = {
    "src/pkg/__init__.py": "",
    "src/pkg/params.py": """
        def unset(a, b=1):
            return a + b


        def keyword(a, b=1):
            return a + b


        def positional(a, b=1, *, c=2):
            return a + b + c


        def star(a, b=1):
            return a + b


        def spread(a, b=1):
            return a + b


        def forwarded(a, b=1, c=2):
            return a + b + c


        def forwards(**options):
            return forwarded(0, **options)


        class Base:
            def __init__(self, x=0, y=0):
                self.total = x + y


        class Super(Base):
            def __init__(self):
                super().__init__(y=1)


        class Subclass(Base):
            pass


        class Box:
            def method(self, a, b=1):
                return a + b
        """,
    "tests/use.py": """
        from pkg import params

        params.unset(0, b=2)  # tests/ is not a root: this sets nothing
        """,
    "examples/use.py": """
        from pkg import params

        params.keyword(0, b=2)
        params.positional(0, 2)
        params.star(*[0, 2])
        params.spread(0, **{"b": 2})
        params.forwards(c=3)
        params.Subclass(1)
        params.Box().method(0, 2)
        """,
}


def test_the_parameter_scan_reports_a_default_nothing_overrides(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED_PARAMETERS)
    assert unset(package, roots) == {
        "pkg.params.unset(b)",        # its one setter is under tests/
        "pkg.params.positional(c)",   # keyword-only: two positionals miss it
        "pkg.params.forwarded(b)",    # the forwarder's callers pass only c
    }


@pytest.mark.parametrize("parameter", [
    "keyword(b)", "positional(b)", "star(b)", "spread(b)", "forwarded(c)",
    "Base.__init__(y)", "Base.__init__(x)", "Box.method(b)",
], ids=["keyword", "positional", "args", "kwargs", "forwarded-kwargs",
        "super-init", "subclass", "method"])
def test_each_kind_of_setter_counts(tmp_path, parameter):
    package, roots = _plant(tmp_path, _PLANTED_PARAMETERS)
    assert f"pkg.params.{parameter}" in parameters(package)
    assert f"pkg.params.{parameter}" not in unset(package, roots)


def test_a_setter_under_tests_is_not_one_and_under_examples_is(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED_PARAMETERS)
    assert "pkg.params.unset(b)" in unset(package, roots)
    (tmp_path / "examples" / "set.py").write_text(
        "from pkg import params\nparams.unset(0, b=2)\n")
    assert "pkg.params.unset(b)" not in unset(package, roots)


def test_a_stale_parameter_entry_is_reported(tmp_path):
    package, roots = _plant(tmp_path, _PLANTED_PARAMETERS)
    allowed = {"pkg.params.unset(b)": "planted",
               "pkg.params.unset(gone)": "deleted",
               "pkg.params.keyword(b)": "has a setter"}
    assert audit(unset(package, roots), allowed) == (
        ["pkg.params.forwarded(b)", "pkg.params.positional(c)"],
        ["pkg.params.keyword(b)", "pkg.params.unset(gone)"])
