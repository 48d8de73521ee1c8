"""Deterministic fault injection at named sites.

The chaos suite needs to make the outside world misbehave *on
schedule*: an ``OSError`` on exactly the third tail read, a corrupt
segment on the next store read, a refused connection during a server
startup race, one wedged GRIS among many.  This module is that
switchboard:

* Production code declares **sites** — ``check("tail.read")`` before a
  boundary operation, ``filter_bytes("tail.read", data)`` on bytes that
  crossed one.  With no injector installed both are a single module
  attribute read; the serving path pays nothing.
* Tests build a :class:`FaultInjector`, schedule faults against sites
  (errors, latency, truncation, byte corruption — each limited to the
  first *n* matching calls, offset by ``after``), and install it for a
  scope with :func:`injected`.
* Everything is **seeded**: corruption picks offsets and bytes from a
  ``random.Random(seed)``, so a failing chaos run replays exactly.

Sites currently declared: ``socket.connect`` (client dials a server),
``tail.read`` (log tailing),
``store.segment`` / ``store.checkpoint`` (durable store I/O),
``gris.search`` (directory fan-out), ``fleet.spawn`` (supervisor forks
a worker) and ``fleet.route`` (front tier routes a request to a
shard).  Injectors install per process: the fleet's worker subprocesses
cannot inherit one, which is why the process-level chaos suite drives
real signals through the supervisor's ``kill``/``stall``/``resume``
hooks instead.

Every fired fault increments the process-wide ``faults_injected``
counter and emits a ``fault.injected`` event — the chaos suite asserts
its faults actually landed, not just that the system survived.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Type

from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry

__all__ = [
    "FaultInjector",
    "injected",
    "install",
    "uninstall",
    "active",
    "check",
    "filter_bytes",
]

_M_INJECTED = get_registry().counter(
    "faults_injected", "faults fired by the injection harness")


@dataclass
class _Fault:
    """One scheduled fault against one site."""

    site: str
    error: Optional[Type[BaseException]] = None   # raise this ...
    message: str = "injected fault"
    latency: float = 0.0                          # ... or sleep this long
    truncate: Optional[float] = None              # keep this fraction of bytes
    corrupt: int = 0                              # flip this many bytes
    times: Optional[int] = 1                      # fire for N matches (None = all)
    after: int = 0                                # skip the first N matches
    match: Dict[str, object] = field(default_factory=dict)  # ctx must contain
    seen: int = 0                                 # matching calls observed
    fired: int = 0                                # faults actually delivered

    def applies(self, ctx: Dict[str, object]) -> bool:
        return all(ctx.get(k) == v for k, v in self.match.items())

    def due(self) -> bool:
        """Advance this fault's match counter; True if it fires this call."""
        index = self.seen
        self.seen += 1
        if index < self.after:
            return False
        if self.times is not None and index - self.after >= self.times:
            return False
        self.fired += 1
        return True


class FaultInjector:
    """A seeded schedule of faults, keyed by site name.

    ``sleep`` is injectable so latency faults are instantaneous in
    tests that only care about the *ordering* effects of slowness.
    """

    def __init__(self, seed: int = 0, sleep: Callable[[float], None] = time.sleep):
        self.seed = seed
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._faults: List[_Fault] = []
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def inject(
        self,
        site: str,
        error: Optional[Type[BaseException]] = None,
        message: str = "injected fault",
        latency: float = 0.0,
        truncate: Optional[float] = None,
        corrupt: int = 0,
        times: Optional[int] = 1,
        after: int = 0,
        **match: object,
    ) -> "FaultInjector":
        """Schedule one fault; returns self for chaining.

        ``error`` faults raise at :func:`check`; ``latency`` sleeps
        there; ``truncate`` (fraction of bytes kept) and ``corrupt``
        (bytes flipped) transform data at :func:`filter_bytes`.  Extra
        keyword arguments must match the context the site reports
        (e.g. ``source="ISI"`` on ``gris.search``).
        """
        if error is None and latency <= 0 and truncate is None and corrupt <= 0:
            raise ValueError("fault must raise, delay, truncate, or corrupt")
        if truncate is not None and not 0.0 <= truncate < 1.0:
            raise ValueError(f"truncate keeps a fraction in [0, 1), got {truncate}")
        with self._lock:
            self._faults.append(_Fault(
                site=site, error=error, message=message, latency=latency,
                truncate=truncate, corrupt=corrupt, times=times, after=after,
                match=dict(match),
            ))
        return self

    # ------------------------------------------------------------------
    # firing (called from production sites, via the module helpers)
    # ------------------------------------------------------------------
    def _due(self, site: str, ctx: Dict[str, object],
             kinds: Callable[[_Fault], bool]) -> List[_Fault]:
        with self._lock:
            return [
                f for f in self._faults
                if f.site == site and kinds(f) and f.applies(ctx) and f.due()
            ]

    def _record(self, site: str, fault: _Fault, ctx: Dict[str, object]) -> None:
        with self._lock:
            self.fired[site] = self.fired.get(site, 0) + 1
        _M_INJECTED.inc()
        get_event_bus().emit(
            "fault.injected", site=site,
            fault=(fault.error.__name__ if fault.error else
                   "latency" if fault.latency else
                   "truncate" if fault.truncate is not None else "corrupt"),
            **{k: str(v) for k, v in ctx.items()},
        )

    def check(self, site: str, **ctx: object) -> None:
        """Fire scheduled error/latency faults for this call, if any."""
        due = self._due(site, ctx, lambda f: f.error is not None or f.latency > 0)
        for fault in due:
            self._record(site, fault, ctx)
            if fault.latency > 0:
                self._sleep(fault.latency)
            if fault.error is not None:
                raise fault.error(fault.message)

    def filter_bytes(self, site: str, data: bytes, **ctx: object) -> bytes:
        """Apply scheduled truncation/corruption faults to ``data``."""
        due = self._due(
            site, ctx, lambda f: f.truncate is not None or f.corrupt > 0)
        for fault in due:
            self._record(site, fault, ctx)
            if fault.truncate is not None:
                data = data[: int(len(data) * fault.truncate)]
            if fault.corrupt > 0 and data:
                mutable = bytearray(data)
                with self._lock:
                    for _ in range(min(fault.corrupt, len(mutable))):
                        index = self._rng.randrange(len(mutable))
                        mutable[index] ^= 0xFF
                data = bytes(mutable)
        return data

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def pending(self) -> List[str]:
        """Sites with scheduled faults that have not fully fired yet."""
        with self._lock:
            return sorted({
                f.site for f in self._faults
                if f.times is None or f.fired < f.times
            })


# ----------------------------------------------------------------------
# process-global installation (what production sites consult)
# ----------------------------------------------------------------------
_active: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process-wide active injector."""
    global _active
    _active = injector


def uninstall() -> None:
    global _active
    _active = None


def active() -> Optional[FaultInjector]:
    return _active


@contextmanager
def injected(injector: FaultInjector):
    """Install ``injector`` for a ``with`` block (always uninstalls)."""
    global _active
    previous = _active
    install(injector)
    try:
        yield injector
    finally:
        _active = previous


def check(site: str, **ctx: object) -> None:
    """Production hook: no-op unless an injector is installed."""
    if _active is not None:
        _active.check(site, **ctx)


def filter_bytes(site: str, data: bytes, **ctx: object) -> bytes:
    """Production hook for data that crossed a boundary."""
    if _active is not None:
        return _active.filter_bytes(site, data, **ctx)
    return data
