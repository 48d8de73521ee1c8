"""GIIS: the aggregate directory.

A GIIS accepts soft-state registrations from GRISes (Figure 5 of the
paper) and merges their entries into one searchable view.  Expired
registrations drop out automatically; a hierarchical deployment is
supported by letting one GIIS register with another (it quacks like a
GRIS: it has a ``search`` method used through the same inquiry path).

**Degradation.**  Soft state handles sources that *die* — they expire.
A source that is *wedged* (raising, hanging its callers in real
deployments) never stops renewing, so the registry alone cannot shed
it.  Each source therefore sits behind a per-source
:class:`~repro.resilience.breaker.CircuitBreaker` driven on the
inquiry's own ``now`` clock: repeated search failures trip the breaker,
and while it is open the GIIS serves that source's **last good
entries** (stale-but-served, the NWS posture of answering through
sensor outages) instead of failing the whole merged view.  A half-open
probe after ``breaker_reset`` seconds restores live answers once the
source recovers.  All of it is observable: ``mds_giis_source_errors``,
``mds_giis_stale_served`` counters and the breaker's own trip/reset
counters and events.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Union

from repro import faults as _faults
from repro.mds.ldif import Entry
from repro.mds.query import Filter, parse_filter
from repro.mds.registration import SoftStateRegistry
from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry
from repro.resilience.breaker import CircuitBreaker

__all__ = ["GIIS"]

# Process-wide MDS instrumentation (see docs/observability.md).
_REG = get_registry()
_M_REGISTER = _REG.counter(
    "mds_registrations", "soft-state registrations accepted by GIISes")
_M_RENEW = _REG.counter(
    "mds_registration_renewals", "soft-state registration refreshes")
_M_SEARCH = _REG.counter(
    "mds_giis_searches", "merged-view searches answered by GIISes")
_M_SOURCE_ERRORS = _REG.counter(
    "mds_giis_source_errors", "source search failures absorbed by GIISes")
_M_STALE = _REG.counter(
    "mds_giis_stale_served", "searches answered from a source's stale entries")


class _Searchable(Protocol):
    name: str

    def search(
        self,
        now: float,
        flt: Union[str, Filter, None] = None,
        base: Optional[str] = None,
    ) -> List[Entry]:
        ...


class GIIS:
    """Aggregates registered GRISes (or child GIISes).

    Parameters
    ----------
    name, default_ttl:
        Identity and the registration lifetime granted when a source
        names none.
    breaker_failures, breaker_reset:
        Per-source circuit breaker tuning: consecutive search failures
        before the source is benched, and how long (in inquiry ``now``
        seconds) it stays benched before a half-open probe.
    """

    def __init__(
        self,
        name: str,
        default_ttl: float = 600.0,
        breaker_failures: int = 3,
        breaker_reset: float = 60.0,
    ):
        if not name:
            raise ValueError("GIIS name must be non-empty")
        if default_ttl <= 0:
            raise ValueError(f"default_ttl must be positive, got {default_ttl}")
        self.name = name
        self.default_ttl = default_ttl
        self.breaker_failures = breaker_failures
        self.breaker_reset = breaker_reset
        self._registry: SoftStateRegistry[_Searchable] = SoftStateRegistry()
        self._breakers: Dict[str, CircuitBreaker] = {}
        # Last good answer per (source, filter, base) — stale entries are
        # only ever served for the same inquiry shape they answered.
        self._last_good: Dict[tuple, List[Entry]] = {}

    # ------------------------------------------------------------------
    # registration protocol
    # ------------------------------------------------------------------
    def register(
        self, source: _Searchable, now: float, ttl: Optional[float] = None
    ) -> None:
        """Soft-state registration from a GRIS or child GIIS."""
        if source is self:
            raise ValueError("a GIIS cannot register with itself")
        self._registry.register(source.name, source, ttl or self.default_ttl, now)
        _M_REGISTER.inc()

    def renew(self, source_name: str, now: float) -> None:
        self._registry.renew(source_name, now)
        _M_RENEW.inc()

    def registered(self, now: float) -> List[str]:
        """Names of currently live sources."""
        return [reg.key for reg in self._registry.live(now)]

    # ------------------------------------------------------------------
    # degradation state
    # ------------------------------------------------------------------
    def _breaker(self, source_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(source_name)
        if breaker is None:
            breaker = CircuitBreaker(
                f"{self.name}/{source_name}",
                failure_threshold=self.breaker_failures,
                reset_timeout=self.breaker_reset,
            )
            self._breakers[source_name] = breaker
        return breaker

    def degraded_sources(self, now: float) -> List[str]:
        """Live sources currently benched behind an open breaker."""
        return [
            reg.key for reg in self._registry.live(now)
            if self._breaker(reg.key).state(now) == "open"
        ]

    def breaker_status(self) -> Dict[str, dict]:
        """JSON-ready per-source breaker snapshots."""
        return {name: b.status() for name, b in sorted(self._breakers.items())}

    def _source_entries(
        self,
        registration,
        now: float,
        parsed: Optional[Filter],
        base: Optional[str],
    ) -> List[Entry]:
        """One source's entries: live when healthy, stale when not."""
        name = registration.key
        key = (name, repr(parsed), base)
        breaker = self._breaker(name)
        if breaker.allow(now):
            try:
                _faults.check("gris.search", source=name)
                entries = registration.payload.search(now, parsed, base)
            except Exception as exc:
                breaker.record_failure(now)
                _M_SOURCE_ERRORS.inc()
                get_event_bus().emit(
                    "mds.giis_source_error", giis=self.name, source=name,
                    error=f"{type(exc).__name__}: {exc}",
                    breaker=breaker.state(now),
                )
            else:
                breaker.record_success(now)
                self._last_good[key] = entries
                return entries
        # Benched or just-failed: degrade to the last answer that worked
        # for this same (filter, base) inquiry.
        stale = self._last_good.get(key, [])
        if stale:
            _M_STALE.inc()
        return stale

    # ------------------------------------------------------------------
    # inquiry protocol
    # ------------------------------------------------------------------
    def search(
        self,
        now: float,
        flt: Union[str, Filter, None] = None,
        base: Optional[str] = None,
    ) -> List[Entry]:
        """Merged view across all live sources.

        Duplicate DNs (a source registered with two aggregators both
        feeding this one) keep the first occurrence, matching the
        merge-into-aggregate-view behaviour described in the paper.  A
        failing or benched source contributes its last good entries
        (see the module docstring) — one wedged provider can no longer
        take the whole aggregate down.
        """
        _M_SEARCH.inc()
        parsed: Optional[Filter]
        parsed = parse_filter(flt) if isinstance(flt, str) else flt
        seen: set[str] = set()
        merged: List[Entry] = []
        for registration in self._registry.live(now):
            for entry in self._source_entries(registration, now, parsed, base):
                if entry.dn in seen:
                    continue
                seen.add(entry.dn)
                merged.append(entry)
        return merged
