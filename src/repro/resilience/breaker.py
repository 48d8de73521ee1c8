"""Circuit breaker: stop hammering a dependency that is already down.

The classic three-state machine:

* **closed** — calls flow; consecutive failures are counted, and
  reaching ``failure_threshold`` trips the breaker open;
* **open** — calls are rejected instantly (:class:`CircuitOpenError`)
  until ``reset_timeout`` has elapsed since the trip;
* **half-open** — after the timeout, one trial call at a time is
  admitted: its success closes the breaker, its failure re-opens it and
  restarts the timer.

Time is explicit: every transition-relevant method accepts ``now`` (the
GIIS drives breakers on simulation time) and falls back to the
breaker's injectable clock.  State changes are counted in process-wide
:mod:`repro.obs` metrics and emitted as ``resilience.breaker_*`` events.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, TypeVar

from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry

__all__ = ["CircuitBreaker", "CircuitOpenError", "CLOSED", "OPEN", "HALF_OPEN"]

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_REG = get_registry()
_M_TRIPS = _REG.counter(
    "resilience_breaker_trips", "circuit breakers tripped closed -> open")
_M_REJECTIONS = _REG.counter(
    "resilience_breaker_rejections",
    "calls rejected by an open or probe-saturated breaker")
_M_PROBES = _REG.counter(
    "resilience_breaker_probes", "half-open trial calls admitted")
_M_RESETS = _REG.counter(
    "resilience_breaker_resets", "circuit breakers recovered to closed")


class CircuitOpenError(ConnectionError):
    """The breaker is open; the protected call was not attempted."""

    def __init__(self, name: str, retry_after: float):
        super().__init__(
            f"circuit {name!r} is open (retry after {retry_after:.3f}s)"
        )
        self.breaker_name = name
        self.retry_after = retry_after


class CircuitBreaker:
    """One protected dependency's health state.

    Use either style:

    * imperative — ``if breaker.allow(now): try work; record_success()
      / record_failure(now)`` (the GIIS search loop, where the
      degraded path is custom);
    * functional — ``breaker.call(fn, now=...)``, which raises
      :class:`CircuitOpenError` when the breaker rejects.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {reset_timeout}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0          # consecutive failures while closed
        self._opened_at = 0.0
        self._probing = False       # a half-open trial call is in flight
        # Lifetime stats, exposed for status()/tests.
        self.trips = 0
        self.rejections = 0
        self.resets = 0

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    def state(self, now: Optional[float] = None) -> str:
        """Current state, advancing open -> half-open when the timer ran."""
        now = self._now(now)
        with self._lock:
            self._advance(now)
            return self._state

    def _advance(self, now: float) -> None:
        # Caller holds the lock.
        if self._state == OPEN and now - self._opened_at >= self.reset_timeout:
            self._state = HALF_OPEN
            self._probing = False

    def allow(self, now: Optional[float] = None) -> bool:
        """Whether a call may proceed right now.

        In half-open state one trial call at a time is admitted; the
        admitted caller **must** report back
        via :meth:`record_success` or :meth:`record_failure`.  Callers
        that lose the probe race are rejected and counted exactly like
        open-state rejections.
        """
        now = self._now(now)
        with self._lock:
            self._advance(now)
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if not self._probing:
                    self._probing = True
                    _M_PROBES.inc()
                    return True
                self.rejections += 1
                _M_REJECTIONS.inc()
                return False
            # OPEN
            self.rejections += 1
            _M_REJECTIONS.inc()
            return False

    def record_success(self, now: Optional[float] = None) -> None:
        with self._lock:
            self._failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probing = False
                self.resets += 1
                _M_RESETS.inc()
                get_event_bus().emit(
                    "resilience.breaker_close", breaker=self.name)

    def record_failure(self, now: Optional[float] = None) -> None:
        now = self._now(now)
        with self._lock:
            if self._state == HALF_OPEN:
                tripped = True          # the probe failed: straight back open
            else:
                self._failures += 1
                tripped = (
                    self._state == CLOSED
                    and self._failures >= self.failure_threshold
                )
            if tripped:
                self._state = OPEN
                self._opened_at = now
                self._failures = 0
                self._probing = False
                self.trips += 1
                _M_TRIPS.inc()
                get_event_bus().emit(
                    "resilience.breaker_open", breaker=self.name,
                    reset_timeout=self.reset_timeout)

    def retry_after(self, now: Optional[float] = None) -> float:
        """Seconds until an open breaker will admit a probe (0 if not open)."""
        now = self._now(now)
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self.reset_timeout - (now - self._opened_at))

    # ------------------------------------------------------------------
    # functional style
    # ------------------------------------------------------------------
    def call(self, fn: Callable[[], T], now: Optional[float] = None) -> T:
        """Run ``fn`` under the breaker; raise :class:`CircuitOpenError`
        instead of calling when the breaker rejects."""
        if not self.allow(now):
            raise CircuitOpenError(self.name, self.retry_after(now))
        try:
            result = fn()
        except Exception:
            self.record_failure(now)
            raise
        self.record_success(now)
        return result

    def status(self) -> dict:
        """JSON-ready snapshot, for service status endpoints."""
        with self._lock:
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._failures,
                "trips": self.trips,
                "rejections": self.rejections,
                "resets": self.resets,
            }

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.name} {self._state} trips={self.trips}>"
