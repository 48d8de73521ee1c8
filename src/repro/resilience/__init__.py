"""repro.resilience — fault handling as a first-class layer.

The paper's delivery infrastructure is built for an unreliable wide
area: soft-state GRIS→GIIS registrations exist precisely so that dead
information providers silently expire (Section 5).  This package is the
reproduction's equivalent discipline for every boundary that touches
the outside world — composable, observable, deterministic under test:

* :mod:`repro.resilience.retry` — :class:`RetryPolicy`: exponential
  backoff with deterministic seeded jitter, capped by attempts and
  elapsed time, optionally bounded by a :class:`Deadline`;
* :mod:`repro.resilience.deadline` — :class:`Deadline`: an absolute
  time budget propagated through a call chain;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`:
  closed → open → half-open with observable state counters, so one
  wedged dependency degrades instead of cascading.

All retry and trip activity is visible through the
process-wide :func:`repro.obs.get_registry` counters and
:func:`repro.obs.get_event_bus` events (see docs/resilience.md).
Deterministic fault *injection* lives next door in :mod:`repro.faults`.
"""

from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.retry import RetryError, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "RetryError",
    "RetryPolicy",
]
