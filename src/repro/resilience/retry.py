"""Retry with exponential backoff and deterministic seeded jitter.

fdtcp wraps every wide-area transfer in retry/timeout/cleanup logic;
this module is that discipline as a composable value.  A
:class:`RetryPolicy` is immutable configuration — share one across call
sites — and :meth:`RetryPolicy.call` executes a callable under it.

Jitter is *seeded*: the delay sequence for a given ``(policy, seed)``
is a pure function, so tests and the chaos suite replay byte-identical
schedules while production still decorrelates thundering herds by
seeding per call site.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type, TypeVar

from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry
from repro.resilience.deadline import Deadline, DeadlineExceeded

__all__ = ["RetryPolicy", "RetryError"]

T = TypeVar("T")

_REG = get_registry()
_M_RETRIES = _REG.counter(
    "resilience_retries", "attempts re-run after a retryable failure")
_M_GIVEUPS = _REG.counter(
    "resilience_retry_giveups", "retry loops exhausted without success")


class RetryError(Exception):
    """Every attempt failed; ``__cause__`` is the last attempt's error."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay * multiplier**n``, capped.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (1 = no retry).
    base_delay, multiplier, max_delay:
        Backoff schedule in seconds, before jitter.
    max_elapsed:
        Stop retrying once this much wall clock has been spent
        (checked before each sleep); ``None`` = no elapsed cap.
    jitter:
        Fraction of each delay randomized away: delay is drawn
        uniformly from ``[d * (1 - jitter), d]``.  0 disables jitter.
    seed:
        Seed for the jitter stream.  The same ``(policy, seed)``
        produces the same delay sequence — :meth:`delays` is how the
        chaos suite asserts schedules, not just outcomes.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    max_elapsed: Optional[float] = None
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self) -> Iterator[float]:
        """The jittered sleep before each retry (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts - 1):
            delay = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
            if self.jitter:
                delay *= 1.0 - self.jitter * rng.random()
            yield delay

    def call(
        self,
        fn: Callable[[], T],
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        label: str = "",
        deadline: Optional[Deadline] = None,
        on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> T:
        """Run ``fn`` until it succeeds or the policy is exhausted.

        Only exceptions in ``retry_on`` are retried; anything else
        propagates immediately (a *bad request* must not be re-sent).
        Exhaustion raises :class:`RetryError` with the last error as
        ``__cause__``.  A ``deadline``, when given, bounds the whole
        loop: a sleep never overruns it and an expired deadline raises
        :class:`DeadlineExceeded` instead of attempting again.
        ``on_retry(attempt, error, delay)`` fires before each sleep.
        """
        started = clock()
        last_error: Optional[BaseException] = None
        deadline_cut = False
        delays = self.delays()
        for attempt in range(1, self.max_attempts + 1):
            if deadline is not None:
                deadline.check(label or "retry loop")
            try:
                return fn()
            except retry_on as exc:
                last_error = exc
                if attempt == self.max_attempts:
                    break
                delay = next(delays)
                if self.max_elapsed is not None and (
                    clock() - started + delay > self.max_elapsed
                ):
                    break
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining is not None and delay > remaining:
                        # Sleeping would overrun the budget: the deadline,
                        # not the policy, is what ends this loop.
                        deadline_cut = True
                        break
                _M_RETRIES.inc()
                get_event_bus().emit(
                    "resilience.retry", label=label, attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}", delay=delay,
                )
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                if delay > 0:
                    sleep(delay)
        _M_GIVEUPS.inc()
        get_event_bus().emit(
            "resilience.giveup", label=label,
            error=f"{type(last_error).__name__}: {last_error}",
        )
        if deadline is not None and (deadline_cut or deadline.expired()):
            raise DeadlineExceeded(
                f"{label or 'retry loop'} exceeded its deadline"
            ) from last_error
        raise RetryError(
            f"{label or 'operation'} failed after {attempt} attempt(s): "
            f"{last_error}", attempts=attempt,
        ) from last_error
