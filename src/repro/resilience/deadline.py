"""Deadline propagation: one absolute time budget for a call chain.

A :class:`Deadline` is created once at the edge (a server request
arriving, a CLI invocation) and handed down; every layer that waits or
retries asks the same object how much budget is left instead of
inventing its own timeout.  That is what makes end-to-end latency
bounded: three stacked 10-second timeouts are a 30-second worst case,
one 10-second deadline is not.

Deadlines are measured on an injectable clock (``time.monotonic`` by
default) so tests and the simulation drive them deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["Deadline", "DeadlineExceeded"]


class DeadlineExceeded(TimeoutError):
    """The operation's time budget ran out.

    A :class:`TimeoutError` subclass so existing ``except TimeoutError``
    call sites treat an exceeded deadline like any other timeout.
    """


class Deadline:
    """An absolute expiry time on an injectable clock.

    Use :meth:`after` to create one from a relative budget, pass the
    object down the call chain, and call :meth:`check` at boundaries
    (loop iterations, before expensive work).  ``None`` timeouts are
    modeled by :meth:`unbounded`, which never expires — callers can
    thread a deadline unconditionally.
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(self, expires_at: Optional[float],
                 clock: Callable[[], float] = time.monotonic):
        self.expires_at = expires_at  # None = never expires
        self._clock = clock

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        if seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds}")
        return cls(clock() + seconds, clock=clock)

    @classmethod
    def unbounded(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0.0), or ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - self._clock())

    def expired(self) -> bool:
        return self.expires_at is not None and self._clock() >= self.expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(f"{what} exceeded its deadline")

    def __repr__(self) -> str:
        if self.expires_at is None:
            return "<Deadline unbounded>"
        return f"<Deadline remaining={self.remaining():.3f}s>"
