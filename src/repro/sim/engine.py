"""Event-driven simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Events are
ordered by ``(time, sequence)`` so that simultaneous events fire in a
deterministic order: the order they were scheduled in.  Determinism matters here — every experiment in the reproduction is
seeded, and replaying a campaign must yield byte-identical logs.

Time is a ``float`` in Unix epoch seconds.  The paper's logs use epoch
timestamps (August/December 2001), so campaigns are typically started at
an epoch such as ``2001-08-01 00:00 UTC``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Engine", "Event", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduling errors such as scheduling in the past."""


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)``; the payload fields are
    excluded from ordering.  ``cancelled`` events stay in the heap but are
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        self.cancelled = True


class Engine:
    """Priority-queue discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial simulation clock, in epoch seconds.

    Examples
    --------
    >>> eng = Engine(start_time=0.0)
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0):
        if not math.isfinite(start_time):
            raise SimulationError(f"start_time must be finite, got {start_time!r}")
        self._now = float(start_time)
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._running = False

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in epoch seconds."""
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute time.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current clock or is not finite.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        event = Event(float(time), next(self._seq), callback, args)
        heapq.heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event.  Returns False when queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue drains or the clock passes ``until``.
        Returns the number of events fired by this call.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        observe a monotone clock.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._queue:
                head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and head.time > until:
                    break
                if self.step():
                    fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return fired
