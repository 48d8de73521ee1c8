"""Structured events: a bounded event ring.

The paper's instrumentation is fundamentally an event log — one ULM
record per completed transfer.  :class:`EventBus` is the reproduction's
equivalent for its own rare events: a layer emits ``(time, kind,
fields)`` and the newest ones stay queryable in a deque-backed ring.
Per-request work is counted in the metrics registry, not here, so the
ring keeps what an operator asks it for (revivals, evictions, ingests,
store faults) under any traffic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

__all__ = ["TraceEvent", "EventBus", "get_event_bus"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured event."""

    time: float
    kind: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind, **dict(self.fields)}


class EventBus:
    """A bounded ring of :class:`TraceEvent`.

    The newest ``capacity`` events are kept in a
    ``deque(maxlen=capacity)``; eviction is O(1) and counted in
    :attr:`dropped`.
    """

    def __init__(self, capacity: int = 256, clock: Callable[[], float] = time.time):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0

    def emit(self, kind: str, **fields: Any) -> TraceEvent:
        event = TraceEvent(time=self._clock(), kind=kind, fields=fields)
        with self._lock:
            if len(self._events) == self.capacity:
                self._dropped += 1  # the append below evicts the oldest
            self._events.append(event)
        return event

    def events(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> List[TraceEvent]:
        """The retained events, oldest first, optionally filtered.

        ``limit`` keeps only the *newest* ``limit`` matches.
        """
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        if limit is not None and limit >= 0:
            events = events[len(events) - limit:] if limit else []
        return events

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_default_bus = EventBus(capacity=1024)


def get_event_bus() -> EventBus:
    """The process-wide bus shared by module-level instrumentation."""
    return _default_bus
