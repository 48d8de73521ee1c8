"""Span-based tracing with ``contextvars`` parent propagation.

A :class:`Span` measures one operation: name, wall-clock duration,
ok/error status, free-form attributes, and its position in a trace tree.
The current span lives in a :mod:`contextvars` context variable, so
``span()`` blocks nest naturally::

    with span("ingest.load_ulm", path=str(path)):
        ...
        with span("ingest.parse"):        # child of load_ulm
            ...

Finished spans land in a bounded in-memory :class:`SpanExporter`
(deque-backed, oldest dropped first) that the Unix-socket server's
``spans`` op serves.

Threads start with an empty context, so work fanned out to a pool does
not inherit the submitting thread's span automatically — pass
``parent=current_span()`` explicitly.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional

__all__ = [
    "Span",
    "SpanContext",
    "SpanExporter",
    "current_span",
    "span",
    "get_span_exporter",
]

_ids = itertools.count(1)


class SpanContext(NamedTuple):
    """A remote span's identity, usable as a :class:`Span` parent.

    :class:`Span` reads only ``trace_id`` and ``span_id`` from its
    parent, so a context deserialized from a request envelope (the wire
    protocol's trace-context field) parents a local span into the
    caller's trace — the server half of an end-to-end distributed
    trace.  Both ids must be positive integers.
    """

    trace_id: int
    span_id: int

_current: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One timed operation; use as a context manager.

    Attributes are free-form key/values set at construction or via
    :meth:`set_attribute`.  Status is ``"ok"`` unless the block raised,
    in which case it is ``"error"`` and :attr:`error` holds the
    exception's ``repr`` (the exception itself propagates).
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attributes",
        "start_time", "end_time", "status", "error",
        "_exporter", "_token", "_clock",
    )

    def __init__(
        self,
        name: str,
        parent: Optional["Span"] = None,
        exporter: Optional["SpanExporter"] = None,
        clock: Callable[[], float] = time.perf_counter,
        **attributes: Any,
    ):
        if parent is None:
            parent = _current.get()
        self.name = name
        self.span_id = next(_ids)
        self.trace_id = parent.trace_id if parent is not None else self.span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.attributes: Dict[str, Any] = dict(attributes)
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self._exporter = exporter
        self._token: Optional[contextvars.Token] = None
        self._clock = clock

    # ------------------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __enter__(self) -> "Span":
        self.start_time = self._clock()
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_time = self._clock()
        if exc is not None:
            self.status = "error"
            self.error = repr(exc)
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        exporter = self._exporter if self._exporter is not None else get_span_exporter()
        exporter.export(self)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        dur = f"{self.duration * 1e3:.3f}ms" if self.duration is not None else "open"
        return f"<Span {self.name} id={self.span_id} {self.status} {dur}>"


class SpanExporter:
    """A bounded in-memory sink of finished spans (oldest dropped)."""

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._dropped = 0

    def export(self, finished: Span) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self._dropped += 1
            self._spans.append(finished)

    def spans(
        self, name: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Span]:
        """Finished spans, oldest first; ``limit`` keeps the newest."""
        with self._lock:
            out = list(self._spans)
        if name is not None:
            out = [s for s in out if s.name == name]
        if limit is not None and limit >= 0:
            out = out[len(out) - limit:] if limit else []
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_default_exporter = SpanExporter(capacity=2048)


def get_span_exporter() -> SpanExporter:
    """The process-wide exporter behind the server's ``spans`` op."""
    return _default_exporter


def current_span() -> Optional[Span]:
    """The innermost live span of the calling context, if any."""
    return _current.get()


def span(
    name: str,
    parent: Optional[Span] = None,
    exporter: Optional[SpanExporter] = None,
    **attributes: Any,
) -> Span:
    """A context-managed span (see :class:`Span`)."""
    return Span(name, parent=parent, exporter=exporter, **attributes)
