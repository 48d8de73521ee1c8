"""Labeled metrics in the Prometheus idiom.

The instrument vocabulary of the whole reproduction:

* :class:`Counter` — monotone totals (records ingested, cache hits);
* :class:`Gauge` — point-in-time values (link count, cache size);
* :class:`Histogram` — latency distributions with percentile queries
  over a bounded reservoir of recent samples (predict p50/p99);
* :class:`MetricsRegistry` — the named instrument collection with a
  JSON ``snapshot()`` and a Prometheus text-exposition ``render()``.

Every instrument doubles as a **family**: ``labels(**kv)`` returns a
child instrument keyed by its label set (``predict_seconds.labels(
spec="C-AVG15")``), exactly the Prometheus client idiom.  The parent
itself stays usable as the unlabeled series, so code that never needs
labels pays nothing.

Every instrument is safe for concurrent use; the registry hands out the
same instrument for the same name, so call sites never coordinate.  A
process-wide default registry (:func:`get_registry`) is shared by the
ingest, evaluation, serving, and MDS layers.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(kv: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in kv.items()))


class _Instrument:
    """Shared family behaviour: name, help, labeled children."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._label_values: Optional[LabelKey] = None
        self._children: Dict[LabelKey, "_Instrument"] = {}

    def _new_child(self) -> "_Instrument":
        return type(self)(self.name, self.help)

    def labels(self, **kv: Any) -> "_Instrument":
        """The child instrument for this label set (created on first use).

        Same label values -> same child, so hot paths may call this per
        operation.  Children cannot be labeled further.
        """
        if self._label_values is not None:
            raise ValueError(
                f"{self.name}: labels() on an already-labeled child"
            )
        if not kv:
            return self
        key = _label_key(kv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                child._label_values = key
                self._children[key] = child
            return child

    def children(self) -> List[Tuple[Dict[str, str], "_Instrument"]]:
        """``(labels dict, child)`` pairs, sorted by label set."""
        with self._lock:
            items = sorted(self._children.items())
        return [(dict(key), child) for key, child in items]


class Counter(_Instrument):
    """A monotonically increasing total."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can move both ways."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Running count/sum/min/max plus a bounded sample reservoir.

    Percentiles are computed over the newest ``window`` observations —
    enough to answer "what is predict p99 *lately*" without unbounded
    memory.  The reservoir is deque-backed, and :meth:`observe` is
    strictly O(1): the sorted view percentiles need is rebuilt lazily on
    the first read after a write.  Writes happen per prediction on the
    serving hot path; reads happen on scrapes — paying the sort
    (O(w log w), C-speed) on the cold side is the right trade.

    **Lifetime vs window extremes.**  ``min``/``max`` (and
    ``summary()['min']``/``['max']``) are *all-time* extremes over every
    observation ever made; percentiles cover only the newest ``window``
    samples.  ``summary()`` therefore also reports ``window_min`` and
    ``window_max`` — the extremes of exactly the reservoir the
    percentiles describe — so the two scopes can never be confused.
    """

    def __init__(self, name: str, help: str = "", window: int = 1024):
        if window <= 0:
            raise ValueError(f"histogram {name}: window must be positive")
        super().__init__(name, help)
        self.window = window
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        # Insertion order for eviction; maxlen evicts the oldest on append.
        self._recent: Deque[float] = deque(maxlen=window)
        self._sorted: List[float] = []   # lazily rebuilt sorted view
        self._stale = False              # True when _sorted lags _recent

    def _new_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self.window)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._recent.append(value)  # maxlen evicts the oldest
            self._stale = True

    def _ordered(self) -> List[float]:
        """The sorted reservoir; caller must hold the lock."""
        if self._stale:
            self._sorted = sorted(self._recent)
            self._stale = False
        return self._sorted

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else float("nan")

    def summary(self) -> Dict[str, float]:
        """All-time aggregates plus reservoir percentiles.

        ``min``/``max`` are lifetime extremes; ``window_min``/
        ``window_max`` and the ``p*`` entries describe only the newest
        ``window`` observations (see the class docstring).
        """
        with self._lock:
            if not self._count:
                return {"count": 0}
            ordered = self._ordered()

            def rank(q: float) -> float:
                return ordered[max(0, min(len(ordered) - 1,
                                          round(q / 100.0 * (len(ordered) - 1))))]

            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
                "window_min": ordered[0],
                "window_max": ordered[-1],
                "p50": rank(50.0),
                "p90": rank(90.0),
                "p99": rank(99.0),
            }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(text: str) -> str:
    return text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels.items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return f"{value:g}"


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, name: str, factory: Callable[[], _Instrument]) -> _Instrument:
        if not name:
            raise ValueError("instrument name must be non-empty")
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                existing = factory()
                self._instruments[name] = existing
            return existing

    def counter(self, name: str, help: str = "") -> Counter:
        out = self._get_or_create(name, lambda: Counter(name, help))
        if not isinstance(out, Counter):
            raise ValueError(f"{name!r} is registered as {type(out).__name__}")
        return out

    def gauge(self, name: str, help: str = "") -> Gauge:
        out = self._get_or_create(name, lambda: Gauge(name, help))
        if not isinstance(out, Gauge):
            raise ValueError(f"{name!r} is registered as {type(out).__name__}")
        return out

    def histogram(self, name: str, help: str = "") -> Histogram:
        out = self._get_or_create(name, lambda: Histogram(name, help))
        if not isinstance(out, Histogram):
            raise ValueError(f"{name!r} is registered as {type(out).__name__}")
        return out

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def instruments(self) -> List[Tuple[str, _Instrument]]:
        """``(name, instrument)`` pairs, sorted by name."""
        with self._lock:
            return sorted(self._instruments.items())

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Adopt ``other``'s instruments this registry does not yet name.

        The instruments are shared, not copied — a merged view renders
        live values.  Existing names win, so merging cannot re-type an
        instrument.  Returns ``self`` for chaining.
        """
        for name, instrument in other.instruments():
            with self._lock:
                self._instruments.setdefault(name, instrument)
        return self

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as plain data, for JSON scraping.

        Unlabeled series keep the flat historical shape
        (``{"type": ..., "value"/...}``); an instrument with labeled
        children additionally carries ``"series"`` — one entry per label
        set, each with its ``"labels"`` dict.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        out: Dict[str, Dict[str, Any]] = {}
        for name, instrument in items:
            data = self._one(instrument)
            if data is None:
                continue
            series = [
                {"labels": labels, **self._one(child)}
                for labels, child in instrument.children()
                if self._one(child) is not None
            ]
            if series:
                data["series"] = series
            out[name] = data
        return out

    @staticmethod
    def _one(instrument: _Instrument) -> Optional[Dict[str, Any]]:
        if isinstance(instrument, Counter):
            return {"type": "counter", "value": instrument.value}
        if isinstance(instrument, Gauge):
            return {"type": "gauge", "value": instrument.value}
        if isinstance(instrument, Histogram):
            return {"type": "histogram", **instrument.summary()}
        return None  # pragma: no cover - registry only creates the above

    def render(self) -> str:
        """Prometheus text exposition (``# HELP``/``# TYPE`` + samples).

        Counters and gauges render one sample per series; histograms
        render in the Prometheus *summary* idiom — ``{quantile="..."}``
        samples over the reservoir plus lifetime ``_sum``/``_count``.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        lines: List[str] = []
        for name, instrument in items:
            if isinstance(instrument, Counter):
                kind = "counter"
            elif isinstance(instrument, Gauge):
                kind = "gauge"
            elif isinstance(instrument, Histogram):
                kind = "summary"
            else:  # pragma: no cover - registry only creates the above
                continue
            if instrument.help:
                lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
            lines.append(f"# TYPE {name} {kind}")
            series: List[Tuple[Dict[str, str], _Instrument]] = [({}, instrument)]
            series += instrument.children()
            for labels, child in series:
                if kind in ("counter", "gauge"):
                    # Untouched unlabeled parents of labeled families
                    # would render a spurious 0 sample; skip them.
                    if labels or not instrument._children or child.value:
                        lines.append(
                            f"{name}{_render_labels(labels)} {_fmt(child.value)}"
                        )
                else:
                    summary = child.summary()  # type: ignore[union-attr]
                    if not summary["count"] and instrument._children and not labels:
                        continue
                    for q_label, q_key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                        if q_key in summary:
                            lines.append(
                                f"{name}{_render_labels(labels, ('quantile', q_label))} "
                                f"{_fmt(summary[q_key])}"
                            )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{_fmt(summary.get('sum', 0.0))}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} "
                        f"{_fmt(summary['count'])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# the process-wide registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry shared by every instrumented layer."""
    return _default_registry
