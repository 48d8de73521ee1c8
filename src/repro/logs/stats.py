"""Summary statistics over transfer records.

The MDS information provider (Section 5.1, Figure 6) publishes per-server
attributes such as ``minrdbandwidth``, ``maxrdbandwidth``,
``avgrdbandwidth`` and per-class variants; this module computes them.
Bandwidths are aggregated with NumPy for speed — a busy server can hold
tens of thousands of records and the provider recomputes on every poll.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.logs.record import Operation, TransferRecord

__all__ = [
    "BandwidthSummary",
    "RunningMedian",
    "RunningSummary",
    "summarize",
    "summarize_by_class",
    "summarize_values",
    "summarize_frame_by_class",
]


@dataclass(frozen=True)
class BandwidthSummary:
    """min/max/mean/median bandwidth over a record set, in bytes/s."""

    count: int
    minimum: float
    maximum: float
    mean: float
    median: float
    stddev: float

    @classmethod
    def empty(cls) -> "BandwidthSummary":
        return cls(count=0, minimum=0.0, maximum=0.0, mean=0.0, median=0.0, stddev=0.0)

    @property
    def coefficient_of_variation(self) -> float:
        """stddev / mean — the variability measure behind Figures 1–2."""
        return self.stddev / self.mean if self.mean > 0 else 0.0


class RunningMedian:
    """The exact median of every value seen: one sorted float64 column.

    The column is an ``array("d")`` — 8 B a value, unboxed, grown
    geometrically.  An insert is a binary search and a shift of the
    tail by one slot (``insort``: an O(n) memmove; a heap push is
    O(log n) but boxes every value, four times the RAM); a batch joins
    the column and one stable sort merges it in (timsort takes the
    sorted column as one run); a query reads the
    middle, with the same float arithmetic as ``(lo + hi) / 2.0`` over
    ``sorted()``.
    """

    __slots__ = ("_sorted",)

    def __init__(self) -> None:
        # Imported here: a replay process loads this module and keeps no
        # median, and the extension module would be its only cost there.
        from array import array

        self._sorted = array("d")

    def add(self, value: float) -> None:
        insort(self._sorted, value)

    def extend(self, values: np.ndarray) -> None:
        self._sorted.frombytes(np.asarray(values, dtype=np.float64).tobytes())
        # A view: sorts the column in place.
        np.frombuffer(self._sorted).sort(kind="stable")

    def minimum(self) -> float:
        """The smallest value seen (of equal ones, the first); there must
        be one."""
        return self._sorted[0]

    def value(self) -> Optional[float]:
        column = self._sorted
        n = len(column)
        mid = n // 2
        if n % 2:
            return column[mid]
        return (column[mid - 1] + column[mid]) / 2.0 if n else None


class RunningSummary:
    """Exact incremental bandwidth statistics.

    Mean and variance use Welford's algorithm; the median is a
    :class:`RunningMedian`.  ``summary()`` produces the same
    :class:`BandwidthSummary` a batch :func:`summarize` would — verified
    property-style in the tests — which is what lets the incremental
    information provider answer inquiries without rescanning the log
    (Section 5.1's cost).
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._median = RunningMedian()

    @classmethod
    def from_values(cls, values: np.ndarray) -> "RunningSummary":
        """Vectorized bulk construction, then resume incrementally.

        The moments come from array reductions and the median from one
        sort; subsequent :meth:`add` calls continue Welford's recurrence
        from them.
        """
        summary = cls()
        bw = np.asarray(values, dtype=np.float64)
        if len(bw) == 0:
            return summary
        summary._count = len(bw)
        summary._mean = float(bw.mean())
        summary._m2 = float(((bw - bw.mean()) ** 2).sum())
        summary._min = float(bw.min())
        summary._max = float(bw.max())
        summary._median.extend(bw)
        return summary

    def add(self, value: float) -> None:
        """Fold one bandwidth observation in."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        self._median.add(value)

    @property
    def count(self) -> int:
        return self._count

    def summary(self) -> BandwidthSummary:
        """Current statistics as an immutable snapshot."""
        if self._count == 0:
            return BandwidthSummary.empty()
        return BandwidthSummary(
            count=self._count,
            minimum=self._min,
            maximum=self._max,
            mean=self._mean,
            median=self._median.value(),
            stddev=(self._m2 / self._count) ** 0.5,
        )


def summarize_values(bandwidths: np.ndarray) -> BandwidthSummary:
    """Aggregate a bandwidth column directly (the columnar fast path).

    :func:`summarize` on a record list produces the identical summary:
    both reduce the same float64 array in the same order.
    """
    bw = np.asarray(bandwidths, dtype=np.float64)
    if len(bw) == 0:
        return BandwidthSummary.empty()
    return BandwidthSummary(
        count=len(bw),
        minimum=float(bw.min()),
        maximum=float(bw.max()),
        mean=float(bw.mean()),
        median=float(np.median(bw)),
        stddev=float(bw.std(ddof=0)),
    )


def summarize(
    records: Sequence[TransferRecord],
    operation: Operation | None = None,
) -> BandwidthSummary:
    """Aggregate bandwidth statistics, optionally for one direction only."""
    if operation is not None:
        records = [r for r in records if r.operation is operation]
    if not records:
        return BandwidthSummary.empty()
    bw = np.fromiter((r.bandwidth for r in records), dtype=np.float64, count=len(records))
    return summarize_values(bw)


def summarize_by_class(
    records: Sequence[TransferRecord],
    classify: Callable[[int], str],
    operation: Operation | None = None,
) -> Dict[str, BandwidthSummary]:
    """Per-file-size-class summaries, keyed by class label.

    Only classes that actually occur in the records appear in the result;
    the provider publishes an attribute per present class.
    """
    if operation is not None:
        records = [r for r in records if r.operation is operation]
    buckets: Dict[str, list] = {}
    for record in records:
        buckets.setdefault(classify(record.file_size), []).append(record)
    return {label: summarize(bucket) for label, bucket in sorted(buckets.items())}


def summarize_frame_by_class(
    frame, classify: Callable[[int], str]
) -> Dict[str, BandwidthSummary]:
    """Columnar :func:`summarize_by_class`: classify once per *distinct* size.

    ``frame`` is anything with parallel ``sizes`` / ``bandwidths`` columns
    (a :class:`~repro.data.frame.TransferFrame`; duck-typed so this layer
    needs no import from above).  Labels come from one ``classify`` call
    per unique size instead of one per record, and each class's summary
    reduces a sliced column — identical values, in identical order, to the
    per-record path, so the provider parity tests hold bit for bit.
    """
    sizes = np.asarray(frame.sizes)
    if len(sizes) == 0:
        return {}
    unique_sizes, inverse = np.unique(sizes, return_inverse=True)
    unique_labels = np.array([classify(int(s)) for s in unique_sizes])
    labels = unique_labels[inverse]
    bandwidths = np.asarray(frame.bandwidths, dtype=np.float64)
    return {
        str(label): summarize_values(bandwidths[labels == label])
        for label in sorted(set(labels.tolist()))
    }
