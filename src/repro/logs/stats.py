"""Summary statistics over bandwidth columns.

The MDS information provider (Section 5.1, Figure 6) publishes per-server
attributes such as ``minrdbandwidth``, ``maxrdbandwidth``,
``avgrdbandwidth`` and per-class variants; this module computes them from
a log's columns (the provider filters by direction first).  Bandwidths
are aggregated with NumPy for speed — a busy server can hold tens of
thousands of records and the provider recomputes on every poll.
:class:`RunningMedian` is the exact median the prediction bank's ``MED``
keeps between observations.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

__all__ = [
    "BandwidthSummary",
    "RunningMedian",
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


def summarize_values(bandwidths: np.ndarray) -> BandwidthSummary:
    """min/max/mean/median/stddev of a bandwidth column, in its order."""
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


def summarize_frame_by_class(
    frame, classify: Callable[[int], str]
) -> Dict[str, BandwidthSummary]:
    """Per-file-size-class summaries, keyed by class label (sorted).

    ``frame`` is anything with parallel ``sizes`` / ``bandwidths`` columns
    (a :class:`~repro.data.frame.TransferFrame`; duck-typed so this layer
    needs no import from above).  Only classes that occur appear — the
    provider publishes an attribute per present class.  Labels come from
    one ``classify`` call per *distinct* size, and each class's summary
    reduces its slice of the column in record order.
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
