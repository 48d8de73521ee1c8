"""Observation histories consumed by predictors.

A :class:`History` is the predictor-facing view of a transfer log: three
parallel NumPy arrays (end time, bandwidth, file size) sorted by time.
Predictors slice it with the window operations of Section 4.2 (last-n,
temporal window) and the class filter of Section 4.3; all views share the
underlying arrays so walk-forward evaluation over growing prefixes costs
no copies.

A history is validated once, at construction (equal lengths, times
non-decreasing).  Every view is by a forward slice or a boolean mask,
which keeps rows in their order, so it is sorted because its parent is,
and is built without re-checking: a re-check is a pass over the prefix,
and the generic walk takes a view or two a prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.logs.record import TransferRecord

__all__ = ["Observation", "History"]


@dataclass(frozen=True)
class Observation:
    """One past transfer as seen by a predictor."""

    time: float       # when the transfer completed (epoch seconds)
    bandwidth: float  # achieved end-to-end bandwidth, bytes/s
    size: int         # file size, bytes


class History:
    """Immutable, time-sorted observation arrays with cheap views."""

    __slots__ = ("times", "values", "sizes")

    def __init__(self, times: np.ndarray, values: np.ndarray, sizes: np.ndarray):
        if not (len(times) == len(values) == len(sizes)):
            raise ValueError("times, values, sizes must have equal length")
        if len(times) > 1 and np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self.sizes = np.asarray(sizes, dtype=np.int64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "History":
        return cls(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))

    @classmethod
    def from_records(cls, records: Sequence[TransferRecord]) -> "History":
        """Build from log records (which are kept sorted by end time)."""
        n = len(records)
        times = np.fromiter((r.end_time for r in records), dtype=np.float64, count=n)
        values = np.fromiter((r.bandwidth for r in records), dtype=np.float64, count=n)
        sizes = np.fromiter((r.file_size for r in records), dtype=np.int64, count=n)
        return cls(times, values, sizes)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Observation]:
        for t, v, s in zip(self.times, self.values, self.sizes):
            yield Observation(time=float(t), bandwidth=float(v), size=int(s))

    def __getitem__(self, index: int) -> Observation:
        return Observation(
            time=float(self.times[index]),
            bandwidth=float(self.values[index]),
            size=int(self.sizes[index]),
        )

    # ------------------------------------------------------------------
    # views (no copies)
    # ------------------------------------------------------------------
    def _view(self, selector) -> "History":
        """The rows ``selector`` picks, built without re-checking the
        order: every caller passes a forward slice or a boolean mask,
        which keep the parent's order."""
        view = History.__new__(History)
        view.times, view.values, view.sizes = (
            self.times[selector], self.values[selector], self.sizes[selector])
        return view

    def prefix(self, n: int) -> "History":
        """The first ``n`` observations — the walk-forward training view."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self._view(slice(0, n))

    def last(self, n: int) -> "History":
        """The most recent ``n`` observations (fewer if the history is short).

        ``last(0)`` is the empty view — the same degenerate-window
        semantics as ``prefix(0)``.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self._view(slice(max(0, len(self) - n), len(self)))

    def since(self, t: float) -> "History":
        """Observations at or after time ``t`` — the temporal window."""
        lo = int(np.searchsorted(self.times, t, side="left"))
        return self._view(slice(lo, len(self)))

    def of_class(self, classification, label: str) -> "History":
        """Observations whose size falls in the named class (vectorized)."""
        lo, hi = classification.bounds(label)
        mask = (self.sizes >= lo) & (self.sizes < hi)
        return self._view(mask)
