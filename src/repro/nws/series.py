"""Timestamped measurement series.

A :class:`TimeSeries` is an append-only sequence of ``(time, value)``
observations with the window queries both the NWS forecasters and the
hybrid GridFTP/NWS predictor need: last-n values, values since a time,
nearest observation to a time.  Data lives in a NumPy array grown
geometrically, so bulk statistics are vectorized while appends stay O(1)
amortized.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.logs.stats import median as _median

__all__ = ["TimeSeries"]


class TimeSeries:
    """Append-only (time, value) series with monotone non-decreasing times."""

    def __init__(self):
        # Rows for 64 observations; append doubles the array when full.
        self._data = np.empty((64, 2), dtype=np.float64)
        self._len = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, t: float, value: float) -> None:
        """Append an observation; times must not decrease."""
        if self._len and t < self._data[self._len - 1, 0]:
            raise ValueError(
                f"time {t} precedes last observation {self._data[self._len - 1, 0]}"
            )
        if self._len == len(self._data):
            grown = np.empty((2 * len(self._data), 2), dtype=np.float64)
            grown[: self._len] = self._data[: self._len]
            self._data = grown
        self._data[self._len] = (t, value)
        self._len += 1

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        for i in range(self._len):
            yield float(self._data[i, 0]), float(self._data[i, 1])

    @property
    def times(self) -> np.ndarray:
        """Read-only view of observation times."""
        view = self._data[: self._len, 0]
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Read-only view of observation values."""
        view = self._data[: self._len, 1]
        view.flags.writeable = False
        return view

    def last(self) -> Optional[Tuple[float, float]]:
        if self._len == 0:
            return None
        t, v = self._data[self._len - 1]
        return float(t), float(v)

    def since(self, t: float) -> np.ndarray:
        """Values of observations with time >= ``t``."""
        times = self._data[: self._len, 0]
        lo = int(np.searchsorted(times, t, side="left"))
        return self._data[lo : self._len, 1].copy()

    def value_at(self, t: float) -> Optional[float]:
        """Value of the most recent observation at or before ``t``."""
        times = self._data[: self._len, 0]
        idx = int(np.searchsorted(times, t, side="right")) - 1
        if idx < 0:
            return None
        return float(self._data[idx, 1])

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        if self._len == 0:
            raise ValueError("mean of empty series")
        return float(self._data[: self._len, 1].mean())

    def median(self) -> float:
        if self._len == 0:
            raise ValueError("median of empty series")
        return _median(self._data[: self._len, 1])

