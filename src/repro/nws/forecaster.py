"""NWS-style forecasters with dynamic selection.

The NWS forecasts a measurement series by running a battery of cheap
predictors in parallel, tracking each one's accumulated error, and
reporting the current-best member's forecast.  The paper cites this as the
technique it may adopt ("choose the most appropriate one on the fly, as is
done by the NWS", Section 4.4); we implement it both here over NWS probe
series and, at the GridFTP-record level, in
:mod:`repro.core.predictors.dynamic`.

Each :class:`Forecaster` is an online estimator: ``update(value)`` feeds an
observation, ``forecast()`` returns the prediction for the *next* one (or
``None`` before any data).  All are O(1) or O(window) per update.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.logs.stats import median

__all__ = [
    "Forecaster",
    "RunningMean",
    "SlidingMean",
    "SlidingMedian",
    "LastValue",
    "ExponentialSmoothing",
    "DynamicForecaster",
    "standard_battery",
]


class Forecaster:
    """Base online forecaster."""

    name: str = "forecaster"

    def update(self, value: float) -> None:
        raise NotImplementedError

    def forecast(self) -> Optional[float]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class RunningMean(Forecaster):
    """Mean of the entire history (Welford-free: sum/count is exact enough)."""

    name = "running_mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def update(self, value: float) -> None:
        self._sum += value
        self._count += 1

    def forecast(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._sum / self._count

    def reset(self) -> None:
        self._sum, self._count = 0.0, 0


class SlidingMean(Forecaster):
    """Mean of the last ``window`` observations."""

    def __init__(self, window: int):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.name = f"sliding_mean_{window}"
        self._buf: Deque[float] = collections.deque(maxlen=window)
        self._sum = 0.0

    def update(self, value: float) -> None:
        if len(self._buf) == self.window:
            self._sum -= self._buf[0]
        self._buf.append(value)
        self._sum += value

    def forecast(self) -> Optional[float]:
        if not self._buf:
            return None
        return self._sum / len(self._buf)

    def reset(self) -> None:
        self._buf.clear()
        self._sum = 0.0


class SlidingMedian(Forecaster):
    """Median of the last ``window`` observations."""

    def __init__(self, window: int):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.name = f"sliding_median_{window}"
        self._buf: Deque[float] = collections.deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def forecast(self) -> Optional[float]:
        if not self._buf:
            return None
        return median(np.fromiter(self._buf, dtype=np.float64))

    def reset(self) -> None:
        self._buf.clear()


class LastValue(Forecaster):
    """The degenerate window: predict the previous observation."""

    name = "last_value"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = value

    def forecast(self) -> Optional[float]:
        return self._last

    def reset(self) -> None:
        self._last = None


class ExponentialSmoothing(Forecaster):
    """EWMA with gain ``alpha`` (NWS runs several gains in its battery)."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.name = f"exp_smooth_{alpha:g}"
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = value
        else:
            self._state = self.alpha * value + (1.0 - self.alpha) * self._state

    def forecast(self) -> Optional[float]:
        return self._state

    def reset(self) -> None:
        self._state = None


class DynamicForecaster(Forecaster):
    """The NWS trick: run a battery, forecast with the lowest-MSE member.

    On each ``update`` the incoming value first scores every member's
    outstanding forecast (squared error accumulates), then all members
    ingest the value.  ``forecast`` delegates to the member with the lowest
    mean squared error so far; ties break toward the earlier battery entry
    for determinism.
    """

    name = "dynamic"

    def __init__(self, battery: Sequence[Forecaster]):
        if not battery:
            raise ValueError("battery must not be empty")
        names = [f.name for f in battery]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate forecaster names in battery: {names}")
        self._battery: List[Forecaster] = list(battery)
        self._sq_err: Dict[str, float] = {f.name: 0.0 for f in battery}
        self._scored: Dict[str, int] = {f.name: 0 for f in battery}

    def update(self, value: float) -> None:
        for member in self._battery:
            pending = member.forecast()
            if pending is not None:
                err = pending - value
                self._sq_err[member.name] += err * err
                self._scored[member.name] += 1
        for member in self._battery:
            member.update(value)

    def _mse(self, member: Forecaster) -> float:
        n = self._scored[member.name]
        if n == 0:
            return float("inf")
        return self._sq_err[member.name] / n

    def best(self) -> Forecaster:
        """The member with the lowest mean squared error so far."""
        return min(self._battery, key=self._mse)

    def forecast(self) -> Optional[float]:
        return self.best().forecast()

    def reset(self) -> None:
        for member in self._battery:
            member.reset()
        self._sq_err = {f.name: 0.0 for f in self._battery}
        self._scored = {f.name: 0 for f in self._battery}


def standard_battery() -> List[Forecaster]:
    """The default NWS-like battery: means, medians, last value, EWMA gains."""
    return [
        RunningMean(),
        SlidingMean(5),
        SlidingMean(15),
        SlidingMean(25),
        SlidingMedian(5),
        SlidingMedian(15),
        LastValue(),
        ExponentialSmoothing(0.25),
        ExponentialSmoothing(0.5),
        ExponentialSmoothing(0.75),
    ]
