"""Median-based predictors (Section 4.1, second family).

Medians reject the randomly occurring *asymmetric outliers* that burst
cross-traffic causes in transfer logs, at the cost of less smoothing (more
forecast jitter) than means.  The paper uses the convention that for an
even count the median averages the two middle values — which is what
``numpy.median`` computes, and what :func:`repro.logs.stats.median`
computes bit for bit without its per-call cost.
"""

from __future__ import annotations

from typing import Optional

from repro.core.history import History
from repro.core.predictors.base import Predictor, PredictorError
from repro.logs.stats import median

__all__ = ["TotalMedian", "WindowedMedian"]


class TotalMedian(Predictor):
    """Median of all past bandwidth observations (``MED``)."""

    name = "MED"

    def predict(
        self,
        history: History,
        target_size: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        if len(history) == 0:
            return None
        return median(history.values)


class WindowedMedian(Predictor):
    """Median of the last ``window`` observations (``MED5/15/25``)."""

    def __init__(self, window: int):
        if window <= 0:
            raise PredictorError(f"window must be positive, got {window}")
        self.window = window
        self.name = f"MED{window}"

    def predict(
        self,
        history: History,
        target_size: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        if len(history) == 0:
            return None
        return median(history.last(self.window).values)
