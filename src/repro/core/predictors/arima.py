"""Auto-regressive predictors (Section 4.1, third family).

The paper's "ARIMA model technique" is the first-order auto-regression

    ``Y_t = a + b * Y_{t-1}``

with coefficients fit by least squares on past occurrences (the shock term
of the general ARIMA form is dropped).  ``AR`` fits over all data;
``AR5d``/``AR10d`` fit over the last 5/10 days, since the model "requires a
much larger data set to produce accurate predictions".

Notes faithful to the paper:

* AR assumes equally spaced measurements, which transfer logs are *not*;
  the paper runs it anyway and observes no advantage.  We do the same.
* A minimum number of lag pairs is required to fit; below it, or when the
  regression is singular (constant history), we fall back to the window
  mean rather than abstaining, matching a practical deployment.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.history import History
from repro.core.predictors.base import Predictor, PredictorError
from repro.units import DAY

__all__ = ["ArModel", "fit_ar1", "fit_ar1_sums"]

#: Observations a window needs before the fit is tried; below it the
#: model predicts the window mean.  Three values are the two lag pairs a
#: slope needs.  The paper notes ~50 points are needed for statistical
#: significance but evaluates with whatever is present.
MIN_POINTS = 3

#: AR extrapolation can run negative on a falling series; a prediction
#: is floored at this fraction of the window minimum (bandwidth is
#: positive by construction).
CLAMP = 0.1


def fit_ar1_sums(m, sx, sy, sxx, sxy) -> Optional[Tuple[float, float]]:
    """The least-squares ``(a, b)`` from the lag sums; ``None`` if singular.

    ``m`` lag pairs ``(x, y) = (Y_{t-1}, Y_t)`` and their sums ``Σx, Σy,
    Σxx, Σxy``, in longdouble.  This is the singular rule, and the only
    place it is written for one fit at a time: the generic predictor
    below and the streaming bank's ``_ArSummary`` both call it, and
    :func:`repro.core.fast._ar_model` spells the same expressions over
    arrays of prefix-sum differences.  A lag variance that is not
    positive and finite — a constant series, or one whose spread the
    sums cannot resolve — has no slope to fit, and the caller predicts
    the window mean: an AR fit on a constant series predicts the
    constant.
    """
    var = sxx - sx * sx / m
    if not (var > 0) or not np.isfinite(var):
        return None
    cov = sxy - sx * sy / m
    b = cov / var
    return (sy - b * sx) / m, b


def fit_ar1(values: np.ndarray) -> Optional[Tuple[float, float]]:
    """Least-squares fit of ``Y_t = a + b*Y_{t-1}``; ``None`` if singular.

    Returns ``(a, b)`` as longdoubles.  Requires at least 3 values (2
    lag pairs); see :func:`fit_ar1_sums` for what counts as singular.
    """
    if len(values) < 3:
        return None
    wide = np.asarray(values, dtype=np.longdouble)
    x, y = wide[:-1], wide[1:]
    return fit_ar1_sums(len(x), x.sum(), y.sum(), (x * x).sum(), (x * y).sum())


class ArModel(Predictor):
    """AR(1) regression predictor, optionally over a temporal window.

    Parameters
    ----------
    window_days:
        Fit only on observations from the last ``window_days`` days
        (``AR5d``, ``AR10d``); ``None`` fits on all data (``AR``).

    Below :data:`MIN_POINTS` observations, or on a singular fit, the
    window mean is returned; a prediction is floored at :data:`CLAMP`
    times the window minimum.
    """

    def __init__(self, window_days: Optional[float] = None):
        if window_days is not None and window_days <= 0:
            raise PredictorError(f"window_days must be positive, got {window_days}")
        self.window_days = window_days
        self.name = "AR" if window_days is None else f"AR{window_days:g}d"

    def predict(
        self,
        history: History,
        target_size: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        if len(history) == 0:
            return None
        window = history
        if self.window_days is not None:
            anchor = self._now(history, now)
            window = history.since(anchor - self.window_days * DAY)
            if len(window) == 0:
                return None
        values = window.values
        if len(values) < MIN_POINTS:
            return float(values.mean())
        fit = fit_ar1(values)
        if fit is None:
            return float(values.mean())
        a, b = fit
        prediction = float(a + b * values[-1])
        floor = CLAMP * float(values.min())
        return max(prediction, floor)
