"""Continuous size-scaling predictor (an alternative to class binning).

Section 4.3 handles the bandwidth-vs-size dependence by *binning*; the
natural refinement is to model it continuously.  TCP mechanics suggest the
saturating form

    ``bw(S) = R * S / (S + S0)``

where ``R`` is the steady-state rate and ``S0`` the "half-speed size" —
the transfer size at which startup costs (connection setup + slow start)
still consume half the time.  This predictor:

1. fits ``(R, S0)`` to the history by least squares on the linearized
   form ``S / bw = S / R + S0 / R`` (regressing ``S/bw`` on ``S``, both
   observable, with exact closed-form solution);
2. estimates the *current load level* as the median ratio of recent
   observed bandwidths to the curve's prediction at their sizes;
3. predicts ``level * bw_curve(target_size)``.

Compared to classification it shares strength across all sizes (no
starved bins) and interpolates between the paper's 13 discrete sizes.
``tests/integration/test_prediction_pipeline.py::TestSizeModel`` compares
the two approaches.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.history import History
from repro.core.predictors.base import Predictor, PredictorError
from repro.logs.stats import median

__all__ = ["SizeScaledPredictor", "fit_saturating_curve"]


def fit_saturating_curve(
    sizes: np.ndarray, bandwidths: np.ndarray
) -> Optional[Tuple[float, float]]:
    """Fit ``bw = R * S / (S + S0)``; returns ``(R, S0)`` or ``None``.

    Linearization: ``S/bw = (1/R) * S + (S0/R)`` — ordinary least squares
    of ``y = S/bw`` on ``x = S``.  Requires >= 3 points, at least two
    distinct sizes, and a positive fitted slope (R > 0).  ``S0`` is
    clamped at 0: a negative intercept (supralinear small-file speed)
    has no physical reading and reduces to the constant model.
    """
    if len(sizes) < 3:
        return None
    x = sizes.astype(np.float64)
    y = x / bandwidths
    x_mean = x.mean()
    dx = x - x_mean
    var = float((dx ** 2).sum())
    if var <= 0:
        return None
    y_mean = y.mean()
    slope = float((dx * (y - y_mean)).sum()) / var
    if slope <= 0 or not np.isfinite(slope):
        return None
    intercept = float(y_mean - slope * x_mean)
    rate = 1.0 / slope
    half_size = max(intercept * rate, 0.0)
    return rate, half_size


#: Recent observations the load-level estimate is taken over.
LEVEL_WINDOW = 15

#: History needed before the curve fit is tried; below it (or when the
#: fit degenerates) the predictor falls back to the plain mean of recent
#: values, still a valid, if size-blind, estimate.
MIN_POINTS = 5


class SizeScaledPredictor(Predictor):
    """Predict via a fitted bandwidth-vs-size curve times recent load
    level: the curve is fit from :data:`MIN_POINTS` observations on, the
    level over the last :data:`LEVEL_WINDOW`."""

    name = "SIZE"

    def _curve(self, history: History) -> Optional[Tuple[float, float]]:
        if len(history) < MIN_POINTS:
            return None
        return fit_saturating_curve(
            np.asarray(history.sizes, dtype=np.float64), history.values
        )

    def predict(
        self,
        history: History,
        target_size: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        if len(history) == 0:
            return None
        if target_size is None:
            raise PredictorError(f"{self.name}: target_size is required")

        fit = self._curve(history)
        recent = history.last(LEVEL_WINDOW)
        if fit is None:
            return float(recent.values.mean())
        rate, half_size = fit

        def curve(size: np.ndarray | float) -> np.ndarray | float:
            return rate * size / (size + half_size)

        expected = curve(np.asarray(recent.sizes, dtype=np.float64))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = recent.values / expected
        ratios = ratios[np.isfinite(ratios) & (ratios > 0)]
        level = median(ratios) if len(ratios) else 1.0
        return level * float(curve(float(target_size)))
