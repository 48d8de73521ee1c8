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
    var = float(((x - x_mean) ** 2).sum())
    if var <= 0:
        return None
    slope = float(((x - x_mean) * (y - y.mean())).sum()) / var
    if slope <= 0 or not np.isfinite(slope):
        return None
    intercept = float(y.mean() - slope * x_mean)
    rate = 1.0 / slope
    half_size = max(intercept * rate, 0.0)
    return rate, half_size


class SizeScaledPredictor(Predictor):
    """Predict via a fitted bandwidth-vs-size curve times recent load level.

    Parameters
    ----------
    level_window:
        Number of recent observations used for the load-level estimate.
    min_points:
        Minimum history to attempt the curve fit; below it (or when the
        fit degenerates) the predictor falls back to the plain mean of
        recent values — still a valid, if size-blind, estimate.
    """

    name = "SIZE"

    def __init__(self, level_window: int = 15, min_points: int = 5):
        if level_window <= 0 or min_points < 3:
            raise PredictorError("level_window must be > 0 and min_points >= 3")
        self.level_window = level_window
        self.min_points = min_points

    def _curve(self, history: History) -> Optional[Tuple[float, float]]:
        if len(history) < self.min_points:
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
        recent = history.last(self.level_window)
        if fit is None:
            return float(recent.values.mean())
        rate, half_size = fit

        def curve(size: np.ndarray | float) -> np.ndarray | float:
            return rate * size / (size + half_size)

        expected = curve(np.asarray(recent.sizes, dtype=np.float64))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = recent.values / expected
        ratios = ratios[np.isfinite(ratios) & (ratios > 0)]
        level = float(np.median(ratios)) if len(ratios) else 1.0
        return level * float(curve(float(target_size)))
