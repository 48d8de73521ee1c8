"""The continuous size-scaling predictor."""

import numpy as np
import pytest

from repro.core import History
from repro.core.predictors import SizeScaledPredictor
from repro.core.predictors.base import PredictorError
from repro.core.predictors.size_model import fit_saturating_curve
from repro.units import MB


def saturating_history(rate=10e6, half_size=20 * MB, n=30, level=1.0, rng=None):
    rng = rng or np.random.default_rng(0)
    sizes = rng.choice([1 * MB, 10 * MB, 100 * MB, 500 * MB, 1000 * MB], size=n)
    bw = level * rate * sizes / (sizes + half_size)
    times = np.arange(n, dtype=float) * 3600.0
    return History(times=times, values=bw.astype(float), sizes=sizes.astype(np.int64))


class TestCurveFit:
    def test_recovers_exact_parameters(self):
        h = saturating_history()
        rate, half = fit_saturating_curve(
            np.asarray(h.sizes, dtype=float), h.values
        )
        assert rate == pytest.approx(10e6, rel=1e-6)
        assert half == pytest.approx(20 * MB, rel=1e-6)

    def test_needs_three_points(self):
        assert fit_saturating_curve(np.array([1.0, 2.0]), np.array([1.0, 2.0])) is None

    def test_single_size_is_degenerate(self):
        sizes = np.array([10 * MB] * 5, dtype=float)
        bw = np.array([5e6] * 5)
        assert fit_saturating_curve(sizes, bw) is None

    def test_negative_intercept_clamped(self):
        # Small files faster than large (unphysical): S0 clamps to 0.
        sizes = np.array([1 * MB, 10 * MB, 100 * MB], dtype=float)
        bw = np.array([9e6, 8e6, 7e6])
        fit = fit_saturating_curve(sizes, bw)
        if fit is not None:
            assert fit[1] >= 0.0


class TestPredictor:
    def test_exact_on_noiseless_curve(self):
        h = saturating_history()
        p = SizeScaledPredictor()
        for target in (5 * MB, 50 * MB, 800 * MB):
            expected = 10e6 * target / (target + 20 * MB)
            assert p.predict(h, target_size=target, now=1e9) == pytest.approx(
                expected, rel=1e-6
            )

    def test_tracks_load_level(self):
        """Recent observations at half the curve halve the prediction."""
        base = saturating_history(n=30)
        dimmed_values = base.values.copy()
        dimmed_values[-15:] *= 0.5
        h = History(times=base.times, values=dimmed_values, sizes=base.sizes)
        p = SizeScaledPredictor()
        predicted = p.predict(h, target_size=100 * MB, now=1e9)
        # Curve fit is polluted by the mixed levels, but the level estimate
        # must pull the prediction well below the clean-curve value.
        clean = SizeScaledPredictor().predict(base, target_size=100 * MB, now=1e9)
        assert predicted < 0.8 * clean

    def test_interpolates_between_observed_sizes(self):
        h = saturating_history()
        p = SizeScaledPredictor()
        mid = p.predict(h, target_size=50 * MB, now=1e9)
        lo = p.predict(h, target_size=10 * MB, now=1e9)
        hi = p.predict(h, target_size=100 * MB, now=1e9)
        assert lo < mid < hi

    def test_falls_back_to_mean_when_unfittable(self):
        h = History(
            times=np.arange(4, dtype=float),
            values=np.array([4e6, 6e6, 5e6, 5e6]),
            sizes=np.array([10 * MB] * 4),  # single size: degenerate fit
        )
        p = SizeScaledPredictor()
        assert p.predict(h, target_size=100 * MB, now=10.0) == pytest.approx(5e6)

    def test_requires_target_size(self):
        with pytest.raises(PredictorError):
            SizeScaledPredictor().predict(saturating_history(), now=1e9)

    def test_empty_history_abstains(self):
        assert SizeScaledPredictor().predict(History.empty(), target_size=1, now=0.0) is None
