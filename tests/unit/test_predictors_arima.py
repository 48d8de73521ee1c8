"""AR(1) regression predictors."""

import numpy as np
import pytest

from repro.core import History
from repro.core.predictors import ArModel
from repro.core.predictors.arima import fit_ar1
from repro.core.predictors.base import PredictorError
from repro.units import DAY, HOUR
from tests.unit.test_predictors_mean import hist


class TestFit:
    def test_perfect_ar1_recovered(self):
        # Y_t = 2 + 0.5 * Y_{t-1}, started at 10.
        values = [10.0]
        for _ in range(20):
            values.append(2 + 0.5 * values[-1])
        a, b = fit_ar1(np.array(values))
        assert a == pytest.approx(2.0, abs=1e-6)
        assert b == pytest.approx(0.5, abs=1e-6)

    def test_constant_series_is_singular(self):
        assert fit_ar1(np.array([5.0, 5.0, 5.0, 5.0])) is None

    def test_too_few_points(self):
        assert fit_ar1(np.array([1.0, 2.0])) is None


class TestArModel:
    def test_prediction_extends_the_recurrence(self):
        values = [10.0]
        for _ in range(30):
            values.append(2 + 0.5 * values[-1])
        p = ArModel()
        predicted = p.predict(hist(values))
        assert predicted == pytest.approx(2 + 0.5 * values[-1], rel=1e-6)

    def test_falls_back_to_mean_when_singular(self):
        assert ArModel().predict(hist([7, 7, 7, 7])) == pytest.approx(7.0)

    def test_falls_back_to_mean_when_short(self):
        assert ArModel().predict(hist([4, 8])) == pytest.approx(6.0)

    def test_clamps_negative_extrapolation(self):
        # Steeply falling series: naive AR would go negative.
        values = [100.0, 50.0, 10.0, 1.0, 0.5]
        predicted = ArModel().predict(hist(values))
        assert predicted >= 0.05  # >= clamp * min(values)

    def test_temporal_window_variant(self):
        # 20 daily observations; AR5d sees only the last 5 days.
        values = [100.0] * 15 + [1.0, 1.0, 1.0, 1.0, 1.0]
        h = hist(values, spacing=DAY)
        # Window mean fallback (constant window -> singular): 1.0, not ~75.
        assert ArModel(window_days=5).predict(h) == pytest.approx(1.0)

    def test_empty_window_abstains(self):
        h = hist([5, 5, 5], spacing=HOUR)
        assert ArModel(window_days=1).predict(h, now=10 * DAY) is None

    def test_empty_history_abstains(self):
        assert ArModel().predict(History.empty(), now=0.0) is None

    def test_names(self):
        assert ArModel().name == "AR"
        assert ArModel(window_days=5).name == "AR5d"
        assert ArModel(window_days=10).name == "AR10d"

    @pytest.mark.parametrize("kw", [dict(window_days=0)])
    def test_validation(self, kw):
        with pytest.raises(PredictorError):
            ArModel(**kw)
