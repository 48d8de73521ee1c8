"""NWS forecaster battery and dynamic selection."""

import pytest

from repro.nws import (
    DynamicForecaster,
    ExponentialSmoothing,
    LastValue,
    RunningMean,
    SlidingMean,
    SlidingMedian,
    standard_battery,
)


def feed(forecaster, values):
    for v in values:
        forecaster.update(v)
    return forecaster.forecast()


class TestBasicForecasters:
    def test_running_mean(self):
        assert feed(RunningMean(), [1, 2, 3, 4]) == pytest.approx(2.5)

    def test_running_mean_empty(self):
        assert RunningMean().forecast() is None

    def test_sliding_mean_window(self):
        assert feed(SlidingMean(2), [1, 2, 10, 20]) == pytest.approx(15.0)

    def test_sliding_mean_partial_window(self):
        assert feed(SlidingMean(10), [4, 6]) == pytest.approx(5.0)

    def test_sliding_median(self):
        assert feed(SlidingMedian(3), [1, 100, 2, 3]) == pytest.approx(3.0)

    def test_median_rejects_outlier(self):
        med = feed(SlidingMedian(5), [10, 10, 10, 1000, 10])
        assert med == 10

    def test_last_value(self):
        assert feed(LastValue(), [5, 7, 9]) == 9
        assert LastValue().forecast() is None

    def test_exponential_smoothing(self):
        f = ExponentialSmoothing(0.5)
        f.update(10)
        f.update(20)
        assert f.forecast() == pytest.approx(15.0)

    def test_reset(self):
        for f in standard_battery():
            f.update(5.0)
            f.reset()
            assert f.forecast() is None

    @pytest.mark.parametrize("factory", [
        lambda: SlidingMean(0), lambda: SlidingMedian(0),
        lambda: ExponentialSmoothing(0.0), lambda: ExponentialSmoothing(1.5),
    ])
    def test_validation(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestDynamicForecaster:
    def test_selects_lowest_mse_member(self):
        # Alternating series: last-value is always wrong by 10, the mean of
        # all data is nearly perfect around 15.
        dyn = DynamicForecaster([LastValue(), RunningMean()])
        for v in [10, 20] * 20:
            dyn.update(v)
        assert dyn.best().name == "running_mean"

    def test_tracks_regime_change(self):
        # A trending series rewards last-value over the all-time mean.
        dyn = DynamicForecaster([RunningMean(), LastValue()])
        for v in range(1, 60):
            dyn.update(float(v))
        assert dyn.best().name == "last_value"

    def test_forecast_delegates(self):
        dyn = DynamicForecaster([LastValue()])
        dyn.update(42.0)
        assert dyn.forecast() == 42.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DynamicForecaster([LastValue(), LastValue()])

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            DynamicForecaster([])

    def test_reset_clears_scores(self):
        dyn = DynamicForecaster([LastValue(), RunningMean()])
        for v in range(1, 101):  # a trend: last_value far ahead
            dyn.update(float(v))
        dyn.reset()
        assert dyn.forecast() is None
        fresh = DynamicForecaster([LastValue(), RunningMean()])
        for v in [10.0, 20.0, 10.0, 20.0]:  # running_mean ahead from scratch
            dyn.update(v)
            fresh.update(v)
        assert dyn.best().name == fresh.best().name == "running_mean"
        assert dyn.forecast() == fresh.forecast()
