"""TimeSeries: append, windows, statistics."""

import pytest

from repro.nws import TimeSeries


@pytest.fixture
def series():
    s = TimeSeries()
    for t, v in [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0)]:
        s.append(t, v)
    return s


class TestAppend:
    def test_length_and_iteration(self, series):
        assert len(series) == 4
        assert list(series) == [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0)]

    def test_time_must_not_decrease(self, series):
        with pytest.raises(ValueError):
            series.append(25.0, 1.0)

    def test_equal_times_allowed(self, series):
        series.append(30.0, 50.0)
        assert len(series) == 5

    def test_growth_beyond_initial_capacity(self):
        s = TimeSeries()
        for i in range(100):
            s.append(float(i), float(i))
        assert len(s) == 100
        assert s.values[99] == 99.0


class TestViews:
    def test_views_read_only(self, series):
        with pytest.raises(ValueError):
            series.times[0] = 99.0

    def test_last(self, series):
        assert series.last() == (30.0, 40.0)
        assert TimeSeries().last() is None

    def test_since(self, series):
        assert list(series.since(10.0)) == [20.0, 30.0, 40.0]
        assert list(series.since(100.0)) == []

    def test_value_at(self, series):
        assert series.value_at(15.0) == 20.0
        assert series.value_at(10.0) == 20.0
        assert series.value_at(-5.0) is None
        assert series.value_at(1000.0) == 40.0


class TestStats:
    def test_mean_median(self, series):
        assert series.mean() == pytest.approx(25.0)
        assert series.median() == pytest.approx(25.0)

    def test_empty_stats_raise(self):
        empty = TimeSeries()
        for method in (empty.mean, empty.median):
            with pytest.raises(ValueError):
                method()
