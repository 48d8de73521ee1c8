"""Background-load processes."""

import numpy as np
import pytest

from repro.net.load import (
    AR1_DT,
    AR1_PHI,
    BURST_MAGNITUDE,
    LOAD_CEILING,
    LOAD_FLOOR,
    Ar1Load,
    BurstLoad,
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    standard_link_load,
)
from repro.units import DAY, HOUR


class TestDiurnal:
    def test_peaks_at_peak_hour(self):
        load = DiurnalLoad(mean=0.5, amplitude=0.2, peak_hour=14.0)
        assert load.utilization(14 * HOUR) == pytest.approx(0.7)
        assert load.utilization(2 * HOUR) == pytest.approx(0.3)  # trough 12h later

    def test_period_is_24h(self):
        load = DiurnalLoad()
        assert load.utilization(5 * HOUR) == pytest.approx(load.utilization(5 * HOUR + DAY))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            DiurnalLoad(amplitude=-0.1)


class TestAr1:
    def make(self, **kw):
        rng = np.random.default_rng(0)
        return Ar1Load(rng, t0=0.0, **kw)

    def test_queries_are_consistent(self):
        load = self.make()
        first = load.utilization(500.0)
        load.utilization(10_000.0)  # extend far forward
        assert load.utilization(500.0) == first

    def test_interpolation_between_grid_points(self):
        load = self.make()
        a, b = load.utilization(0.0), load.utilization(60.0)
        mid = load.utilization(30.0)
        assert min(a, b) <= mid <= max(a, b)

    def test_before_t0_is_zero(self):
        assert self.make().utilization(-10.0) == 0.0

    def test_parameters_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Ar1Load(rng, t0=0.0, sigma=-1)

    def test_stationary_scale(self):
        """Long-run std approximates sigma/sqrt(1-phi^2)."""
        load = self.make(sigma=0.05)
        values = np.array([load.utilization(AR1_DT * t) for t in range(20_000)])
        expected = 0.05 / np.sqrt(1 - AR1_PHI ** 2)
        assert values.std() == pytest.approx(expected, rel=0.2)


class TestBurst:
    def make(self, **kw):
        return BurstLoad(np.random.default_rng(1), t0=0.0, **kw)

    def test_mostly_zero_with_rare_bursts(self):
        load = self.make(mean_interarrival=4 * HOUR)
        values = [load.utilization(float(t)) for t in range(0, int(14 * DAY), 300)]
        zero_fraction = sum(1 for v in values if v == 0.0) / len(values)
        assert zero_fraction > 0.5
        assert max(values) > 0.0

    def test_burst_magnitude_bounds_single(self):
        load = self.make(mean_interarrival=DAY * 10)
        values = [load.utilization(float(t)) for t in range(0, int(30 * DAY), 60)]
        positive = [v for v in values if v > 0]
        assert positive, "expected at least one burst in 30 days"
        # One burst stays within [min, max]; two overlapping ones, 2 * max.
        low, high = BURST_MAGNITUDE
        assert all(low <= v <= 2 * high + 1e-4 for v in positive)

    def test_consistency_across_query_order(self):
        load = self.make()
        far = load.utilization(5 * DAY)
        near = load.utilization(1 * DAY)
        assert load.utilization(5 * DAY) == far
        assert load.utilization(1 * DAY) == near

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            self.make(mean_interarrival=0)


class TestComposite:
    def test_clamps_to_bounds(self):
        load = CompositeLoad(ConstantLoad(2.0))
        assert load.utilization(0.0) == LOAD_CEILING == 0.97
        low = CompositeLoad(ConstantLoad(-1.0))
        assert low.utilization(0.0) == LOAD_FLOOR == 0.02

    def test_sums_components(self):
        load = CompositeLoad(ConstantLoad(0.3), ConstantLoad(0.2))
        assert load.utilization(0.0) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeLoad()


class TestStandardLoad:
    def test_stays_in_unit_interval(self):
        load = standard_link_load(np.random.default_rng(2), t0=0.0)
        values = [load.utilization(float(t)) for t in range(0, int(3 * DAY), 120)]
        assert all(0.0 <= v <= 0.97 for v in values)

    def test_exhibits_diurnal_structure(self):
        load = standard_link_load(np.random.default_rng(3), t0=0.0, mean=0.5)
        # Average at peak hours vs trough hours over two weeks.
        peak, trough = [], []
        for day in range(14):
            peak.append(load.utilization(day * DAY + 14 * HOUR))
            trough.append(load.utilization(day * DAY + 2 * HOUR))
        assert np.mean(peak) > np.mean(trough)
