"""Integration: the Figures 1-2 contrast on regenerated data."""

import numpy as np
import pytest

from repro.analysis import compare_probe_vs_gridftp, render_nws_comparison
from repro.core import evaluate, paper_classification
from repro.core.predictors import ClassifiedPredictor, HybridPredictor, resolve
from repro.nws import DynamicForecaster, standard_battery


@pytest.fixture(scope="module")
def comparisons(august_with_nws):
    return {
        link: compare_probe_vs_gridftp(output)
        for link, output in august_with_nws.items()
    }


class TestProbeCounts:
    def test_probe_count_scale(self, august_with_nws):
        """Paper: ~1,500 probes per figure axis at 5-minute spacing over the
        plotted stretch; our full fortnight at 5 minutes gives ~4,000."""
        for output in august_with_nws.values():
            assert 3500 <= len(output.probes) <= 4500

    def test_gridftp_count_scale(self, august_with_nws):
        for output in august_with_nws.values():
            assert 330 <= len(output.log.records()) <= 560


class TestFigure12Claims:
    def test_probes_below_03_mbps(self, comparisons):
        """'The NWS measurements indicate network bandwidth to be less than
        0.3 MB/sec.'"""
        for comparison in comparisons.values():
            assert comparison.probes.maximum < 0.3e6

    def test_gridftp_order_of_magnitude_higher(self, comparisons):
        for comparison in comparisons.values():
            assert comparison.mean_ratio > 10.0

    def test_gridftp_much_more_variable(self, comparisons):
        """'Considerably greater variability in the GridFTP measurements.'"""
        for comparison in comparisons.values():
            assert comparison.variability_ratio > 2.0

    def test_gridftp_spread_matches_paper_scale(self, comparisons):
        """Paper: 1.5 to 10.2 MB/s across both links."""
        for comparison in comparisons.values():
            assert comparison.gridftp.minimum < 3e6
            assert comparison.gridftp.maximum > 8e6


class TestScalingIsNotEnough:
    def test_no_constant_scaling_fixes_probes(self, august_with_nws):
        """'Simple data transformations will not improve its predictive
        merits': the best constant multiplier still leaves large error."""
        for output in august_with_nws.values():
            records = output.log.records()
            probes = output.probes
            pairs = []
            for record in records:
                p = probes.value_at(record.start_time)
                if p:
                    pairs.append((record.bandwidth, p))
            bw = np.array([b for b, _ in pairs])
            pv = np.array([p for _, p in pairs])
            scale = float(np.median(bw / pv))
            residual = np.abs(bw - scale * pv) / bw
            assert residual.mean() > 0.2  # >20% error even after rescaling


class TestSection7Extensions:
    def test_dynamic_forecaster_tracks_the_best_member(self, august_with_nws):
        """The NWS's own dynamic selection, on its probe series."""
        values = august_with_nws["LBL-ANL"].probes.values

        def one_step_mape(forecaster):
            errors = []
            for value in values:
                forecast = forecaster.forecast()
                if forecast is not None:
                    errors.append(abs(value - forecast) / value)
                forecaster.update(float(value))
            return 100.0 * float(np.mean(errors))

        members = [one_step_mape(f) for f in standard_battery()]
        dynamic = one_step_mape(DynamicForecaster(standard_battery()))
        assert dynamic <= min(members) * 1.25
        assert dynamic < max(members)
        assert min(members) < 10.0  # probes are far smoother than GridFTP

    def test_class_aware_hybrid_rescues_the_probe_signal(self, august_with_nws):
        """'Basic predictions on the sporadic data combined with more
        regular NWS measurements': the probe scaled by a per-class learned
        GridFTP/probe ratio."""
        output = august_with_nws["LBL-ANL"]
        records = output.log.records()
        cls = paper_classification()
        hybrid = ClassifiedPredictor(
            HybridPredictor(output.probes, window=25, max_probe_age=3600.0), cls)
        result = evaluate(records, {"C-AVG15": resolve("C-AVG15"),
                                    "C-HYBRID": hybrid})
        raw = [abs(r.bandwidth - p) / r.bandwidth * 100 for r in records
               if (p := output.probes.value_at(r.start_time))]
        raw_mape = float(np.mean(raw))
        assert raw_mape > 90.0  # probes alone are hopeless as predictions
        for label in ("100MB", "500MB", "1GB"):
            mape = {name: trace.mean_abs_pct_error(trace.class_mask(cls, label))
                    for name, trace in result.traces.items()}
            assert mape["C-HYBRID"] < raw_mape / 2, label
            assert mape["C-HYBRID"] < 2.0 * mape["C-AVG15"], label
        assert result["C-HYBRID"].abstentions < len(records) * 0.5


def test_render_smoke(comparisons):
    for comparison in comparisons.values():
        text = render_nws_comparison(comparison)
        assert "GridFTP" in text and "NWS probe" in text
