"""Walk-forward evaluation."""

import numpy as np
import pytest

from repro.core import History, evaluate
from repro.core.evaluation import PredictionTrace
from repro.core.predictors import LastValue, TotalAverage, classified_predictors
from repro.units import MB
from tests.conftest import make_record


class TestTrace:
    def make_trace(self):
        return PredictionTrace(
            name="t",
            indices=np.array([15, 16, 17]),
            predicted=np.array([1.0, 2.0, 3.0]),
            actual=np.array([2.0, 2.0, 2.0]),
            sizes=np.array([10 * MB, 100 * MB, 900 * MB]),
            times=np.array([1.0, 2.0, 3.0]),
            abstentions=1,
        )

    def test_pct_errors(self):
        trace = self.make_trace()
        assert list(trace.pct_errors) == pytest.approx([50.0, 0.0, 50.0])

    def test_mape_with_mask(self, classification):
        trace = self.make_trace()
        mask = trace.class_mask(classification, "1GB")
        assert trace.mean_abs_pct_error(mask) == pytest.approx(50.0)

    def test_empty_mask_gives_nan(self, classification):
        trace = self.make_trace()
        mask = trace.class_mask(classification, "500MB")
        assert np.isnan(trace.mean_abs_pct_error(mask))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PredictionTrace(
                name="bad",
                indices=np.array([1]),
                predicted=np.array([1.0, 2.0]),
                actual=np.array([1.0]),
                sizes=np.array([1]),
                times=np.array([1.0]),
                abstentions=0,
            )


class TestEvaluate:
    def test_training_prefix_is_skipped(self, sample_records):
        result = evaluate(sample_records, {"AVG": TotalAverage()}, training=15)
        trace = result["AVG"]
        assert len(trace) == len(sample_records) - 15
        assert trace.indices[0] == 15

    def test_predictions_use_only_prior_history(self, sample_records):
        """LV's prediction for record i equals record i-1's bandwidth."""
        result = evaluate(sample_records, {"LV": LastValue()}, training=15)
        trace = result["LV"]
        for idx, predicted in zip(trace.indices, trace.predicted):
            assert predicted == pytest.approx(sample_records[idx - 1].bandwidth)

    def test_actual_matches_records(self, sample_records):
        result = evaluate(sample_records, {"AVG": TotalAverage()}, training=15)
        trace = result["AVG"]
        for idx, actual in zip(trace.indices, trace.actual):
            assert actual == pytest.approx(sample_records[idx].bandwidth)

    def test_anchor_is_start_time(self, sample_records):
        result = evaluate(sample_records, {"AVG": TotalAverage()}, training=15)
        trace = result["AVG"]
        assert trace.times[0] == sample_records[15].start_time

    def test_abstentions_counted(self):
        records = [
            make_record(start=1000.0 * i, size=900 * MB) for i in range(1, 18)
        ]
        battery = classified_predictors()
        result = evaluate(records, {"C-AVG": battery["C-AVG"]}, training=15)
        # All history is 1GB-class, targets are 1GB-class: no abstentions.
        assert result["C-AVG"].abstentions == 0

        mixed = records[:15] + [make_record(start=100_000.0, size=10 * MB)]
        result = evaluate(mixed, {"C-AVG": classified_predictors()["C-AVG"]},
                          training=15)
        # Target is 10MB-class but history has no 10MB transfers: abstain.
        assert result["C-AVG"].abstentions == 1
        assert len(result["C-AVG"]) == 0

    def test_accepts_bare_history(self):
        h = History(
            times=np.arange(20, dtype=float),
            values=np.linspace(1, 2, 20),
            sizes=np.full(20, 100),
        )
        result = evaluate(h, {"LV": LastValue()}, training=15)
        assert len(result["LV"]) == 5

    def test_mape_table_and_by_class(self, sample_records, classification):
        result = evaluate(
            sample_records,
            {"AVG": TotalAverage(), "LV": LastValue()},
            training=15,
        )
        table = result.mape_table()
        assert set(table) == {"AVG", "LV"}
        for label in classification.labels:
            assert set(result.mape_table(classification, label)) == {"AVG", "LV"}

    def test_validation(self, sample_records):
        with pytest.raises(ValueError):
            evaluate(sample_records, {}, training=15)
        with pytest.raises(ValueError):
            evaluate(sample_records, {"AVG": TotalAverage()}, training=0)
