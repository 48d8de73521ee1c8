"""Integration: logs -> predictors -> evaluation -> paper claims."""

import numpy as np
import pytest

from repro.analysis import (
    check_summary_claims,
    compute_class_errors,
    compute_classification_impact,
    compute_relative_table,
)
from repro.core import Classification, History, evaluate, paper_classification
from repro.core.predictors import (
    CLASSIFIED_PREDICTOR_NAMES,
    DynamicSelector,
    SizeScaledPredictor,
    classified_predictors,
    paper_predictors,
    resolve,
)
from repro.core.predictors.registry import PAPER_PREDICTOR_NAMES
from repro.logs import KeepAll, RunningWindow, TransferLog
from repro.units import DAY, MB


@pytest.fixture(scope="module")
def class_errors(august_outputs):
    return {
        link: compute_class_errors(link, output.log.records())
        for link, output in august_outputs.items()
    }


@pytest.fixture(scope="module")
def relative_tables(class_errors):
    """Figures 14-21: the tables ``repro report relative`` prints."""
    return {
        link: compute_relative_table(
            link, errors.result, predictor_names=CLASSIFIED_PREDICTOR_NAMES)
        for link, errors in class_errors.items()
    }


def battery_mape(result):
    """Mean overall MAPE of the classified battery in one evaluation."""
    table = result.mape_table()
    return float(np.mean(
        [table[n] for n in CLASSIFIED_PREDICTOR_NAMES if table[n] == table[n]]))


class TestSection62Claims:
    def test_all_claims_hold_both_links(self, class_errors):
        for link, errors in class_errors.items():
            claims = check_summary_claims(errors)
            assert claims.all_hold(), (link, claims)
            # Small files markedly harder, not only on the battery mean.
            classified = errors.classified
            assert classified["10MB"]["AVG"] > 1.5 * classified["1GB"]["AVG"], link

    def test_classified_errors_in_paper_band_for_large_classes(self, class_errors):
        """'Even simple techniques are at worst off by about 25%.'"""
        for errors in class_errors.values():
            for label in ("100MB", "500MB", "1GB"):
                for name in PAPER_PREDICTOR_NAMES:
                    assert errors.classified[label][name] < 55.0

    def test_classification_gain_in_5_to_10_percent_zone(self, class_errors):
        """Paper: 5-10% average improvement (large classes; small-class
        gains are far larger and excluded)."""
        gains = [
            compute_classification_impact(errors).mean_improvement(exclude_small=True)
            for errors in class_errors.values()
        ]
        assert all(g > 0 for g in gains)
        assert np.mean(gains) == pytest.approx(6.0, abs=5.0)

    def test_small_class_gain_dominates(self, class_errors):
        for errors in class_errors.values():
            impact = compute_classification_impact(errors)
            for name in ("AVG", "AVG15", "MED"):
                classes = impact.per_class[name]
                small_gain = classes["10MB"][1] - classes["10MB"][0]
                large_gain = classes["1GB"][1] - classes["1GB"][0]
                assert small_gain > large_gain, (errors.link, name)


class TestRelativePerformance:
    def test_every_class_has_competitions(self, relative_tables):
        cls = paper_classification()
        for link, table in relative_tables.items():
            for label in cls.labels:
                assert table.per_class[label].compared > 10, (link, label)

    def test_best_and_worst_spread_across_battery(self, relative_tables):
        """No single predictor dominates: the paper's 'improvement nullified'
        observation implies best% is spread around, in all eight tables."""
        for link, table in relative_tables.items():
            for label in paper_classification().labels:
                perf = table.per_class[label]
                names = table.predictor_names
                assert sum(map(perf.best_pct, names)) == pytest.approx(100.0)
                assert sum(map(perf.worst_pct, names)) == pytest.approx(100.0)
                top = max(perf.best_pct(n) for n in names)
                assert top < 80.0, (link, label)  # nobody wins everything

    def test_the_most_aggressive_member_also_loses_often(self, relative_tables):
        """'Predictors that had high best percentage also performed poorly
        more often' (C-LV), and 'median based vary more' (C-MED5 loses more
        often than C-MED25)."""
        for link, table in relative_tables.items():
            for label in paper_classification().labels:
                perf = table.per_class[label]
                top = max(perf.best_pct(n) for n in table.predictor_names)
                assert perf.best_pct("C-LV") == top, (link, label)
                assert perf.worst_pct("C-LV") >= 15.0, (link, label)
                assert perf.worst_pct("C-MED5") > perf.worst_pct("C-MED25"), (
                    link, label)


class TestDynamicSelection:
    def test_dynamic_selector_competitive_with_battery(self, august_outputs):
        """The NWS-style extension: dynamic selection should land near the
        best fixed member, and never catastrophically off."""
        records = august_outputs["LBL-ANL"].log.records()
        members = {
            name: predictor
            for name, predictor in paper_predictors().items()
            if name in ("AVG", "AVG5", "AVG15", "MED15", "LV")
        }
        battery = dict(members)
        battery["DYN"] = DynamicSelector(list(members.values()))
        result = evaluate(records, battery)
        table = result.mape_table()
        best_member = min(table[n] for n in members)
        worst_member = max(table[n] for n in members)
        assert table["DYN"] <= worst_member
        assert table["DYN"] <= best_member * 1.5


class TestTrainingPrefix:
    def test_varying_training_prefix(self, august_outputs):
        records = august_outputs["ISI-ANL"].log.records()
        short = evaluate(records, {"AVG15": paper_predictors()["AVG15"]}, training=5)
        default = evaluate(records, {"AVG15": paper_predictors()["AVG15"]}, training=15)
        assert len(short["AVG15"]) == len(default["AVG15"]) + 10

    def test_classified_battery_abstains_early_not_late(self, august_outputs):
        records = august_outputs["ISI-ANL"].log.records()
        result = evaluate(records, classified_predictors())
        # With ~450 mixed-size records, every class fills up quickly:
        # abstentions happen, but only on a small fraction of predictions.
        for name, trace in result.traces.items():
            total = len(trace) + trace.abstentions
            assert trace.abstentions <= total * 0.2, name

    def test_fifteen_value_prefix_is_not_load_bearing(self, august_outputs):
        """Section 6.1's 15-value prefix: accuracy is flat in it, and a
        shorter prefix abstains at least as often."""
        records = august_outputs["ISI-ANL"].log.records()
        mape, abstained = {}, {}
        for training in (1, 15, 100):
            result = compute_class_errors("ISI-ANL", records, training=training).result
            mape[training] = battery_mape(result)
            abstained[training] = sum(
                result[n].abstentions for n in CLASSIFIED_PREDICTOR_NAMES)
        assert abs(mape[15] - mape[100]) < 10.0
        assert abstained[1] >= abstained[100]


class TestClassEdges:
    def test_partition_granularity_matters(self, august_outputs):
        """Section 4.3's edges 'apply to the set of hosts for our testbed
        only': here the paper's 4 classes beat coarser partitions, and a
        finer one beats them (the 0-50 MB class mixes 1 MB and 25 MB)."""
        frame = august_outputs["LBL-ANL"].log.to_frame()

        def mape(edges, labels):
            classification = Classification(
                edges=tuple(e * MB for e in edges), labels=labels)
            return battery_mape(compute_class_errors(
                "LBL-ANL", frame, classification=classification).result)

        paper = mape((50, 250, 750), ("10MB", "100MB", "500MB", "1GB"))
        assert paper < mape((250,), ("small", "large"))
        assert paper < mape((100, 500), ("s", "m", "l"))
        assert mape((10, 50, 150, 400, 750), tuple("abcdef")) < paper


class TestSizeModel:
    def test_continuous_model_rescues_the_small_class(self, august_outputs):
        """``bw = R*S/(S+S0)`` halves binning's 10 MB-class error and stays
        close on the large classes."""
        records = august_outputs["LBL-ANL"].log.records()
        result = evaluate(records, {"SIZE": SizeScaledPredictor(),
                                    "C-AVG15": resolve("C-AVG15")})
        cls = paper_classification()

        def mape(name, label):
            trace = result[name]
            return trace.mean_abs_pct_error(trace.class_mask(cls, label))

        assert mape("SIZE", "10MB") < mape("C-AVG15", "10MB") / 2
        for label in ("100MB", "500MB", "1GB"):
            assert mape("SIZE", label) < mape("C-AVG15", label) + 10.0
        assert (result["SIZE"].mean_abs_pct_error()
                < result["C-AVG15"].mean_abs_pct_error())


class TestLogWindow:
    def test_a_running_window_keeps_keep_all_accuracy(self, august_outputs):
        """Section 3: 'old data has less relevance to predictions, we can
        trim logs based on a running window'.  AVG15 predicts each
        transfer from what the policy retained."""
        records = august_outputs["LBL-ANL"].log.records()
        predictor = resolve("AVG15")

        def replay(policy):
            log, errors = TransferLog(trim=policy), []
            for record in records:
                retained = log.records()
                if len(retained) >= 15:
                    predicted = predictor.predict(
                        History.from_records(retained),
                        target_size=record.file_size, now=record.start_time)
                    if predicted is not None:
                        errors.append(
                            abs(record.bandwidth - predicted) / record.bandwidth)
                log.append(record)
            return 100.0 * float(np.mean(errors)), len(log)

        keep_all, keep_all_size = replay(KeepAll())
        week, week_size = replay(RunningWindow(7 * DAY))
        assert week <= keep_all + 5.0
        assert week_size < keep_all_size
        assert replay(RunningWindow(0.5 * DAY))[0] < 3 * keep_all
