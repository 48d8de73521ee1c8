"""Best/worst relative performance."""

import numpy as np

from repro.core import paper_classification
from repro.core.evaluation import EvaluationResult, PredictionTrace
from repro.core.relative import relative_performance
from repro.units import MB


def trace(name, indices, predicted, actual, sizes=None):
    n = len(indices)
    return PredictionTrace(
        name=name,
        indices=np.asarray(indices),
        predicted=np.asarray(predicted, dtype=float),
        actual=np.asarray(actual, dtype=float),
        sizes=np.asarray(sizes if sizes is not None else [100 * MB] * n),
        times=np.arange(n, dtype=float),
        abstentions=0,
    )


def result_of(*traces):
    return EvaluationResult(
        traces={t.name: t for t in traces}, training=15, n_records=100
    )


def test_best_and_worst_tallied():
    # "good" is exact on both transfers; "bad" is off by 50% on both.
    res = result_of(
        trace("good", [15, 16], [10, 10], [10, 10]),
        trace("bad", [15, 16], [5, 5], [10, 10]),
    )
    perf = relative_performance(res)
    assert perf.compared == 2
    assert perf.best_pct("good") == 100.0
    assert perf.worst_pct("bad") == 100.0
    assert perf.worst_pct("good") == 0.0


def test_mixed_outcomes():
    res = result_of(
        trace("a", [15, 16], [10, 2], [10, 10]),  # exact, then terrible
        trace("b", [15, 16], [8, 9], [10, 10]),   # mediocre, then best
    )
    perf = relative_performance(res)
    assert perf.best_pct("a") == 50.0
    assert perf.worst_pct("a") == 50.0
    assert perf.best_pct("b") == 50.0


def test_abstainer_does_not_compete():
    res = result_of(
        trace("present", [15, 16], [10, 10], [10, 10]),
        trace("partial", [15], [1], [10]),  # abstained on index 16
    )
    perf = relative_performance(res)
    # Index 16 has one competitor -> not compared.
    assert perf.compared == 1
    assert perf.worst_pct("partial") == 100.0


def test_single_competitor_transfers_excluded():
    res = result_of(trace("only", [15], [1], [10]))
    perf = relative_performance(res)
    assert perf.compared == 0
    assert np.isnan(perf.best_pct("only"))


def test_tie_goes_to_battery_order():
    res = result_of(
        trace("first", [15], [9], [10]),
        trace("second", [15], [11], [10]),  # same 10% error
    )
    perf = relative_performance(res)
    assert perf.best_counts["first"] == 1
    assert perf.best_counts["second"] == 0


def test_class_restriction():
    cls = paper_classification()
    res = result_of(
        trace("a", [15, 16], [10, 2], [10, 10], sizes=[10 * MB, 900 * MB]),
        trace("b", [15, 16], [8, 9], [10, 10], sizes=[10 * MB, 900 * MB]),
    )
    small = relative_performance(res, cls, "10MB")
    assert small.compared == 1
    assert small.best_pct("a") == 100.0
    large = relative_performance(res, cls, "1GB")
    assert large.best_pct("b") == 100.0
