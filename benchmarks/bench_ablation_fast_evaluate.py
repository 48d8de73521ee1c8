"""Ablation: vectorized vs generic evaluation.

Parameter sweeps (seeds x months x class partitions) re-run the
30-predictor walk-forward evaluation many times; the vectorized
evaluator computes the same traces with NumPy kernels (parity asserted
in the test suite).  This benchmark measures the speedup on one real
campaign log.
"""

import pytest

from repro.core.evaluation import evaluate as generic_evaluate
from repro.core.fast import fast_evaluate
from repro.core.predictors import ALL_PREDICTOR_NAMES, resolve_battery


@pytest.mark.benchmark(group="ablation-fast-evaluate")
def test_generic_evaluator(benchmark, august):
    records = august["LBL-ANL"].log.records()
    battery = resolve_battery(ALL_PREDICTOR_NAMES)
    result = benchmark.pedantic(
        lambda: generic_evaluate(records, battery), rounds=3, iterations=1
    )
    assert len(result.names()) == 30


@pytest.mark.benchmark(group="ablation-fast-evaluate")
def test_vectorized_evaluator(benchmark, august):
    records = august["LBL-ANL"].log.records()
    result = benchmark(lambda: fast_evaluate(records))
    assert len(result.names()) == 30
