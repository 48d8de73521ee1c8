"""Seed-sweep aggregation (fast 3-day campaigns keep this quick)."""

import pytest

from repro.analysis.sweep import sweep_claims


@pytest.fixture(scope="module")
def sweep():
    # Short campaigns: enough records for the 15-value training prefix
    # and a meaningful walk, cheap enough for unit testing.
    return sweep_claims(seeds=(0, 1), days=7)


def test_one_claims_entry_per_seed_link(sweep):
    assert set(sweep.claims) == {
        (seed, link) for seed in (0, 1) for link in ("LBL-ANL", "ISI-ANL")
    }


def test_aggregate_has_all_metrics(sweep):
    aggregate = sweep.aggregate()
    assert "worst MAPE, >=100MB classes (%)" in aggregate
    assert "classification gain, large (pp)" in aggregate
    for mean, std in aggregate.values():
        assert mean == mean  # not NaN
        assert std >= 0


def test_metric_extraction(sweep):
    values = sweep.metric(lambda c: c.best_large_class_error)
    assert len(values) == 4
    assert (values > 0).all()


def test_empty_seeds_rejected():
    with pytest.raises(ValueError):
        sweep_claims(seeds=())
