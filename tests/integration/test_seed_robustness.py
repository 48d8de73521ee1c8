"""Seed robustness: the Section 6.2 claims are not a lucky draw.

The reference seed (1) is used everywhere; this sweep re-derives the
claims on additional seeds and both months, through one
:func:`~repro.analysis.sweep.sweep_claims` run per month.  Marked slow
(runs several full campaigns).
"""

import pytest

from repro.analysis.sweep import sweep_claims
from repro.workload import AUG_2001, DEC_2001, run_month

SEEDS = (0, 2, 3)
MONTHS = {"aug": AUG_2001, "dec": DEC_2001}


@pytest.fixture(scope="module")
def sweeps():
    return {month: sweep_claims(seeds=SEEDS, start_epoch=start)
            for month, start in MONTHS.items()}


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("month", MONTHS)
def test_claims_hold_across_seeds_and_months(sweeps, seed, month):
    for (at, link), claims in sweeps[month].claims.items():
        if at == seed:
            assert claims.all_hold(), (seed, month, link, claims)


@pytest.mark.slow
@pytest.mark.parametrize("month", MONTHS)
def test_headline_bands_hold_on_average(sweeps, month):
    """The headline metrics' bands, averaged over the seeds and links."""
    result = sweeps[month]
    assert result.all_hold()
    aggregate = {name: mean for name, (mean, _) in result.aggregate().items()}
    worst = aggregate["worst MAPE, >=100MB classes (%)"]
    assert worst < 40.0
    assert 0.0 < aggregate["classification gain, large (pp)"] < 15.0
    assert aggregate["10MB-class mean MAPE (%)"] > 2 * worst
    assert aggregate["AR minus simple (pp)"] > -3.0


@pytest.mark.slow
def test_census_scale_stable_across_seeds():
    for seed in SEEDS:
        outputs = run_month(seed=seed)
        for link, output in outputs.items():
            assert 330 <= len(output.log.records()) <= 560, (seed, link)
