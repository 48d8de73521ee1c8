"""Dynamic (NWS-style) predictor selection."""

import numpy as np
import pytest

from repro.core import History
from repro.core.predictors import DynamicSelector, LastValue, TotalAverage
from repro.core.predictors.base import PredictorError
from tests.unit.test_predictors_mean import hist


def test_picks_the_member_that_tracks_the_series():
    # Trending series: LV's one-step error is constant 1, AVG's grows.
    values = list(range(1, 40))
    dyn = DynamicSelector([TotalAverage(), LastValue()])
    h = hist([float(v) for v in values])
    predicted = dyn.predict(h, target_size=100, now=float(len(values)))
    assert dyn.best_member(h).name == "LV"
    assert predicted == pytest.approx(39.0)


def test_picks_stable_member_on_alternating_series():
    values = [10.0, 20.0] * 20
    dyn = DynamicSelector([LastValue(), TotalAverage()])
    h = hist(values)
    assert dyn.best_member(h).name == "AVG"


def test_warmup_uses_first_member():
    dyn = DynamicSelector([TotalAverage(), LastValue()])
    h = hist([1.0, 2.0, 3.0])
    assert dyn.best_member(h).name == "AVG"


def test_incremental_scoring_matches_fresh_selector():
    """Growing-prefix memoization must not change the answer."""
    values = [float(v) for v in np.random.default_rng(0).uniform(1, 10, 40)]
    h = hist(values)

    incremental = DynamicSelector([TotalAverage(), LastValue()])
    for i in range(5, len(values)):
        incremental.predict(h.prefix(i), target_size=100, now=float(i))

    fresh = DynamicSelector([TotalAverage(), LastValue()])
    a = incremental.predict(h, target_size=100, now=float(len(values)))
    b = fresh.predict(h, target_size=100, now=float(len(values)))
    assert a == pytest.approx(b)
    assert incremental.mape_table() == pytest.approx(fresh.mape_table())


def test_new_log_resets_cache():
    dyn = DynamicSelector([TotalAverage(), LastValue()])
    dyn.predict(hist([1.0, 2.0, 3.0, 4.0]), target_size=1, now=5.0)
    first_table = dict(dyn.mape_table())
    # A different log (different first observation) resets scoring.
    other = hist([100.0, 90.0, 80.0])
    dyn.predict(other, target_size=1, now=5.0)
    assert dyn.mape_table() != first_table


def test_empty_history_abstains():
    dyn = DynamicSelector([TotalAverage()])
    assert dyn.predict(History.empty(), target_size=1, now=0.0) is None


@pytest.mark.parametrize("ctor", [
    lambda: DynamicSelector([]),
    lambda: DynamicSelector([TotalAverage(), TotalAverage()]),
])
def test_validation(ctor):
    with pytest.raises(PredictorError):
        ctor()
