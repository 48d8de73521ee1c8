"""Section 6.2 claim: AR models are "significantly more expensive" yet no
more accurate than the simple techniques.

Two timed groups compare one prediction with AR vs the windowed mean on
the same 450-record history; the accuracy half of the claim is asserted
from the walk-forward tables (as tier-1's Section 6.2 claims test does).
"""

import pytest

from artifacts import record
from repro.core import History
from repro.core.predictors import ArModel, WindowedAverage


@pytest.fixture(scope="module")
def history(august):
    return History.from_records(august["LBL-ANL"].log.records())


@pytest.mark.benchmark(group="claim-ar-cost")
def test_ar_prediction_cost(benchmark, history, august_errors):
    predictor = ArModel()
    now = float(history.times[-1]) + 60.0
    result = benchmark(lambda: predictor.predict(history, now=now))
    assert result is not None
    record(
        "ar_cost",
        "one AR prediction on a 450-record history (paper: 'significantly "
        "more expensive' than simple techniques)",
        measured=benchmark.stats["mean"], floor=None,
        unit="seconds", higher_is_better=False,
    )

    # The accuracy half of the claim: AR stays on par with (never clearly
    # ahead of) the simple techniques despite the extra cost.
    for link, errors in august_errors.items():
        for label in ("100MB", "500MB", "1GB"):
            table = errors.classified[label]
            ar = min(table["AR"], table["AR5d"], table["AR10d"])
            simple = min(table["AVG"], table["AVG15"], table["MED"])
            assert ar >= simple - 5.0, (link, label)


@pytest.mark.benchmark(group="claim-ar-cost")
def test_windowed_mean_prediction_cost(benchmark, history):
    predictor = WindowedAverage(15)
    now = float(history.times[-1]) + 60.0
    result = benchmark(lambda: predictor.predict(history, now=now))
    assert result is not None
