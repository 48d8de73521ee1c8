"""The Figure 4 registry."""

from repro.core import History
from repro.core.predictors import (
    PAPER_PREDICTOR_NAMES,
    ArModel,
    ClassifiedPredictor,
    LastValue,
    TemporalAverage,
    TotalAverage,
    TotalMedian,
    WindowedAverage,
    WindowedMedian,
    classified_predictors,
    paper_predictors,
)


def test_exactly_fifteen_predictors():
    assert len(PAPER_PREDICTOR_NAMES) == 15
    assert len(paper_predictors()) == 15


def test_names_match_figure4():
    assert set(PAPER_PREDICTOR_NAMES) == {
        "AVG", "LV", "AVG5", "AVG15", "AVG25",
        "MED", "MED5", "MED15", "MED25",
        "AVG5hr", "AVG15hr", "AVG25hr",
        "AR", "AR5d", "AR10d",
    }


def test_types_match_figure4_cells():
    built = paper_predictors()
    assert isinstance(built["AVG"], TotalAverage)
    assert isinstance(built["LV"], LastValue)
    assert isinstance(built["AVG5"], WindowedAverage) and built["AVG5"].window == 5
    assert isinstance(built["MED"], TotalMedian)
    assert isinstance(built["MED25"], WindowedMedian) and built["MED25"].window == 25
    assert isinstance(built["AVG15hr"], TemporalAverage) and built["AVG15hr"].hours == 15
    assert isinstance(built["AR"], ArModel) and built["AR"].window_days is None
    assert isinstance(built["AR10d"], ArModel) and built["AR10d"].window_days == 10


def test_every_predictor_reports_its_registry_name():
    for name, predictor in paper_predictors().items():
        assert predictor.name == name


def test_classified_battery_is_parallel():
    classified = classified_predictors()
    assert len(classified) == 15
    for name in PAPER_PREDICTOR_NAMES:
        wrapped = classified[f"C-{name}"]
        assert isinstance(wrapped, ClassifiedPredictor)
        assert wrapped.base.name == name


def test_total_battery_is_thirty():
    """The paper's headline: 30 predictors."""
    battery = {**paper_predictors(), **classified_predictors()}
    assert len(battery) == 30


def test_every_predictor_answers_on_a_campaign_log(august_outputs):
    """Every cell of the grid predicts from a real ~450-record history."""
    history = History.from_records(august_outputs["LBL-ANL"].log.records())
    now = float(history.times[-1]) + 60.0
    for name, predictor in paper_predictors().items():
        predicted = predictor.predict(history, target_size=500_000_000, now=now)
        assert predicted is not None and predicted > 0, name


def test_registry_builds_fresh_instances():
    assert paper_predictors()["AVG"] is not paper_predictors()["AVG"]
