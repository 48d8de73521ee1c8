"""The resolve() spec-string API."""

import pytest

from repro.core.classification import Classification
from repro.core.predictors import (
    ALL_PREDICTOR_NAMES,
    CLASSIFIED_PREDICTOR_NAMES,
    KERNEL_SPECS,
    PAPER_PREDICTOR_NAMES,
    ClassifiedPredictor,
    resolve,
    resolve_battery,
)
from repro.core.predictors.size_model import SizeScaledPredictor
from repro.units import MB


def test_resolve_every_battery_name():
    for name in ALL_PREDICTOR_NAMES:
        predictor = resolve(name)
        assert predictor.name == name


def test_resolve_classified_wraps_base():
    predictor = resolve("C-AVG15")
    assert isinstance(predictor, ClassifiedPredictor)
    assert predictor.base.name == "AVG15"


def test_resolve_size_extension():
    assert isinstance(resolve("SIZE"), SizeScaledPredictor)
    assert isinstance(resolve("C-SIZE"), ClassifiedPredictor)


def test_resolve_free_window_parameters():
    assert resolve("AVG7").name == "AVG7"
    assert resolve("MED9").name == "MED9"
    assert resolve("AVG3hr").name == "AVG3hr"
    assert resolve("AR2d").name == "AR2d"


def test_resolve_strips_whitespace():
    assert resolve("  AVG15 ").name == "AVG15"


@pytest.mark.parametrize("bad", ["NOPE", "C-NOPE", "", "  ", None, 42])
def test_resolve_rejects_unknown_specs(bad):
    with pytest.raises(KeyError):
        resolve(bad)


def test_resolve_returns_fresh_instances():
    assert resolve("AVG") is not resolve("AVG")


def test_resolve_honors_classification_and_fallback():
    cls = Classification(edges=(50 * MB,), labels=("small", "large"))
    predictor = resolve("C-LV", classification=cls, fallback=True)
    assert predictor.classification is cls
    assert predictor.fallback is True


def test_resolve_battery_preserves_order_and_names():
    battery = resolve_battery(["C-MED", "AVG5", "SIZE"])
    assert list(battery) == ["C-MED", "AVG5", "SIZE"]
    assert battery["C-MED"].name == "C-MED"


def test_kernel_specs_are_exactly_the_battery():
    assert KERNEL_SPECS == frozenset(PAPER_PREDICTOR_NAMES) | frozenset(
        CLASSIFIED_PREDICTOR_NAMES
    )
    assert "SIZE" not in KERNEL_SPECS
