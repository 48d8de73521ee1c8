"""The evaluate() facade: engine selection and cross-engine agreement."""

import numpy as np
import pytest

from repro.core import evaluate, fast_evaluate
from repro.core.engine import select_engine
from repro.core.evaluation import evaluate as generic_evaluate
from repro.core.predictors import ALL_PREDICTOR_NAMES, resolve_battery


# ----------------------------------------------------------------------
# select_engine
# ----------------------------------------------------------------------
def test_default_battery_is_vectorized():
    assert select_engine() == "fast"
    assert select_engine(None) == "fast"


def test_kernel_specs_go_fast_others_generic():
    assert select_engine(["C-AVG15", "AVG", "AR5d"]) == "fast"
    assert select_engine(["C-AVG15", "SIZE"]) == "generic"
    assert select_engine(["AVG7"]) == "generic"  # non-battery window


def test_comma_string_request():
    assert select_engine("C-AVG15, C-MED") == "fast"
    assert select_engine("C-AVG15, SIZE") == "generic"


def test_mapping_always_generic():
    assert select_engine(resolve_battery(["AVG"])) == "generic"


def test_fallback_forces_generic():
    assert select_engine(["C-AVG15"], fallback=True) == "generic"


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------
def test_facade_engines_agree(sample_records):
    specs = ["AVG", "C-AVG15", "LV", "C-MED5"]
    fast = fast_evaluate(sample_records, training=5)
    generic = generic_evaluate(
        sample_records, resolve_battery(specs), training=5)
    assert set(specs) == set(generic.traces) <= set(fast.traces)
    for name in specs:
        np.testing.assert_allclose(
            fast[name].predicted, generic[name].predicted, rtol=1e-7
        )
        assert fast[name].abstentions == generic[name].abstentions


def test_facade_subsets_the_fast_battery(sample_records):
    result = evaluate(sample_records, ["C-AVG15"], training=5)
    assert list(result.traces) == ["C-AVG15"]


def test_facade_default_is_full_battery(sample_records):
    result = evaluate(sample_records, training=5)
    assert set(result.traces) == set(ALL_PREDICTOR_NAMES)


def test_facade_accepts_comma_string(sample_records):
    result = evaluate(sample_records, "AVG, LV", training=5)
    assert list(result.traces) == ["AVG", "LV"]


def test_facade_accepts_prebuilt_mapping(sample_records):
    battery = resolve_battery(["AVG", "C-LV"])
    result = evaluate(sample_records, battery, training=5)
    assert set(result.traces) == {"AVG", "C-LV"}


def test_facade_mixed_specs_fall_back_to_generic(sample_records):
    result = evaluate(sample_records, ["C-AVG15", "SIZE"], training=5)
    assert set(result.traces) == {"C-AVG15", "SIZE"}
    assert result["SIZE"].predicted.size > 0


def test_facade_unknown_spec_raises(sample_records):
    with pytest.raises(KeyError):
        evaluate(sample_records, ["NOPE"], training=5)
