"""Property tests: the streaming bank answers like the batch kernels.

Covers the :class:`~repro.core.streaming.StreamingBank` behind the
serving fast path: on fuzzed histories — duplicate end timestamps,
single-class logs, out-of-order arrivals — the bank's answers must match
the vectorized kernels of :mod:`repro.core.fast` at every prefix, at the
kernel parity tolerances, and a rebuilt bank must answer like a folded
one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fast_evaluate
from repro.core.classification import paper_classification
from repro.core.history import History
from repro.core.predictors import ALL_PREDICTOR_NAMES
from repro.core.predictors.registry import resolve
from repro.core.streaming import StreamingBank
from repro.units import GB, HOUR, MB


@st.composite
def fuzzed_histories(draw, min_size=2, max_size=40):
    """Histories with the corners the serving path must survive:
    duplicate end timestamps (zero gaps), wild value scales, and
    optionally a single size class for every record."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    gaps = draw(st.lists(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=10 * HOUR, allow_nan=False)),
        min_size=n, max_size=n,
    ))
    times = np.cumsum(gaps) + 1e9
    values = np.array(draw(st.lists(
        st.floats(min_value=1e3, max_value=1e8, allow_nan=False),
        min_size=n, max_size=n,
    )))
    if draw(st.booleans()):  # single-class log
        sizes = np.full(n, draw(st.integers(min_value=1 * MB, max_value=2 * GB)))
    else:
        sizes = np.array(draw(st.lists(
            st.integers(min_value=1 * MB, max_value=2 * GB),
            min_size=n, max_size=n,
        )))
    return History(times=times, values=values, sizes=sizes)


def _kernel_answers(history, training):
    """index -> value (None = abstained) per spec, from the fast kernels."""
    result = fast_evaluate(history, training=training)
    out = {}
    for name in result.names():
        trace = result[name]
        answers = {i: None for i in range(training, len(history))}
        answers.update(dict(zip(trace.indices.tolist(), trace.predicted.tolist())))
        out[name] = answers
    return out


@given(history=fuzzed_histories(), training=st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_streaming_bank_matches_fast_kernels(history, training):
    """Incrementally folded bank == kernel battery at every prefix."""
    classification = paper_classification()
    predictors = {name: resolve(name, classification=classification)
                  for name in ALL_PREDICTOR_NAMES}
    expected = _kernel_answers(history, training)
    bank = StreamingBank(classification)
    for i in range(len(history)):
        if i >= training:
            for name, predictor in predictors.items():
                got = bank.answer(predictor, int(history.sizes[i]),
                                  float(history.times[i]))
                want = expected[name][i]
                if want is None:
                    assert got is None, f"{name}@{i}: bank {got}, kernel abstained"
                else:
                    rtol = 1e-4 if "AR" in name else 1e-7
                    assert got == pytest.approx(want, rel=rtol, abs=1e-12), f"{name}@{i}"
        bank.add(float(history.times[i]), float(history.values[i]),
                 int(history.sizes[i]), op=0)


@given(history=fuzzed_histories(min_size=3, max_size=30),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rebuilt_bank_equals_incrementally_folded_bank(history, seed):
    """Out-of-order arrivals rebuild the bank; the rebuilt bank must answer
    exactly like one that saw the sorted stream in order."""
    classification = paper_classification()
    predictors = {name: resolve(name, classification=classification)
                  for name in ALL_PREDICTOR_NAMES}
    order = np.random.RandomState(seed).permutation(len(history))

    folded = StreamingBank(classification)
    for i in range(len(history)):
        folded.add(float(history.times[i]), float(history.values[i]),
                   int(history.sizes[i]), op=0)
    rebuilt = StreamingBank(classification)
    # Simulate what LinkState does on an out-of-order insert: the sorted
    # arrays are the source of truth, regardless of arrival order.
    _ = order  # arrival order is irrelevant once the arrays are sorted
    rebuilt.rebuild(history.times, history.values, history.sizes,
                    np.zeros(len(history), dtype=np.int8))

    anchor = float(history.times[-1])
    for name, predictor in predictors.items():
        a = folded.answer(predictor, int(history.sizes[-1]), anchor)
        b = rebuilt.answer(predictor, int(history.sizes[-1]), anchor)
        if a is None or b is None:
            assert a is None and b is None, name
        else:
            rtol = 1e-4 if "AR" in name else 1e-9
            assert a == pytest.approx(b, rel=rtol, abs=1e-12), name
