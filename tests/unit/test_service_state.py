"""Per-link state: versioning and snapshot consistency."""

import numpy as np
import pytest

from repro.core.classification import paper_classification
from repro.core.streaming import StreamingBank
from repro.service.state import OP_READ, OP_WRITE, LinkState
from tests.conftest import make_record


def _bank():
    return StreamingBank(paper_classification())


def test_version_increments_per_append():
    state = LinkState("LBL-ANL", _bank())
    assert state.version == 0 and len(state) == 0
    for i in range(5):
        version = state.append(make_record(start=1000.0 + 100 * i))
        assert version == i + 1
    assert state.version == 5 and len(state) == 5


def test_history_matches_appended_records():
    state = LinkState("LBL-ANL", _bank())
    records = [make_record(start=1000.0 + 100 * i, size=(i + 1) * 10_000)
               for i in range(10)]
    for r in records:
        state.append(r)
    history = state.history()
    np.testing.assert_array_equal(history.times, [r.end_time for r in records])
    np.testing.assert_array_equal(history.values, [r.bandwidth for r in records])
    np.testing.assert_array_equal(history.sizes, [r.file_size for r in records])


def test_snapshot_survives_growth():
    state = LinkState("LBL-ANL", _bank())
    for i in range(10):
        state.append(make_record(start=1000.0 + 100 * i))
    frozen = state.history()
    times_before = frozen.times.copy()
    # Push well past the initial capacity so the buffers reallocate.
    for i in range(10, 200):
        state.append(make_record(start=1000.0 + 100 * i))
    assert len(frozen) == 10
    np.testing.assert_array_equal(frozen.times, times_before)


def test_snapshot_survives_out_of_order_insert():
    state = LinkState("LBL-ANL", _bank())
    for i in range(5):
        state.append(make_record(start=1000.0 + 100 * i))
    frozen = state.history()
    # An overlapping transfer that finished before the last one.
    state.append(make_record(start=1040.0, duration=5.0))
    assert len(frozen) == 5
    assert len(state) == 6
    # The new history is still time-sorted.
    times = state.history().times
    assert (np.diff(times) >= 0).all()


def test_ops_recorded_in_snapshot():
    from repro.logs.record import Operation

    state = LinkState("LBL-ANL", _bank())
    state.append(make_record(start=1000.0))
    state.append(make_record(start=1100.0, operation=Operation.WRITE))
    _, _, _, ops, version = state.snapshot()
    np.testing.assert_array_equal(ops, [OP_READ, OP_WRITE])
    assert version == 2


def test_empty_link_name_rejected():
    with pytest.raises(ValueError):
        LinkState("", _bank())
