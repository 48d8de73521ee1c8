"""Per-link state: versioning and snapshot consistency."""

import numpy as np
import pytest

from repro.core.classification import paper_classification
from repro.core.streaming import StreamingBank
from repro.service.state import OP_READ, OP_WRITE, LinkState
from repro.store import checkpoint
from repro.units import MB
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


@pytest.mark.parametrize("revived", [False, True], ids=["resident", "revived"])
def test_a_batch_with_stragglers_is_one_rebuild_and_n_appends_otherwise(revived):
    """Three of a batch's nine rows end before a row already folded (one
    of them on an end time the link already holds): one merge and one
    rebuild leave the columns, the version, ``last_time`` and the bank's
    accumulators that nine ``append`` calls leave after three rebuilds."""
    sizes = (10 * MB, 100 * MB, 600 * MB)
    base = [make_record(start=1000.0 + 100 * i, size=sizes[i % 3],
                        bandwidth=2e6 + 1e5 * (i % 7)) for i in range(30)]
    ends = [4010.0, 4110.0, 2555.0, 4210.0, 4210.0, 1510.0, 4310.0, 4115.0,
            4410.0]
    batch = [make_record(start=end - 10.0, size=sizes[i % 3],
                         bandwidth=3e6 + 1e5 * i)
             for i, end in enumerate(ends)]
    assert base[5].end_time == 1510.0

    def start():
        state = LinkState("LBL-ANL", _bank())
        for record in base:
            state.append(record)
        if revived:  # what revival builds from the rows it read
            *columns, version = state.snapshot()
            bank = _bank()
            bank.load_state(
                checkpoint.loads(checkpoint.dumps(state.bank.state()))["bank"],
                tuple(columns), len(state))
            state = LinkState.revived("LBL-ANL", bank, version, None, None)
        return state

    batched, sequential = start(), start()
    for record in batch:
        sequential.append(record)
    version = batched.append_batch(
        [r.end_time for r in batch], [r.bandwidth for r in batch],
        [r.file_size for r in batch], [OP_READ] * len(batch))

    assert version == batched.version == sequential.version == 39
    assert batched.last_time == sequential.last_time == 4410.0
    for got, want in zip(batched.snapshot()[:4], sequential.snapshot()[:4]):
        np.testing.assert_array_equal(got, want)
    assert (batched.bank.rebuilds, sequential.bank.rebuilds) == (1, 3)
    sequential.bank.rebuilds = 1
    fixed, *pools = batched.bank.state()
    want_fixed, *want_pools = sequential.bank.state()
    assert fixed == want_fixed
    for got, want in zip(pools, want_pools):
        np.testing.assert_array_equal(got, want)
