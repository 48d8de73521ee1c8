"""LinkState revival and ColumnBuffer snapshot semantics across spill.

The evict/revive seam's contract, in unit form: a revived state defers
its history columns behind a loader, hydrates to exactly the row order
an always-resident buffer would hold, keeps snapshots taken before
hydration internally consistent forever, and survives the awkward
cases — out-of-order inserts on a revived link, appends before
hydration, version continuity across the whole cycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import StreamingBank
from repro.core.classification import paper_classification
from repro.data.buffer import ColumnBuffer
from repro.service.state import LinkState, OP_READ
from tests.conftest import make_record

_DTYPES = (
    ("times", np.dtype(np.float64)),
    ("values", np.dtype(np.float64)),
    ("sizes", np.dtype(np.int64)),
    ("ops", np.dtype(np.int8)),
)


def _columns(times):
    times = np.asarray(times, dtype=np.float64)
    n = len(times)
    return (times, times * 10.0, np.arange(1, n + 1, dtype=np.int64),
            np.zeros(n, dtype=np.int8))


# ----------------------------------------------------------------------
# ColumnBuffer.from_columns (the spill/load seam)
# ----------------------------------------------------------------------
class TestFromColumns:
    def test_roundtrip_copies(self):
        source = _columns([1.0, 2.0, 3.0])
        buffer = ColumnBuffer.from_columns(_DTYPES, source)
        assert len(buffer) == 3
        views = buffer.views()
        np.testing.assert_array_equal(views[0], source[0])
        # Fresh backing arrays: mutating the source must not leak in.
        source[0][0] = 999.0
        assert buffer.views()[0][0] == 1.0

    def test_rejects_unsorted_key(self):
        with pytest.raises(ValueError):
            ColumnBuffer.from_columns(_DTYPES, _columns([3.0, 1.0, 2.0]))

    def test_rejects_ragged_columns(self):
        times, values, sizes, ops = _columns([1.0, 2.0])
        with pytest.raises(ValueError):
            ColumnBuffer.from_columns(_DTYPES, (times, values[:1], sizes, ops))

    def test_snapshot_survives_append_after_load(self):
        buffer = ColumnBuffer.from_columns(_DTYPES, _columns([1.0, 2.0]))
        snap = buffer.views()
        for i in range(200):  # force several growth reallocations
            buffer.append((3.0 + i, 1.0, 1, 0))
        np.testing.assert_array_equal(snap[0], [1.0, 2.0])
        assert len(buffer) == 202

    def test_snapshot_survives_out_of_order_insert_after_load(self):
        buffer = ColumnBuffer.from_columns(_DTYPES, _columns([1.0, 5.0]))
        snap = buffer.views()
        with pytest.raises(ValueError):
            buffer.append((3.0, 30.0, 1, 0))  # would land between the rows
        buffer.extend_sorted(_columns([3.0]))  # the one-row merge does
        np.testing.assert_array_equal(snap[0], [1.0, 5.0])
        np.testing.assert_array_equal(buffer.views()[0], [1.0, 3.0, 5.0])

    def test_nbytes_counts_backing_capacity(self):
        buffer = ColumnBuffer(_DTYPES, capacity=100)
        per_row = 8 + 8 + 8 + 1
        assert buffer.nbytes == 100 * per_row
        buffer.append((1.0, 1.0, 1, 0))
        assert buffer.nbytes == 100 * per_row  # capacity, not n


# ----------------------------------------------------------------------
# LinkState revival
# ----------------------------------------------------------------------
def _bank(columns=None):
    """A bank holding the fold of arrival-order ``columns`` (none: empty)."""
    bank = StreamingBank(paper_classification())
    if columns is not None:
        order = np.argsort(columns[0], kind="stable")
        bank.rebuild(*(column[order] for column in columns), reason="revive")
    return bank


def _revived(times, version=None, loads=None):
    """A revived LinkState over arrival-order ``times`` (+ a load counter)."""
    columns = _columns(times)
    bank = _bank(columns)
    version = len(times) if version is None else version

    def loader():
        if loads is not None:
            loads.append(1)
        return columns

    return LinkState.revive(
        "L", bank, version, len(times), float(np.max(times)), loader)


class TestRevive:
    def test_lazy_until_history(self):
        loads = []
        state = _revived([1.0, 2.0, 3.0], loads=loads)
        assert not state.hydrated
        assert len(state) == 3          # framing without hydration
        assert state.version == 3
        assert state.meta() == (3, 3)
        assert loads == []
        history = state.history()       # first real need -> one load
        assert loads == [1]
        np.testing.assert_array_equal(history.times, [1.0, 2.0, 3.0])
        state.history()
        assert loads == [1]             # hydration happens once

    def test_hydration_sorts_arrival_order_stably(self):
        # Arrival order != time order (an out-of-order append was
        # persisted as it arrived); hydration must produce exactly the
        # order the always-resident buffer held.
        arrival = [1.0, 5.0, 3.0, 5.0]
        state = _revived(arrival)
        resident = ColumnBuffer(_DTYPES, capacity=4)
        for i in range(len(arrival)):  # one-row merges, in arrival order
            resident.extend_sorted(
                tuple(column[i:i + 1] for column in _columns(arrival)))
        np.testing.assert_array_equal(
            state.history().times, resident.views()[0])
        np.testing.assert_array_equal(
            state.history().values, resident.views()[1])

    def test_in_order_append_defers_hydration(self):
        loads = []
        state = _revived([1.0, 2.0], loads=loads)
        record = make_record(start=10.0, duration=1.0)
        state.append(record)
        assert loads == []              # in-order: no hydration needed
        assert len(state) == 3
        assert state.version == 3
        history = state.history()
        assert loads == [1]
        np.testing.assert_array_equal(history.times, [1.0, 2.0, 11.0])

    def test_out_of_order_append_hydrates_first(self):
        loads = []
        state = _revived([10.0, 20.0], loads=loads)
        record = make_record(start=14.0, duration=1.0)  # ends at 15.0
        state.append(record)
        assert loads == [1]             # position needs the real rows
        np.testing.assert_array_equal(
            state.history().times, [10.0, 15.0, 20.0])
        assert state.version == 3

    def test_version_continuity(self):
        state = _revived([1.0, 2.0], version=17)
        assert state.version == 17
        state.append(make_record(start=30.0, duration=1.0))
        assert state.version == 18

    def test_snapshot_taken_before_hydration_unaffected_by_later_growth(self):
        state = _revived([1.0, 2.0, 3.0])
        times, values, sizes, ops, version = state.snapshot()
        frozen = times.copy()
        for i in range(100):
            state.append(make_record(start=100.0 + i, duration=1.0))
        np.testing.assert_array_equal(times, frozen)

    def test_revived_bank_answers_without_hydration(self):
        cls = paper_classification()
        arrival = [float(i) for i in range(30)]
        columns = _columns(arrival)
        bank = StreamingBank(cls)
        bank.rebuild(*columns, reason="revive")
        loads = []

        def loader():
            loads.append(1)
            return columns

        state = LinkState.revive("L", bank, 30, 30, 29.0, loader)
        assert state.bank is bank
        assert not state.hydrated
        assert loads == []

    def test_persist_called_with_appended_rows(self):
        calls = []

        def persist(times, values, sizes, ops, offset, sync):
            calls.append((tuple(times), offset, sync))
            return True

        state = LinkState("L", _bank(), persist=persist)
        state.append(make_record(start=10.0, duration=1.0), source_offset=55)
        # A batch with a straggler is still one call, in arrival order.
        state.append_batch([20.0, 5.0, 30.0], [1.0] * 3, [1] * 3, [0] * 3,
                           source_offset=[60, 70, 80], sync=False)
        assert calls == [((11.0,), 55, None),
                         ((20.0, 5.0, 30.0), [60, 70, 80], False)]

    def test_from_columns_fully_hydrated(self):
        columns = _columns([1.0, 2.0, 3.0])
        state = LinkState.from_columns("L", _bank(columns), 3, columns)
        assert state.hydrated
        assert state.version == 3
        assert state.last_time == 3.0
        np.testing.assert_array_equal(state.history().times, [1.0, 2.0, 3.0])
