"""LinkState revival and ColumnBuffer snapshot semantics across spill.

The evict/revive seam's contract, in unit form: revival reads a link's
rows once and keeps them, sorted to exactly the row order an
always-resident buffer would hold; a revived state continues its
version, keeps snapshots internally consistent forever, merges
out-of-order inserts in RAM, and never reads the store again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import StreamingBank
from repro.core.classification import paper_classification
from repro.data.buffer import ColumnBuffer
from repro.service import PredictionService
from repro.service.state import LinkState
from repro.store import LinkStore
from repro.units import MB
from tests.conftest import make_record

NOW = 10_000_000.0

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


def _revived(times, version=None):
    """A LinkState revived over arrival-order ``times``, as revival
    builds one: the rows stably sorted by end time, the bank over them."""
    columns = _columns(times)
    order = np.argsort(columns[0], kind="stable")
    version = len(times) if version is None else version
    return LinkState.from_columns(
        "L", _bank(columns), version, tuple(c[order] for c in columns))


def _served_after_restart(tmp_path, records):
    """A service over a store whose link ``L`` saw ``records`` one
    ``observe`` at a time, checkpointed and sealed by a graceful
    shutdown; the link revives from its checkpoint on first touch."""
    first = PredictionService(store=LinkStore(tmp_path / "state"))
    for record in records:
        first.observe("L", record)
    first.checkpoint_all(seal=True)
    first.store.close()
    return PredictionService(store=LinkStore(tmp_path / "state"))


class TestRevive:
    def test_hydration_sorts_arrival_order_stably(self, tmp_path):
        # Arrival order != time order (an out-of-order append was
        # persisted as it arrived); revival must produce exactly the
        # order the always-resident buffer held.
        arrival = [make_record(start=end - 1.0, duration=1.0, bandwidth=k + 1.0)
                   for k, end in enumerate([1.0, 5.0, 3.0, 5.0])]
        resident = PredictionService()
        for record in arrival:
            resident.observe("L", record)
        served = _served_after_restart(tmp_path, arrival)
        np.testing.assert_array_equal(
            served.history("L").times, resident.history("L").times)
        np.testing.assert_array_equal(
            served.history("L").values, resident.history("L").values)
        (event,) = served.trace.events(kind="revive")
        assert event.fields["how"] == "checkpoint"

    def test_a_revival_reads_the_store_once(self, tmp_path, monkeypatch):
        """The revival's own read is the link's last: an unbanked
        predict, a late observe and ``history()`` answer from RAM (they
        cost a second ``load_columns`` while a revived link kept its
        rows on disk)."""
        records = [make_record(start=1000.0 + 100.0 * i, size=(10 + i) * MB)
                   for i in range(40)]
        served = _served_after_restart(tmp_path, records)
        resident = PredictionService()
        for record in records:
            resident.observe("L", record)
        reads = []
        load_columns = LinkStore.load_columns
        monkeypatch.setattr(LinkStore, "load_columns", lambda store, link: (
            reads.append(link), load_columns(store, link))[1])
        want = resident.predict("L", 100 * MB, "SIZE", now=NOW).value
        assert want is not None
        assert served.predict("L", 100 * MB, "SIZE", now=NOW).value == want
        late = make_record(start=1050.0, duration=1.0, size=50 * MB)
        for service in (served, resident):
            service.observe("L", late)
        np.testing.assert_array_equal(
            served.history("L").times, resident.history("L").times)
        assert reads == ["L"]
        assert served.link_state("L").version == 41

    def test_out_of_order_append_hydrates_first(self):
        # A revived link merges a late row in RAM: its rows are there.
        state = _revived([10.0, 20.0])
        record = make_record(start=14.0, duration=1.0)  # ends at 15.0
        state.append(record)
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
        assert state.version == 3
        assert state.last_time == 3.0
        np.testing.assert_array_equal(state.history().times, [1.0, 2.0, 3.0])
