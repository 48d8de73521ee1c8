"""TransferLog: ordering, trimming policies, persistence."""

import pytest

from repro.logs import (
    FlushRestart,
    KeepAll,
    MaxCount,
    RunningWindow,
    TransferLog,
)
from repro.units import HOUR
from tests.conftest import make_record


def records_at(*starts, duration=10.0):
    return [make_record(start=s, duration=duration) for s in starts]


class TestAppendOrdering:
    def test_appends_keep_end_time_order(self):
        log = TransferLog()
        for r in records_at(100.0, 200.0, 300.0):
            log.append(r)
        assert [r.start_time for r in log] == [100.0, 200.0, 300.0]

    def test_out_of_order_completion_inserted_correctly(self):
        log = TransferLog()
        long_xfer = make_record(start=100.0, duration=500.0)   # ends at 600
        short_xfer = make_record(start=200.0, duration=10.0)   # ends at 210
        log.append(long_xfer)
        log.append(short_xfer)
        assert [r.end_time for r in log] == [210.0, 600.0]

    def test_latest_and_len(self):
        log = TransferLog()
        assert log.latest() is None and len(log) == 0
        log.extend(records_at(1.0, 50.0))
        assert log.latest().start_time == 50.0
        assert len(log) == 2

    def test_clear(self):
        log = TransferLog()
        log.extend(records_at(1.0))
        log.clear()
        assert len(log) == 0


class TestTrimPolicies:
    def test_keepall_is_default(self):
        log = TransferLog()
        log.extend(records_at(*range(1, 1001, 10)))
        assert len(log) == 100
        assert isinstance(log.trim, KeepAll)

    def test_running_window_drops_old(self):
        log = TransferLog(trim=RunningWindow(max_age=1 * HOUR))
        log.append(make_record(start=0.0))
        log.append(make_record(start=2 * HOUR))
        assert len(log) == 1
        assert log.latest().start_time == 2 * HOUR

    def test_max_count_keeps_newest(self):
        log = TransferLog(trim=MaxCount(3))
        log.extend(records_at(10.0, 20.0, 30.0, 40.0, 50.0))
        assert [r.start_time for r in log] == [30.0, 40.0, 50.0]

    def test_flush_restart_archives(self):
        policy = FlushRestart(threshold=3)
        log = TransferLog(trim=policy)
        log.extend(records_at(1.0, 100.0, 200.0, 300.0))
        # Third append hits the threshold: archive 3, restart; 4th starts fresh.
        assert len(policy.archived) == 1
        assert len(policy.archived[0]) == 3
        assert len(log) == 1

    def test_flush_restart_custom_sink(self):
        seen = []
        log = TransferLog(trim=FlushRestart(threshold=2, sink=seen.append))
        log.extend(records_at(1.0, 100.0, 200.0))
        assert len(seen) == 1 and len(seen[0]) == 2

    @pytest.mark.parametrize("factory", [
        lambda: RunningWindow(0), lambda: MaxCount(0), lambda: FlushRestart(0),
    ])
    def test_invalid_policies(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        log = TransferLog(host="lbl.gov")
        log.extend(records_at(10.0, 20.0, 30.0))
        path = tmp_path / "transfers.ulm"
        assert log.save(path) == 3
        loaded = TransferLog.load(path, host="lbl.gov")
        assert loaded.records() == log.records()

    def test_empty_log_roundtrip(self, tmp_path):
        log = TransferLog()
        path = tmp_path / "empty.ulm"
        assert log.save(path) == 0
        assert len(TransferLog.load(path)) == 0

    def test_records_returns_copy(self):
        log = TransferLog()
        log.extend(records_at(1.0))
        log.records().clear()
        assert len(log) == 1


class TestFlushRestartBoundary:
    def test_flushes_exactly_at_threshold(self):
        # The flush fires when the count *reaches* the threshold, not one
        # past it: after the third append of threshold=3 the log is empty.
        trim = FlushRestart(threshold=3)
        log = TransferLog(trim=trim)
        log.append(make_record(start=100.0))
        log.append(make_record(start=200.0))
        assert len(log) == 2 and trim.archived == []
        log.append(make_record(start=300.0))
        assert len(log) == 0
        assert [len(batch) for batch in trim.archived] == [3]

    def test_batch_safety_flags(self):
        assert KeepAll().batch_safe
        assert RunningWindow(max_age=1.0).batch_safe
        assert MaxCount(count=1).batch_safe
        assert not FlushRestart(threshold=1).batch_safe


class TestBulkExtend:
    """extend() folds a batch in one merge, equivalently to N appends."""

    @pytest.mark.parametrize("trim_factory", [
        KeepAll,
        lambda: RunningWindow(max_age=5 * HOUR),
        lambda: MaxCount(count=7),
        lambda: FlushRestart(threshold=4),
    ])
    def test_extend_matches_sequential_appends(self, trim_factory):
        starts = [100.0, 900.0, 300.0, 500.0, 500.0, 700.0, 200.0, 1100.0,
                  400.0, 600.0]
        batch = records_at(*starts)
        bulk = TransferLog(trim=trim_factory())
        sequential = TransferLog(trim=trim_factory())
        bulk.extend(records_at(50.0))
        sequential.extend(records_at(50.0))
        bulk.extend(batch)
        # Batch-safe policies fold the batch sorted by end time; the
        # non-batch-safe FlushRestart falls back to per-record appends in
        # the given order (archival boundaries depend on it).
        ordered = (
            sorted(batch, key=lambda r: r.end_time)
            if bulk.trim.batch_safe
            else batch
        )
        for record in ordered:
            sequential.append(record)
        assert bulk.records() == sequential.records()

    def test_extend_interleaves_with_existing_records(self):
        log = TransferLog()
        log.extend(records_at(100.0, 500.0))
        log.extend(records_at(300.0, 50.0))
        assert [r.start_time for r in log] == [50.0, 100.0, 300.0, 500.0]

    def test_extend_empty_batch_is_noop(self):
        log = TransferLog()
        log.extend([])
        assert len(log) == 0


class TestFrameBridge:
    def test_to_frame_round_trip(self):
        log = TransferLog()
        log.extend(records_at(100.0, 300.0, 200.0))
        frame = log.to_frame()
        assert frame.to_records() == log.records()
        rebuilt = TransferLog.from_frame(frame)
        assert rebuilt.records() == log.records()

    def test_load_uses_bulk_path(self, tmp_path):
        log = TransferLog()
        log.extend(records_at(*range(100, 2100, 100)))
        path = tmp_path / "x.ulm"
        log.save(path)
        loaded = TransferLog.load(path)
        assert loaded.records() == log.records()
        # cache defaults off: no sidecar appears next to the log
        assert list(tmp_path.iterdir()) == [path]

    def test_load_with_cache_writes_sidecar(self, tmp_path):
        log = TransferLog()
        log.extend(records_at(100.0, 200.0))
        path = tmp_path / "x.ulm"
        log.save(path)
        TransferLog.load(path, cache=True)
        assert (tmp_path / "x.ulm.col").exists()
        reloaded = TransferLog.load(path, cache=True)  # warm read
        assert reloaded.records() == log.records()
