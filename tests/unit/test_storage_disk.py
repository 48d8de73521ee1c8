"""Disk model: rates, contention, bookkeeping."""

import pytest

from repro.storage import Disk, DiskSpec


class TestSpec:
    @pytest.mark.parametrize("kw", [
        dict(sustained_read=0), dict(sustained_write=-1),
        dict(seek_time=-0.1), dict(contention_exponent=0.9),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            DiskSpec(**kw)


class TestRates:
    def test_idle_disk_serves_at_sustained(self):
        disk = Disk("d", DiskSpec(sustained_read=60e6, contention_exponent=1.0))
        assert disk.read_rate() == pytest.approx(60e6)

    def test_contention_splits_and_penalizes(self):
        disk = Disk("d", DiskSpec(sustained_read=60e6, contention_exponent=1.15))
        solo = disk.read_rate()
        disk.acquire()
        shared = disk.read_rate()  # this transfer + 1 active
        assert shared < solo / 2 * 1.01  # worse than a perfect split
        assert shared > solo / 4

    def test_write_slower_than_read_by_default(self):
        disk = Disk("d")
        assert disk.write_rate() < disk.read_rate()


class TestBookkeeping:
    def test_acquire_release_cycle(self):
        disk = Disk("d")
        disk.acquire()
        disk.acquire()
        assert disk.active == 2
        disk.release()
        assert disk.active == 1

    def test_release_without_acquire_is_an_error(self):
        with pytest.raises(RuntimeError):
            Disk("d").release()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Disk("")
