"""Logical volumes and the replica catalog."""

import pytest

from repro.storage import Disk, LogicalVolume, ReplicaCatalog


@pytest.fixture
def volume():
    return LogicalVolume(root="/home/ftp", disk=Disk("d"))


class TestVolume:
    def test_relative_root_rejected(self):
        with pytest.raises(ValueError):
            LogicalVolume(root="home/ftp", disk=Disk("d"))

    def test_add_and_lookup(self, volume):
        abspath = volume.add_file("data/10M", 10_000_000)
        assert abspath == "/home/ftp/data/10M"
        assert volume.has("data/10M")
        assert volume.has("/home/ftp/data/10M")
        assert volume.size_of("data/10M") == 10_000_000

    def test_missing_file(self, volume):
        assert not volume.has("nope")
        with pytest.raises(FileNotFoundError):
            volume.size_of("nope")

    def test_path_outside_volume_rejected(self, volume):
        with pytest.raises(ValueError):
            volume.abspath("/etc/passwd")

    def test_remove(self, volume):
        volume.add_file("x", 1)
        volume.remove("x")
        assert not volume.has("x")
        with pytest.raises(FileNotFoundError):
            volume.remove("x")

    def test_negative_size_rejected(self, volume):
        with pytest.raises(ValueError):
            volume.add_file("x", -1)

    def test_len_and_iteration(self, volume):
        volume.add_file("a", 1)
        volume.add_file("b", 2)
        assert len(volume) == 2
        assert dict(volume.files()) == {"/home/ftp/a": 1, "/home/ftp/b": 2}


class TestReplicaCatalog:
    def test_register_and_locate(self):
        cat = ReplicaCatalog()
        cat.register("lfn://data1", "LBL", 500)
        cat.register("lfn://data1", "ISI", 500)
        assert cat.locations("lfn://data1") == ["ISI", "LBL"]
        assert cat.size_of("lfn://data1") == 500
        assert "lfn://data1" in cat

    def test_size_mismatch_rejected(self):
        cat = ReplicaCatalog()
        cat.register("f", "A", 100)
        with pytest.raises(ValueError):
            cat.register("f", "B", 200)

    def test_unknown_file(self):
        cat = ReplicaCatalog()
        with pytest.raises(KeyError):
            cat.locations("nope")
        with pytest.raises(KeyError):
            cat.size_of("nope")

    def test_logical_names_sorted(self):
        cat = ReplicaCatalog()
        cat.register("b", "X", 1)
        cat.register("a", "X", 1)
        assert cat.logical_names() == ["a", "b"]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ReplicaCatalog().register("f", "A", -1)
