"""Unit tests for the durable tiered store (repro.store).

The WAL framing, segment container, checkpoint codec, and the
LinkStore's recovery ladder: torn tails truncate, crash-split
seal/truncate pairs dedup, corrupt files quarantine, and compaction
collapses everything back to one trustworthy segment.
"""

from __future__ import annotations

import errno
import hashlib
import os
import struct
import zlib

import numpy as np
import pytest

from repro.obs import get_registry
from repro.store import CorruptCheckpoint, CorruptSegment, LinkStore
from repro.store import checkpoint as ck
from repro.store import segments as seg
from repro.store import wal


def _rows(n, t0=1000.0):
    times = [t0 + i for i in range(n)]
    values = [1e6 + 100.0 * i for i in range(n)]
    sizes = [10_000 + i for i in range(n)]
    ops = [i % 2 for i in range(n)]
    return times, values, sizes, ops


def _append(store, link, n, t0=1000.0, offset=0):
    times, values, sizes, ops = _rows(n, t0)
    assert store.append_rows(link, times, values, sizes, ops,
                             source_offset=offset)


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
class TestWal:
    def test_roundtrip(self):
        blob = wal.encode([(0, 1.5, 2.5, 10, 1, 0), (1, 2.5, 3.5, 20, 0, 99)])
        assert len(blob) == 2 * wal.RECORD_SIZE
        scan = wal.scan(blob)
        assert scan.seqs == [0, 1]
        assert scan.times == [1.5, 2.5]
        assert scan.values == [2.5, 3.5]
        assert scan.sizes == [10, 20]
        assert scan.ops == [1, 0]
        assert scan.offsets == [0, 99]
        assert scan.valid_bytes == len(blob)
        assert scan.torn_bytes == 0

    def test_torn_tail_stops_at_first_bad_record(self):
        blob = wal.encode([(i, float(i), 1.0, 1, 0, 0) for i in range(3)])
        torn = blob + blob[: wal.RECORD_SIZE // 2]  # short final record
        scan = wal.scan(torn)
        assert len(scan) == 3
        assert scan.valid_bytes == len(blob)
        assert scan.torn_bytes == len(torn) - len(blob)

    def test_corrupt_crc_mid_stream_truncates_from_there(self):
        blob = bytearray(wal.encode(
            [(i, float(i), 1.0, 1, 0, 0) for i in range(4)]))
        blob[wal.RECORD_SIZE + 7] ^= 0xFF  # flip a byte in record 1
        scan = wal.scan(bytes(blob))
        assert scan.seqs == [0]  # everything after the bad record is torn
        assert scan.torn_bytes == 3 * wal.RECORD_SIZE

    def test_dedup_drops_rows_below_sealed(self):
        scan = wal.scan(wal.encode(
            [(i, float(i), 1.0, 1, 0, 0) for i in range(5)]))
        kept, dropped = wal.dedup(scan, sealed_rows=3)
        assert dropped == 3
        assert kept.seqs == [3, 4]


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
class TestSegments:
    def test_roundtrip(self, tmp_path):
        times, values, sizes, ops = (np.asarray(c) for c in _rows(10))
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, 0, times, values, sizes, ops, max_offset=77)
        data = seg.read_segment(path)
        assert data.start_row == 0 and data.rows == 10
        assert data.max_offset == 77
        np.testing.assert_array_equal(data.times, times)
        np.testing.assert_array_equal(data.values, values)

    def test_flipped_byte_fails_digest(self, tmp_path):
        times, values, sizes, ops = (np.asarray(c) for c in _rows(10))
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, 0, times, values, sizes, ops)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(Exception):
            seg.read_segment(path)

    def test_truncated_file_raises(self, tmp_path):
        times, values, sizes, ops = (np.asarray(c) for c in _rows(10))
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, 0, times, values, sizes, ops)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(Exception):
            seg.read_segment(path)

    def test_framing_comes_from_the_header_alone(self, tmp_path, monkeypatch):
        path = tmp_path / seg.segment_name(40)
        seg.write_segment(path, 40, *_rows(10), max_offset=77)
        monkeypatch.setattr(
            seg._FILE, "inflate",
            lambda head: pytest.fail("inflated columns nobody asked for"))
        assert seg.read_framing(path) == (40, 10, 77)

    def test_stores_less_than_the_columns_it_holds(self, tmp_path):
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, 0, *_rows(488))
        assert path.stat().st_size < 488 * 25

    def test_npz_segment_of_an_earlier_build_still_reads(self, tmp_path):
        path = tmp_path / "seg-000000000040.npz"
        write_npz_segment(path, 40, *_rows(10), max_offset=77)
        assert seg.is_segment_name(path.name)
        assert seg.read_framing(path) == (40, 10, 77)
        data = seg.read_segment(path)
        np.testing.assert_array_equal(data.times, _rows(10)[0])
        np.testing.assert_array_equal(data.ops, _rows(10)[3])
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptSegment):
            seg.read_segment(path)


def write_npz_segment(path, start_row, times, values, sizes, ops,
                      max_offset=0):
    """A segment as builds before the shared envelope wrote it: nine
    uncompressed zip members, the digest a hex string over the columns."""
    columns = [np.ascontiguousarray(column, dtype=dtype) for column, dtype in
               zip((times, values, sizes, ops), ("f8", "f8", "i8", "i1"))]
    sha = hashlib.sha256(f"1:{start_row}:{len(columns[0])}".encode())
    for column in columns:
        sha.update(column.tobytes())
    with open(path, "wb") as handle:
        np.savez(
            handle, __version__=np.str_("1"),
            __digest__=np.str_(sha.hexdigest()),
            __start_row__=np.int64(start_row),
            __rows__=np.int64(len(columns[0])),
            __max_offset__=np.int64(max_offset),
            **dict(zip(("times", "values", "sizes", "ops"), columns)))


def as_npz_state_dir(root):
    """Rewrite every ``.col`` segment under ``root`` the way an earlier
    build would have left it; returns the new paths."""
    legacy = []
    for path in sorted(root.rglob("seg-*.col")):
        data = seg.read_segment(path)
        legacy.append(path.with_suffix(".npz"))
        write_npz_segment(legacy[-1], data.start_row, data.times, data.values,
                          data.sizes, data.ops, data.max_offset)
        path.unlink()
    return legacy


# ----------------------------------------------------------------------
# checkpoint codec
# ----------------------------------------------------------------------
LD_SIZE = np.dtype(np.longdouble).itemsize
# The format-3 header, packed by hand here so the tests pin the bytes.
FORMAT_3_FIELDS = struct.Struct("<4sHHIIQQ")
SMALL_STATE = {"heap": [1.5, 2.5, 3.5], "series": np.array([4.0, 5.0]),
               "sums": {"sx": np.longdouble(1) / 3, "sy": np.longdouble(7)},
               "tag": "x", "n": 3}


def frame_format_3(stored, layout_len, f8_len, ld_len):
    """A format-3 file around ``stored`` with a digest that verifies."""
    fields = FORMAT_3_FIELDS.pack(b"RSCK", 3, LD_SIZE, len(stored),
                                  layout_len, f8_len, ld_len)
    return fields + hashlib.sha256(fields + stored).digest() + stored


def as_format_2(blob):
    """The same body as format 2 stored it: raw, the digest over it alone."""
    _, _, _, _, layout_len, f8_len, ld_len = FORMAT_3_FIELDS.unpack_from(blob)
    body = zlib.decompress(blob[FORMAT_3_FIELDS.size + 32:])
    return struct.pack("<4sHHIQQ32s", b"RSCK", 2, LD_SIZE, layout_len, f8_len,
                       ld_len, hashlib.sha256(body).digest()) + body


class TestCheckpoint:
    def test_longdouble_roundtrip_is_exact(self):
        # A sum that differs from its float64 rounding — the whole point
        # of the longdouble pool.
        total = np.longdouble(0)
        for i in range(1000):
            total += np.longdouble(0.1) * i
        state = {"sum": total, "count": 1000, "tag": "x",
                 "ring": [1.5, 2.5, float("inf")], "names": ["a", "b"],
                 "none": None, "flag": True}
        out = ck.loads(ck.dumps(state))
        assert isinstance(out["sum"], np.longdouble)
        assert out["sum"] == total  # bit-exact, not approx
        assert out["ring"] == [1.5, 2.5, float("inf")]
        assert out["names"] == ["a", "b"]
        assert out["none"] is None and out["flag"] is True

    def test_deterministic_bytes(self):
        state = {"b": [1.0, 2.0], "a": {"z": 1, "y": np.longdouble(2)}}
        assert ck.dumps(state) == ck.dumps(state)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="longdouble has no padding bytes here")
    def test_longdouble_padding_does_not_reach_the_file(self):
        # x87 long doubles carry 10 value bytes; the rest is whatever was
        # in memory (format 2 stored it), which would change the deflated
        # length from one write of the same state to the next.
        state = {f"s{i:02d}": np.longdouble(i) / 3 for i in range(50)}
        blob = ck.dumps(state)
        pool = zlib.decompress(blob[FORMAT_3_FIELDS.size + 32:])[-50 * LD_SIZE:]
        for at in range(0, len(pool), LD_SIZE):
            assert pool[at + 10:at + LD_SIZE] == bytes(LD_SIZE - 10)
        assert ck.loads(blob) == state

    def test_flipped_byte_raises(self):
        blob = bytearray(ck.dumps({"x": [1.0, 2.0, 3.0]}))
        blob[-3] ^= 0xFF
        with pytest.raises(CorruptCheckpoint):
            ck.loads(bytes(blob))

    def test_truncation_raises(self):
        blob = ck.dumps({"x": [1.0, 2.0, 3.0]})
        with pytest.raises(CorruptCheckpoint):
            ck.loads(blob[:-4])
        with pytest.raises(CorruptCheckpoint):
            ck.loads(b"")

    def test_bad_magic_raises(self):
        blob = ck.dumps({"x": 1})
        with pytest.raises(CorruptCheckpoint):
            ck.loads(b"XXXX" + blob[4:])

    def test_header_carries_stored_and_raw_lengths(self):
        blob = ck.dumps(SMALL_STATE)
        magic, version, ld_size, stored, layout, f8, ld = \
            FORMAT_3_FIELDS.unpack_from(blob)
        assert (magic, version) == (b"RSCK", 3)
        assert ld_size == LD_SIZE
        assert len(blob) == FORMAT_3_FIELDS.size + 32 + stored
        body = zlib.decompress(blob[FORMAT_3_FIELDS.size + 32:])
        assert len(body) == layout + f8 + ld
        assert (f8, ld) == (5 * 8, 2 * LD_SIZE)
        assert body[:layout].startswith(b'{"heap":["\\u0000f8",3]')

    # Every truncation, every single-bit flip and the bounded inflate are
    # tests/unit/test_envelope.py, once for each kind of file.

    def test_stream_shorter_than_declared_is_corrupt(self):
        layout = b'{"x":1}'
        short = frame_format_3(zlib.compress(layout, 1), len(layout) + 8, 0, 0)
        with pytest.raises(CorruptCheckpoint, match="declared lengths"):
            ck.loads(short)
        ragged = frame_format_3(zlib.compress(layout + bytes(4), 1),
                                len(layout), 4, 0)
        with pytest.raises(CorruptCheckpoint, match="whole number"):
            ck.loads(ragged)

    def test_dangling_pool_reference_is_corrupt(self):
        layout = b'{"x":["\\u0000f8"]}'  # a reference with no count
        with pytest.raises(CorruptCheckpoint, match="malformed"):
            ck.loads(frame_format_3(zlib.compress(layout, 1),
                                    len(layout), 0, 0))

    def test_intact_format_2_is_stale_and_a_damaged_one_corrupt(self):
        old = as_format_2(ck.dumps(SMALL_STATE))
        with pytest.raises(ck.StaleCheckpoint):
            ck.loads(old)
        damaged = bytearray(old)
        damaged[-1] ^= 0x01
        with pytest.raises(CorruptCheckpoint):
            ck.loads(bytes(damaged))
        with pytest.raises(CorruptCheckpoint):
            ck.loads(old[:-1])

    def test_unlisted_scalar_types_pack_like_their_bases(self):
        class Label(str):
            pass

        state = {"n": np.int32(7), "x": np.float32(0.5), "tag": Label("t"),
                 "pair": (1.0, np.float32(2.0))}
        out = ck.loads(ck.dumps(state))
        assert out == {"n": 7, "x": 0.5, "tag": "t", "pair": [1.0, 2.0]}
        assert type(out["n"]) is int and type(out["x"]) is float
        with pytest.raises(TypeError):
            ck.dumps({"bad": {1, 2}})


# ----------------------------------------------------------------------
# LinkStore
# ----------------------------------------------------------------------
class TestLinkStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=8)
        _append(store, "a/b", 20, offset=123)  # link name needs quoting
        assert store.has("a/b")
        assert store.durable_rows("a/b") == 20
        assert store.resume_offset("a/b") == 123
        times, values, sizes, ops = store.load_columns("a/b")
        want_t, want_v, want_s, want_o = _rows(20)
        np.testing.assert_array_equal(times, want_t)
        np.testing.assert_array_equal(values, want_v)
        np.testing.assert_array_equal(sizes, want_s)
        np.testing.assert_array_equal(ops, want_o)

    def test_auto_seal_and_recovery(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=8)
        # Three batches: the first two each cross the seal threshold and
        # seal the whole tail; the last stays live in the WAL.
        _append(store, "x", 8, t0=1000.0)
        _append(store, "x", 8, t0=2000.0)
        _append(store, "x", 4, t0=3000.0)
        store.close()
        link_dir = next((tmp_path / "links").iterdir())
        segs = [p for p in os.listdir(link_dir) if p.endswith(".col")]
        assert len(segs) == 2
        fresh = LinkStore(tmp_path, segment_rows=8)
        assert fresh.durable_rows("x") == 20
        assert not fresh.degraded("x")
        times, _, _, _ = fresh.load_columns("x")
        assert len(times) == 20

    def test_load_columns_start_row(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=8)
        _append(store, "x", 20)
        times, values, sizes, ops = store.load_columns("x", start_row=15)
        assert len(times) == 5
        assert times[0] == 1000.0 + 15

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=1000)
        _append(store, "x", 5)
        store.close()
        tail = next((tmp_path / "links").iterdir()) / "tail.wal"
        with open(tail, "ab") as fh:
            fh.write(b"\x01\x02\x03garbage")
        fresh = LinkStore(tmp_path)
        assert fresh.durable_rows("x") == 5
        # The torn bytes are physically gone, not just skipped.
        assert os.path.getsize(tail) == 5 * wal.RECORD_SIZE

    def test_crash_between_seal_and_truncate_dedups(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=1000)
        _append(store, "x", 6)
        tail = next((tmp_path / "links").iterdir()) / "tail.wal"
        saved = tail.read_bytes()
        assert store.seal("x")
        # Simulate the crash: the sealed segment exists AND the tail
        # still holds the same rows.
        tail.write_bytes(saved)
        store.close()
        fresh = LinkStore(tmp_path)
        assert fresh.durable_rows("x") == 6  # not 12
        times, _, _, _ = fresh.load_columns("x")
        assert len(times) == 6

    def test_corrupt_segment_quarantined_and_degraded(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=4)
        _append(store, "x", 4, t0=1000.0)
        _append(store, "x", 4, t0=2000.0)
        store.close()
        link_dir = next((tmp_path / "links").iterdir())
        victim = sorted(p for p in link_dir.iterdir()
                        if p.name.endswith(".col"))[0]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        fresh = LinkStore(tmp_path)
        assert fresh.durable_rows("x") == 4  # survivors only
        assert fresh.degraded("x")
        assert quarantined.value == before + 1
        assert (link_dir / (victim.name + ".quarantined")).exists()
        assert not victim.exists()

    def test_compaction_repairs_degraded_link(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=4)
        _append(store, "x", 4, t0=1000.0)
        _append(store, "x", 4, t0=2000.0)
        store.close()
        link_dir = next((tmp_path / "links").iterdir())
        victim = sorted(p for p in link_dir.iterdir()
                        if p.name.endswith(".col"))[0]
        victim.write_bytes(b"junk")
        fresh = LinkStore(tmp_path, segment_rows=4)
        assert fresh.degraded("x")
        assert fresh.compact("x")
        assert not fresh.degraded("x")
        assert fresh.durable_rows("x") == 4
        # Exactly one seg-full remains; appends continue cleanly.
        left = [p.name for p in link_dir.iterdir() if p.name.startswith("seg-")
                and not p.name.endswith(".quarantined")]
        assert left == [seg.FULL_NAME]
        _append(fresh, "x", 3, t0=5000.0)
        assert fresh.durable_rows("x") == 7

    def test_stranded_temp_files_are_removed_on_recovery(self, tmp_path):
        """A kill between mkstemp and os.replace leaves a ``*.tmp``; the
        rows it held are still in the tail, so recovery just drops it."""
        def build(root):
            store = LinkStore(root, segment_rows=8)
            _append(store, "x", 8)
            _append(store, "x", 3, t0=2000.0)
            store.close()
            return next((root / "links").iterdir())

        clean = build(tmp_path / "clean")
        link_dir = build(tmp_path / "killed")
        segment = next(link_dir.glob("seg-*.col"))
        for name in (segment.name + ".k1ll3d.tmp", "checkpoint.bin.tmp"):
            (link_dir / name).write_bytes(segment.read_bytes()[:50])

        fresh = LinkStore(tmp_path / "killed", segment_rows=8)
        assert fresh.durable_rows("x") == 11
        assert not fresh.degraded("x")
        assert len(fresh.load_columns("x")[0]) == 11
        assert sorted(p.name for p in link_dir.iterdir()) == \
            sorted(p.name for p in clean.iterdir())
        assert fresh.bytes_on_disk(max_age=0.0) == \
            LinkStore(tmp_path / "clean").bytes_on_disk(max_age=0.0)

    def test_npz_state_dir_upgrades_in_place(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=4)
        _append(store, "x", 4, t0=1000.0)
        _append(store, "x", 4, t0=2000.0)
        store.close()
        link_dir = next((tmp_path / "links").iterdir())
        assert len(as_npz_state_dir(tmp_path)) == 2
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value

        fresh = LinkStore(tmp_path, segment_rows=4)
        assert fresh.durable_rows("x") == 8 and not fresh.degraded("x")
        _append(fresh, "x", 4, t0=3000.0)  # seals beside the old files
        assert sorted(p.name for p in link_dir.glob("seg-*")) == [
            "seg-000000000000.npz", "seg-000000000004.npz",
            "seg-000000000008.col"]
        times, _, _, _ = fresh.load_columns("x")
        np.testing.assert_array_equal(
            times, _rows(4, 1000.0)[0] + _rows(4, 2000.0)[0] + _rows(4, 3000.0)[0])
        assert fresh.compact("x")
        assert [p.name for p in link_dir.glob("seg-*")] == [seg.FULL_NAME]
        assert LinkStore(tmp_path).durable_rows("x") == 12
        assert quarantined.value == before
        assert not list(link_dir.glob("*.quarantined"))

    def test_crash_mid_upgrade_compaction_keeps_one_copy(self, tmp_path):
        # seg-full.col written, the .npz files it merged not yet deleted.
        store = LinkStore(tmp_path, segment_rows=4)
        _append(store, "x", 4, t0=1000.0)
        _append(store, "x", 4, t0=2000.0)
        assert store.compact("x")
        store.close()
        link_dir = next((tmp_path / "links").iterdir())
        write_npz_segment(link_dir / "seg-full.npz", 0, *_rows(4, 1000.0))
        write_npz_segment(link_dir / "seg-000000000004.npz", 4,
                          *_rows(4, 2000.0))
        fresh = LinkStore(tmp_path)
        assert fresh.durable_rows("x") == 8 and not fresh.degraded("x")
        assert [p.name for p in link_dir.glob("seg-*")] == [seg.FULL_NAME]

    def test_checkpoint_roundtrip_and_quarantine(self, tmp_path):
        store = LinkStore(tmp_path)
        state = {"meta": {"n": 3}, "bank": {"sum": np.longdouble(1.25)}}
        assert store.write_checkpoint("x", state)
        out = store.read_checkpoint("x")
        assert out["meta"]["n"] == 3
        assert out["bank"]["sum"] == np.longdouble(1.25)
        path = next((tmp_path / "links").iterdir()) / "checkpoint.bin"
        path.write_bytes(b"rot" + path.read_bytes()[3:])
        assert store.read_checkpoint("x") is None
        assert path.with_name(path.name + ".quarantined").exists()

    def test_stale_format_2_checkpoint_is_left_in_place(self, tmp_path):
        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", SMALL_STATE)
        path = next((tmp_path / "links").iterdir()) / "checkpoint.bin"
        path.write_bytes(as_format_2(path.read_bytes()))
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        assert store.read_checkpoint("x") is None
        assert quarantined.value == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["checkpoint.bin"]
        assert store.write_checkpoint("x", SMALL_STATE)
        assert path.read_bytes()[4:6] == struct.pack("<H", 3)
        assert store.read_checkpoint("x")["n"] == 3

    @pytest.mark.parametrize("failure", ["replace", "short-write"])
    def test_failed_checkpoint_write_leaves_no_temp_file(
            self, tmp_path, monkeypatch, failure):
        import repro.envelope as envelope_module

        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", {"n": 1})
        link_dir = next((tmp_path / "links").iterdir())

        def refuse(*args, **kwargs):
            raise OSError(errno.EIO, "replace refused")

        fdopen = os.fdopen

        def fdopen_short(fd, mode):
            handle = fdopen(fd, mode)
            write = handle.write

            def short_write(data):
                write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "disk full")

            handle.write = short_write
            return handle

        monkeypatch.setattr(
            envelope_module.os, *(("replace", refuse) if failure == "replace"
                                  else ("fdopen", fdopen_short)))
        errors = get_registry().counter("store_checkpoint_errors", "")
        before = errors.value
        assert store.write_checkpoint("x", {"n": 2}) is False
        monkeypatch.undo()
        assert errors.value == before + 1
        assert sorted(p.name for p in link_dir.iterdir()) == ["checkpoint.bin"]
        assert store.read_checkpoint("x") == {"n": 1}

    def test_checkpoint_write_and_read_are_timed_and_sized(self, tmp_path):
        registry = get_registry()
        written = registry.histogram("store_checkpoint_write_seconds")
        read = registry.histogram("store_checkpoint_read_seconds")
        stored = registry.counter("store_checkpoint_bytes")
        before = (written.summary()["count"], read.summary()["count"],
                  stored.value)
        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", SMALL_STATE)
        assert store.read_checkpoint("x") is not None
        path = next((tmp_path / "links").iterdir()) / "checkpoint.bin"
        assert written.summary()["count"] == before[0] + 1
        assert read.summary()["count"] == before[1] + 1
        assert stored.value == before[2] + path.stat().st_size
        snapshot = registry.snapshot()
        assert snapshot["store_checkpoint_write_seconds"]["p50"] > 0.0
        assert snapshot["store_checkpoint_read_seconds"]["p50"] > 0.0

    def test_append_never_raises_on_unwritable_dir(self, tmp_path, monkeypatch):
        store = LinkStore(tmp_path)
        _append(store, "x", 1)

        def boom(*a, **k):
            raise OSError("disk gone")

        monkeypatch.setattr(LinkStore, "_tail_handle", boom)
        times, values, sizes, ops = _rows(1, t0=2000.0)
        assert store.append_rows("x", times, values, sizes, ops) is False
        assert store.durable_rows("x") == 1  # unchanged, not corrupted

    def test_link_registry(self, tmp_path):
        store = LinkStore(tmp_path)
        _append(store, "b", 1)
        _append(store, "a", 1)
        assert store.link_names() == ["a", "b"]
        assert store.link_count() == 2
        assert not store.has("c")
        assert store.bytes_on_disk(max_age=0.0) > 0
