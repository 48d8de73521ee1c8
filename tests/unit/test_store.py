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
from pathlib import Path

import numpy as np
import pytest

from repro.core import streaming
from repro.core.classification import paper_classification
from repro.core.predictors.registry import resolve
from repro.core.streaming import StreamingBank
from repro.obs import get_registry
from repro.store import CorruptCheckpoint, CorruptSegment, LinkStore
from repro.store import checkpoint as ck
from repro.store import segments as seg
from repro.store import wal
from repro.units import GB, MB
from tests.conftest import make_record


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
CLS = paper_classification()
# The checkpoint header of formats 4 and 5, packed by hand here so the
# tests pin the bytes: magic, format, long-double width, stored length,
# then the raw lengths of the fixed section and the ld, f8 and idx pools.
CHECKPOINT_FIELDS = struct.Struct("<4sHHIIIII")
DATA = Path(__file__).resolve().parents[1] / "data"
#: Checkpoints written by the commits before formats 4 and 5, for a
#: 30-row, 4-class link (``stale_link_records``); see tests/data/README.md.
FORMAT_3_FILE = DATA / "checkpoint-format3.bin"
FORMAT_4_FILE = DATA / "checkpoint-format4.bin"
SMALL_SIZES = np.array([10 * MB, 100 * MB, 500 * MB, 1 * GB], dtype=np.int64)


def stale_link_records():
    """The 30 records, one size class after another, whose link
    ``FORMAT_3_FILE`` and ``FORMAT_4_FILE`` are checkpoints of."""
    sizes = (10 * MB, 100 * MB, 500 * MB, 1 * GB)
    return [make_record(start=1_000_000.0 + 3600.0 * i, duration=10.0 + i % 7,
                        size=sizes[i % 4]) for i in range(30)]


def small_rows(rows=12):
    """``(times, values, sizes)`` of ``small_bank(rows)``, in time order."""
    i = np.arange(rows)
    return (1e6 + 3600.0 * i, 1e6 / 3 + 1e5 * ((7 * i) % 5),
            SMALL_SIZES[i % 4])


def small_bank(rows=12):
    """A real bank: ``rows`` rows over 4 classes, a window queried so a
    cursor sits mid-column and the min chains are in use."""
    bank = StreamingBank(CLS)
    for t, v, size in zip(*(column.tolist() for column in small_rows(rows))):
        bank.add(t, v, size, 0)
    bank.answer(resolve("AVG5hr"), 10 * MB, 1e6 + 3600.0 * rows)
    return bank


def small_payload(bank=None):
    bank = bank or small_bank()
    return {"meta": {"link": "x", "version": bank.count + 2, "n": bank.count,
                     "classification": "50,250|a,b,c"},
            "bank": bank.state()}


def revive(blob, rows=None):
    """Decode all the way: the file, then the bank's own reading of it
    over ``rows`` — ``(times, values, sizes)`` in time order, by default
    ``small_rows`` of the file's ``n``."""
    state = ck.loads(blob)
    bank = StreamingBank(CLS)
    bank.load_state(state["bank"], *(rows or small_rows(state["meta"]["n"])))
    return state["meta"], bank


def sections(blob):
    """The raw ``[fixed, ld, f8, idx]`` of a format-4 or -5 file."""
    lengths = CHECKPOINT_FIELDS.unpack_from(blob)[4:]
    body = zlib.decompress(blob[CHECKPOINT_FIELDS.size + 32:])
    out, at = [], 0
    for length in lengths:
        out.append(bytearray(body[at:at + length]))
        at += length
    assert at == len(body)
    return out


def frame_checkpoint(fixed, ld=b"", f8=b"", idx=b"", ld_size=LD_SIZE, version=5):
    """A checkpoint file around these sections with a digest that verifies."""
    stored = zlib.compress(bytes(fixed) + bytes(ld) + bytes(f8) + bytes(idx), 1)
    fields = CHECKPOINT_FIELDS.pack(b"RSCK", version, ld_size, len(stored),
                                    len(fixed), len(ld), len(f8), len(idx))
    return fields + hashlib.sha256(fields + stored).digest() + stored


def as_format_2(blob):
    """The same body as format 2 stored it: raw, the digest over it alone."""
    body = zlib.decompress(blob[CHECKPOINT_FIELDS.size + 32:])
    return struct.pack("<4sHHIQQ32s", b"RSCK", 2, LD_SIZE, len(body), 0, 0,
                       hashlib.sha256(body).digest()) + body


class Tampered:
    """A real checkpoint taken apart so one claim in it can be changed;
    ``blob()`` frames it again with a digest that verifies.

    The bank's part starts after meta, its two strings and the two part
    headers: bank header, one class index per class series, the link
    series, then one series per class.
    """

    #: Scalars of one series, by position in ``streaming._SERIES``.
    AVG5HR_START, AR5D_CHAIN, LIVE = 0, 19, 22

    def __init__(self, bank=None):
        bank = bank or small_bank()
        self.payload = small_payload(bank)
        self.fixed, self.ld, self.f8, self.idx = sections(ck.dumps(self.payload))
        meta = self.payload["meta"]
        self.parts_at = (ck._META.size + len(meta["link"])
                         + len(meta["classification"]))
        self.classes_at = (self.parts_at + 2 * ck._PART.size
                           + streaming._BANK.size)
        self.series_from = self.classes_at + len(bank._classes)

    def series_at(self, k):
        """Offset of series ``k``: 0 the link's, 1.. the classes'."""
        return self.series_from + k * streaming._SERIES.size

    def set(self, k, field, value):
        at = self.series_at(k)
        scalars = list(streaming._SERIES.unpack_from(self.fixed, at))
        scalars[field] = value
        streaming._SERIES.pack_into(self.fixed, at, *scalars)
        return self

    def claim(self, pool, delta):
        """Change how many items of ``pool`` (1 ld, 2 f8, 3 idx) the
        bank's part header says it holds."""
        counts = list(ck._PART.unpack_from(self.fixed, self.parts_at))
        counts[pool] += delta
        ck._PART.pack_into(self.fixed, self.parts_at, *counts)
        return self

    def blob(self, **kwargs):
        return frame_checkpoint(self.fixed, self.ld, self.f8, self.idx, **kwargs)


class TestCheckpoint:
    def test_longdouble_roundtrip_is_exact(self):
        # A sum that differs from its float64 rounding — the whole point
        # of the longdouble pool.
        bank = StreamingBank(CLS)
        for i in range(1000):
            bank.add(float(i), 0.1 * i, 10 * MB, 0)
        total = bank._global._ar[None]._sum
        assert float(total) != total
        rows = (np.arange(1000.0), 0.1 * np.arange(1000),
                np.full(1000, 10 * MB))
        meta, revived = revive(
            ck.dumps({"meta": {"n": 1000}, "bank": bank.state()}), rows)
        restored = revived._global._ar[None]._sum
        assert isinstance(restored, np.longdouble)
        assert restored == total  # bit-exact, not approx
        assert meta["n"] == 1000 and revived.count == 1000
        assert repr(revived.state()) == repr(bank.state())

    def test_deterministic_bytes(self):
        assert ck.dumps(small_payload()) == ck.dumps(small_payload())

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="longdouble has no padding bytes here")
    def test_longdouble_padding_does_not_reach_the_file(self):
        # x87 long doubles carry 10 value bytes; the rest is whatever was
        # in memory (format 2 stored it), which would change the deflated
        # length from one write of the same state to the next.
        payload = small_payload()
        fixed, ld, f8, idx = payload["bank"]
        dirty = ld.copy()
        dirty.view(np.uint8).reshape(-1, LD_SIZE)[:, 10:] = 0xAB
        blob = ck.dumps(dict(payload, bank=(fixed, dirty, f8, idx)))
        assert blob == ck.dumps(payload)
        pool = sections(blob)[1]
        assert len(pool) == 5 * 18 * LD_SIZE  # the link and 4 classes
        for at in range(0, len(pool), LD_SIZE):
            assert pool[at + 10:at + LD_SIZE] == bytes(LD_SIZE - 10)
        assert repr(revive(blob)[1].state()) == repr(small_bank().state())

    def test_flipped_byte_raises(self):
        blob = bytearray(ck.dumps(small_payload()))
        blob[-3] ^= 0xFF
        with pytest.raises(CorruptCheckpoint):
            ck.loads(bytes(blob))

    def test_truncation_raises(self):
        blob = ck.dumps(small_payload())
        with pytest.raises(CorruptCheckpoint):
            ck.loads(blob[:-4])
        with pytest.raises(CorruptCheckpoint):
            ck.loads(b"")

    def test_bad_magic_raises(self):
        blob = ck.dumps(small_payload())
        with pytest.raises(CorruptCheckpoint):
            ck.loads(b"XXXX" + blob[4:])

    def test_header_carries_stored_and_raw_lengths(self):
        blob = ck.dumps(small_payload())
        magic, version, ld_size, stored, fixed, ld, f8, idx = \
            CHECKPOINT_FIELDS.unpack_from(blob)
        assert (magic, version) == (b"RSCK", 5)
        assert ld_size == LD_SIZE
        assert len(blob) == CHECKPOINT_FIELDS.size + 32 + stored
        body = zlib.decompress(blob[CHECKPOINT_FIELDS.size + 32:])
        assert len(body) == fixed + ld + f8 + idx
        # No row: five series' sums, the two min chains of each.
        assert (ld, f8) == (5 * 18 * LD_SIZE, 0)
        assert idx % 4 == 0 and idx >= 5 * 2 * 4
        assert body[ck._META.size:][:1] == b"x"  # the link's name, in the clear

    def test_a_bare_bank_state_and_the_payload_around_it_both_encode(self):
        # The ledger's probes pass either.
        state = small_bank().state()
        bare = ck.loads(ck.dumps(state))
        assert bare["meta"]["n"] == -1 and "accuracy" not in bare
        probe = ck.loads(ck.dumps(
            {"meta": {"link": "probe", "version": 400, "n": 400}, "bank": state}))
        assert probe["meta"]["link"] == "probe"
        assert probe["meta"]["classification"] == ""
        for loaded in (bare, probe):
            bank = StreamingBank(CLS)
            bank.load_state(loaded["bank"], *small_rows())
            assert repr(bank.state()) == repr(state)
        assert set(ck.loads(ck.dumps({"meta": {"n": 1}}))) == {"meta"}

    # Every truncation, every single-bit flip and the bounded inflate are
    # tests/unit/test_envelope.py, once for each kind of file.

    def test_stream_shorter_than_declared_is_corrupt(self):
        fixed, ld, f8, idx = sections(ck.dumps(small_payload()))
        body = bytes(fixed + ld + f8 + idx)
        for stored, lengths in [
                (body[:-8], (len(fixed), len(ld), len(f8), len(idx))),
                (body, (len(fixed), len(ld), len(f8), len(idx) - 4))]:
            fields = CHECKPOINT_FIELDS.pack(
                b"RSCK", 5, LD_SIZE, len(zlib.compress(stored, 1)), *lengths)
            stored = zlib.compress(stored, 1)
            with pytest.raises(CorruptCheckpoint, match="declared lengths"):
                ck.loads(fields + hashlib.sha256(fields + stored).digest() + stored)
        ragged = frame_checkpoint(fixed, ld, f8 + bytes(4), idx)
        with pytest.raises(CorruptCheckpoint, match="whole number"):
            ck.loads(ragged)

    def test_dangling_pool_reference_is_corrupt(self):
        """A digest-valid body whose claims outrun its pools."""
        last = 4  # the last class series: nothing after it to borrow from
        more_classes = Tampered()
        streaming._BANK.pack_into(more_classes.fixed, more_classes.classes_at
                                  - streaming._BANK.size, 0, 1000)
        cases = {
            "class indexes": more_classes,
            "min-chain entries": Tampered().set(last, Tampered.AR5D_CHAIN, 9),
        }
        short = Tampered().claim(1, -1)   # 18 longdoubles a series, one gone
        del short.ld[-LD_SIZE:]
        cases["longdoubles"] = short
        for name, case in cases.items():
            with pytest.raises(CorruptCheckpoint, match="less than was claimed"):
                revive(case.blob())

    def test_claims_that_contradict_the_column_are_corrupt(self):
        # The bank holds 12 rows in 4 classes, 3 rows each.
        far_chain = Tampered()
        far_chain.idx[0:4] = struct.pack("<I", 10_000)
        twice = Tampered()
        twice.fixed[twice.classes_at + 1] = twice.fixed[twice.classes_at]
        nobody = Tampered()
        nobody.fixed[nobody.classes_at] = 7
        cases = [
            (twice, "not the rows' classes"),   # one class twice, one never
            (nobody, "not the rows' classes"),  # a class no row is in
            (Tampered().set(0, Tampered.LIVE, 13), "longer than its series"),
            (Tampered().set(2, Tampered.LIVE, 4), "longer than its series"),
            (far_chain, "min-chain"),
            (Tampered().set(0, Tampered.AVG5HR_START, 10_000), "window starts"),
            (Tampered().set(1, Tampered.AVG5HR_START, 4), "window starts"),
        ]
        for case, message in cases:
            with pytest.raises(CorruptCheckpoint, match=message):
                revive(case.blob())
        # The same checkpoint over other rows: another class mix, or
        # fewer rows than a live column holds.
        times, values, sizes = small_rows()
        with pytest.raises(CorruptCheckpoint, match="not the rows' classes"):
            revive(Tampered().blob(), (times, values, np.full(12, 10 * MB)))
        with pytest.raises(CorruptCheckpoint, match="longer than its series"):
            revive(Tampered().blob(), small_rows(8))

    def test_a_pool_with_bytes_left_over_is_corrupt(self):
        loose = Tampered()
        loose.f8 += bytes(8)   # in the file, in no part
        with pytest.raises(CorruptCheckpoint, match="more than was claimed"):
            ck.loads(loose.blob())
        claimed = Tampered().claim(2, 1)   # in the bank's part, in no series
        claimed.f8 += bytes(8)
        with pytest.raises(CorruptCheckpoint, match="more than was claimed"):
            revive(claimed.blob())
        spare_index = Tampered().claim(3, 1)
        spare_index.idx += bytes(4)
        with pytest.raises(CorruptCheckpoint, match="more than was claimed"):
            revive(spare_index.blob())

    def test_a_foreign_longdouble_width_is_corrupt(self):
        with pytest.raises(CorruptCheckpoint, match="foreign ABI"):
            ck.loads(Tampered().blob(ld_size=LD_SIZE ^ 4))

    def test_format_4_reads_its_meta_and_accuracy_and_no_bank(self):
        written_by_the_parent_commit = FORMAT_4_FILE.read_bytes()
        assert written_by_the_parent_commit[:6] == b"RSCK\4\0"
        old = ck.loads(written_by_the_parent_commit)
        assert set(old) == {"meta", "accuracy"}
        assert old["meta"]["n"] == old["meta"]["version"] == 30
        assert old["meta"]["link"] == "stale"
        assert old["meta"]["row_digest"] == bytes(16)
        from repro.obs.quality import AccuracyTracker

        tracker = AccuracyTracker()
        assert tracker.load_link_state("stale", old["accuracy"])
        assert tracker.status()["links"]["stale"]["overall"]["count"] == 26
        damaged = bytearray(written_by_the_parent_commit)
        damaged[-1] ^= 0x01
        with pytest.raises(CorruptCheckpoint):
            ck.loads(bytes(damaged))

    def test_intact_format_2_is_stale_and_a_damaged_one_corrupt(self):
        self._stale_then_corrupt(as_format_2(ck.dumps(small_payload())))

    def test_intact_format_1_and_3_are_stale_and_damaged_ones_corrupt(self):
        old = as_format_2(ck.dumps(small_payload()))
        self._stale_then_corrupt(old[:4] + struct.pack("<H", 1) + old[6:])
        written_by_the_parent_commit = FORMAT_3_FILE.read_bytes()
        assert written_by_the_parent_commit[:6] == b"RSCK\3\0"
        self._stale_then_corrupt(written_by_the_parent_commit)

    @staticmethod
    def _stale_then_corrupt(old):
        with pytest.raises(ck.StaleCheckpoint):
            ck.loads(old)
        damaged = bytearray(old)
        damaged[-1] ^= 0x01
        with pytest.raises(CorruptCheckpoint):
            ck.loads(bytes(damaged))
        with pytest.raises(CorruptCheckpoint):
            ck.loads(old[:-1])
        with pytest.raises(CorruptCheckpoint):
            ck.loads(old[:20])

    def test_unlisted_scalar_types_pack_like_their_bases(self):
        class Label(str):
            pass

        meta = {"n": np.int32(7), "version": np.int64(9), "link": Label("t"),
                "row_digest": bytearray(range(16))}
        out = ck.loads(ck.dumps({"meta": meta}))["meta"]
        assert out == {"n": 7, "version": 9, "row_digest": bytes(range(16)),
                       "link": "t", "classification": ""}
        assert type(out["n"]) is int and type(out["row_digest"]) is bytes
        assert type(out["link"]) is str
        with pytest.raises(TypeError):
            ck.dumps({"meta": {"n": 1, "colour": "red"}})
        with pytest.raises(TypeError):
            ck.dumps({"meta": {"n": 1}, "banks": small_bank().state()})


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
        assert store.write_checkpoint("x", small_payload())
        out = store.read_checkpoint("x")
        assert out["meta"]["n"] == 12
        bank = StreamingBank(CLS)
        bank.load_state(out["bank"], *small_rows())
        assert repr(bank.state()) == repr(small_bank().state())
        path = next((tmp_path / "links").iterdir()) / "checkpoint.bin"
        path.write_bytes(b"rot" + path.read_bytes()[3:])
        assert store.read_checkpoint("x") is None
        assert path.with_name(path.name + ".quarantined").exists()

    def test_stale_format_2_checkpoint_is_left_in_place(self, tmp_path):
        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", small_payload())
        path = next((tmp_path / "links").iterdir()) / "checkpoint.bin"
        path.write_bytes(as_format_2(path.read_bytes()))
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        assert store.read_checkpoint("x") is None
        assert quarantined.value == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["checkpoint.bin"]
        assert store.write_checkpoint("x", small_payload())
        assert path.read_bytes()[4:6] == struct.pack("<H", 5)
        assert store.read_checkpoint("x")["meta"]["n"] == 12

    @pytest.mark.parametrize("failure", ["replace", "short-write"])
    def test_failed_checkpoint_write_leaves_no_temp_file(
            self, tmp_path, monkeypatch, failure):
        import repro.envelope as envelope_module

        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", {"meta": {"n": 1}})
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
        assert store.write_checkpoint("x", {"meta": {"n": 2}}) is False
        monkeypatch.undo()
        assert errors.value == before + 1
        assert sorted(p.name for p in link_dir.iterdir()) == ["checkpoint.bin"]
        assert store.read_checkpoint("x")["meta"]["n"] == 1

    def test_checkpoint_write_and_read_are_timed_and_sized(self, tmp_path):
        registry = get_registry()
        written = registry.histogram("store_checkpoint_write_seconds")
        read = registry.histogram("store_checkpoint_read_seconds")
        stored = registry.counter("store_checkpoint_bytes")
        before = (written.summary()["count"], read.summary()["count"],
                  stored.value)
        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", small_payload())
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


# ----------------------------------------------------------------------
# sealing: the open segment, the tail that leaves, the evict-path rule
# ----------------------------------------------------------------------
def _link_dir(root):
    return next((root / "links").iterdir())


def segment_shapes(link_dir):
    """``{file name: (start_row, rows)}`` of the live segments."""
    return {p.name: seg.read_framing(p)[:2]
            for p in sorted(link_dir.glob("seg-*.col"))}


class TestSeal:
    def test_seal_grows_the_open_segment_and_removes_the_tail(self, tmp_path):
        from repro.obs import get_event_bus

        sealed = get_registry().counter("store_rows_sealed", "")
        before = sealed.value
        store = LinkStore(tmp_path, segment_rows=16)
        _append(store, "x", 5, t0=1000.0)
        assert store.seal("x")
        link_dir = _link_dir(tmp_path)
        assert sorted(p.name for p in link_dir.iterdir()) == [
            "seg-000000000000.col"]
        _append(store, "x", 4, t0=2000.0)
        assert store.seal("x")  # same name, more rows, tail gone again
        assert segment_shapes(link_dir) == {"seg-000000000000.col": (0, 9)}
        assert not (link_dir / "tail.wal").exists()
        _append(store, "x", 8, t0=3000.0)
        assert store.seal("x")  # 9 + 8 > 16: the last one counts as full
        assert segment_shapes(link_dir) == {
            "seg-000000000000.col": (0, 9), "seg-000000000009.col": (9, 8)}
        # Rows written into segment files, the rewrite included.
        assert sealed.value - before == 5 + 9 + 8
        # This store's seals (the process-wide ring also holds, and
        # drops, other tests' events).
        events = [e for e in get_event_bus().events(kind="store.seal")
                  if e.fields["path"].startswith(str(tmp_path))]
        assert [(e.fields["rows"], e.fields["merged"]) for e in events] == [
            (5, False), (4, True), (8, False)]
        want = [sum(cols, []) for cols in zip(
            _rows(5, 1000.0), _rows(4, 2000.0), _rows(8, 3000.0))]
        store.close()
        for opened in (store, LinkStore(tmp_path, segment_rows=16)):
            assert opened.durable_rows("x") == 17
            for got, column in zip(opened.load_columns("x"), want):
                np.testing.assert_array_equal(got, column)

    def test_seal_of_an_empty_tail_touches_no_file(self, tmp_path, monkeypatch):
        store = LinkStore(tmp_path)
        _append(store, "x", 3)
        assert store.seal("x")

        def touched(*args, **kwargs):
            raise AssertionError("an empty tail was read")

        monkeypatch.setattr(LinkStore, "_read_tail", touched)
        assert store.seal("x") is False
        assert store.seal("x", amortized=True) is False

    @pytest.mark.parametrize("kept", [0.5, 0.4],
                             ids=["short-by-whole-records", "torn"])
    def test_seal_keeps_a_tail_it_could_not_read_in_full(self, tmp_path, kept):
        from repro.faults import FaultInjector, injected

        store = LinkStore(tmp_path)
        _append(store, "x", 6)
        tail = _link_dir(tmp_path) / "tail.wal"
        errors = get_registry().counter("store_seal_errors", "")
        before = errors.value
        injector = FaultInjector()
        injector.inject("store.segment", truncate=kept, path=str(tail))
        with injected(injector):
            assert store.seal("x") is False
        assert injector.total_fired() == 1
        assert errors.value == before + 1
        assert tail.stat().st_size == 6 * wal.RECORD_SIZE
        assert not list(_link_dir(tmp_path).glob("seg-*"))
        assert store.seal("x")  # the next one reads it whole
        assert store.durable_rows("x") == 6
        assert len(LinkStore(tmp_path).load_columns("x")[0]) == 6

    def test_corrupt_open_segment_met_while_merging(self, tmp_path):
        store = LinkStore(tmp_path)
        _append(store, "x", 5, t0=1000.0)
        assert store.seal("x")
        link_dir = _link_dir(tmp_path)
        victim = link_dir / "seg-000000000000.col"
        raw = bytearray(victim.read_bytes())
        raw[-3] ^= 0xFF
        victim.write_bytes(bytes(raw))
        _append(store, "x", 3, t0=2000.0)
        assert store.seal("x")  # the tail's rows get a segment of their own
        assert store.degraded("x")
        assert sorted(p.name for p in link_dir.iterdir()) == [
            "seg-000000000000.col.quarantined", "seg-000000000005.col"]
        np.testing.assert_array_equal(
            store.load_columns("x")[0], _rows(3, 2000.0)[0])

    def test_amortized_seal_waits_for_the_tail_to_match_the_open_segment(
            self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=16)
        _append(store, "x", 8, t0=1000.0)
        assert store.seal("x", amortized=True)  # no open segment yet
        link_dir = _link_dir(tmp_path)
        _append(store, "x", 3, t0=2000.0)
        assert store.seal("x", amortized=True) is False  # 3 < 8: not worth 11
        assert (link_dir / "tail.wal").stat().st_size == 3 * wal.RECORD_SIZE
        _append(store, "x", 5, t0=3000.0)
        assert store.seal("x", amortized=True)  # 8 >= 8: doubles it
        assert segment_shapes(link_dir) == {"seg-000000000000.col": (0, 16)}
        _append(store, "x", 1, t0=4000.0)
        assert store.seal("x", amortized=True)  # a full segment is not open
        assert segment_shapes(link_dir) == {
            "seg-000000000000.col": (0, 16), "seg-000000000016.col": (16, 1)}
        assert store.durable_rows("x") == 17 and not store.degraded("x")

    def test_small_segments_of_an_earlier_build_fold_into_one(self, tmp_path):
        """Before seals grew the open segment, every restart left each
        link it had resident one more small file."""
        link_dir = tmp_path / "links" / "x"
        link_dir.mkdir(parents=True)
        for k in range(5):
            seg.write_segment(link_dir / seg.segment_name(6 * k), 6 * k,
                              *_rows(6, 1000.0 * (k + 1)))
        store = LinkStore(tmp_path)
        assert store.durable_rows("x") == 30
        _append(store, "x", 2, t0=9000.0)
        assert store.seal("x")
        assert segment_shapes(link_dir) == {"seg-000000000000.col": (0, 32)}
        for opened in (store, LinkStore(tmp_path)):
            times = opened.load_columns("x")[0]
            assert not opened.degraded("x")
            np.testing.assert_array_equal(times, sum(
                (_rows(6, 1000.0 * (k + 1))[0] for k in range(5)), [])
                + _rows(2, 9000.0)[0])

    def test_group_commit_after_an_auto_seal_opens_no_empty_tail(self, tmp_path):
        store = LinkStore(tmp_path, segment_rows=4, fsync=True)
        assert store.append_rows("x", *_rows(4), sync=False)  # seals itself
        assert store.group_commit(["x"])
        assert sorted(p.name for p in _link_dir(tmp_path).iterdir()) == [
            "seg-000000000000.col"]

    def test_close_leaves_the_handle_cache_an_lru(self, tmp_path):
        store = LinkStore(tmp_path, max_open_tails=2)
        _append(store, "a", 1)
        store.close()
        for link in "bcde":  # past max_open_tails: the cache must evict
            _append(store, link, 1)

    def test_short_write_is_refused_and_cut_off_before_the_next_append(
            self, tmp_path, monkeypatch):
        """An unbuffered handle reports a full disk as a count.  The
        append must not be acked, and the partial record must not stay
        in front of rows that are."""
        store = LinkStore(tmp_path)
        _append(store, "x", 2)
        tail = _link_dir(tmp_path) / "tail.wal"
        real = LinkStore._tail_handle

        class ShortOnce:
            def __init__(self, handle):
                self.handle = handle

            def write(self, blob):
                return self.handle.write(blob[:20])

            def __getattr__(self, name):
                return getattr(self.handle, name)

        monkeypatch.setattr(
            LinkStore, "_tail_handle", lambda self, meta: ShortOnce(real(self, meta)))
        errors = get_registry().counter("store_append_errors", "")
        before = errors.value
        times, values, sizes, ops = _rows(1, t0=2000.0)
        assert store.append_rows("x", times, values, sizes, ops) is False
        assert errors.value == before + 1
        assert store.durable_rows("x") == 2
        monkeypatch.undo()
        _append(store, "x", 2, t0=3000.0)  # acked: must survive a reopen
        assert tail.stat().st_size == 4 * wal.RECORD_SIZE
        assert wal.scan(tail.read_bytes()).seqs == [0, 1, 2, 3]
        store.close()
        fresh = LinkStore(tmp_path)
        assert fresh.durable_rows("x") == 4
        np.testing.assert_array_equal(
            fresh.load_columns("x")[0], _rows(2)[0] + _rows(2, 3000.0)[0])
