"""Unit tests for the durable tiered store (repro.store).

The WAL framing, segment container, checkpoint codec, and the
LinkStore's recovery ladder: torn tails truncate, crash-split
seal/truncate pairs dedup, corrupt files quarantine and leave a gap in
the row numbers, and a kill at any point of a seal leaves every
surviving row exactly once.
"""

from __future__ import annotations

import errno
import hashlib
import os
import signal
import struct
import time
import urllib.parse
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core import streaming
from repro.core.classification import paper_classification
from repro.core.predictors.registry import resolve
from repro.core.streaming import StreamingBank
from repro.envelope import Envelope
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


@contextmanager
def out_of_descriptors():
    """Lower this process's soft ``RLIMIT_NOFILE`` to its lowest free
    descriptor for one with-block: the next ``open`` or ``scandir``
    fails with ``EMFILE``."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    lowest_free = os.dup(0)
    os.close(lowest_free)
    resource.setrlimit(resource.RLIMIT_NOFILE, (lowest_free, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


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

    def test_every_truncation_and_bit_flip_scans_to_a_prefix(self):
        """The tail's decoder under the envelope kinds' damage sweep:
        whatever the bytes, ``scan`` returns the rows of the records
        before the first damaged one, accounts for every byte, and never
        raises."""
        rows = [(7 + i, 1e6 + 0.25 * i, 3e6 - i, 10 * MB * (i + 1), i % 2,
                 100 * i) for i in range(4)]
        blob = wal.encode(rows)

        def assert_prefix(data, records):
            scan = wal.scan(data)
            assert list(zip(scan.seqs, scan.times, scan.values, scan.sizes,
                            scan.ops, scan.offsets)) == rows[:records]
            assert scan.valid_bytes == records * wal.RECORD_SIZE
            assert scan.valid_bytes + scan.torn_bytes == len(data)

        for length in range(len(blob) + 1):
            assert_prefix(blob[:length], length // wal.RECORD_SIZE)
        for at in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[at] ^= 1 << bit
                assert_prefix(bytes(flipped), at // wal.RECORD_SIZE)

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

    def test_float_columns_are_byte_planes(self, tmp_path):
        """Format 3: one section of 25 bytes a row, declared by one
        length: byte ``k`` of every time, for ``k`` = 0..7, then the
        values the same way; sizes and ops row-major."""
        times, values, sizes, ops = (np.asarray(c) for c in _rows(5))
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, 0, times, values, sizes, ops, max_offset=9)
        raw = path.read_bytes()
        magic, version, aux, stored, length, *framing = \
            SEGMENT_FIELDS.unpack_from(raw)
        assert (magic, version, aux, length, framing) == (
            b"RSSG", 3, 0, 5 * 25, [0, 5, 9])
        assert SEGMENT_FIELDS.size + DIGEST_SIZE == 56  # fields 40 B
        assert len(raw) == 56 + stored
        body = inflate(raw[56:])
        assert len(body) == 5 * 25
        planes = [times.astype("<f8").view(np.uint8).reshape(5, 8)[:, k]
                  for k in range(8)]
        assert body[:40] == b"".join(plane.tobytes() for plane in planes)
        assert body[80:] == (sizes.astype("<i8").tobytes()
                             + ops.astype("i1").tobytes())

    def _reads_the_stale_link_bit_exactly(self, format_):
        path = EARLIER_SEGMENTS[format_]
        assert path.read_bytes()[:6] == b"RSSG" + struct.pack("<H", format_)
        assert seg.read_framing(path) == (0, 30, 0)
        data = seg.read_segment(path)
        records = stale_link_records()
        assert data.times.tobytes() == np.array(
            [r.end_time for r in records]).tobytes()
        assert data.values.tobytes() == np.array(
            [r.bandwidth for r in records]).tobytes()
        assert data.sizes.tolist() == [r.file_size for r in records]
        assert data.ops.tolist() == [0] * 30
        return data

    def test_format_1_segment_of_the_parent_commit_reads_bit_exactly(
            self, tmp_path):
        data = self._reads_the_stale_link_bit_exactly(1)
        # The same rows written by this build: format 3, and smaller.
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, *data[:1], *data[3:])
        assert seg.read_segment(path)[:2] == (0, 30)
        assert path.stat().st_size < EARLIER_SEGMENTS[1].stat().st_size

    def test_format_2_segment_of_the_commit_before_format_3_reads_bit_exactly(
            self, tmp_path):
        """What the parent wrote, and what this build writes for the same
        30 rows: the same deflated columns, 34 bytes less framing (16 of
        digest, 12 of three column lengths, 6 of zlib header and
        Adler-32).  A change that puts framing back fails here."""
        data = self._reads_the_stale_link_bit_exactly(2)
        parent = EARLIER_SEGMENTS[2].read_bytes()
        assert format_2_segment(*data[:1], *data[3:]) == parent
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, *data[:1], *data[3:])
        ours = path.read_bytes()
        assert len(ours) == len(parent) - 34 == 343
        assert ours[SEGMENT_FIELDS.size + DIGEST_SIZE:] == \
            parent[LEGACY_SEGMENT_FIELDS.size + LEGACY_DIGEST_SIZE + 2:-4]

    def test_a_newer_format_is_its_own_error(self, tmp_path):
        path = tmp_path / seg.segment_name(0)
        path.write_bytes(format_4_segment(0, *_rows(4)))
        for read in (seg.read_framing, seg.read_segment):
            with pytest.raises(seg.UnknownSegmentFormat, match="format 4"):
                read(path)

    def test_a_flipped_format_field_is_corrupt_not_newer(self, tmp_path):
        """Bit rot in the format field of a file this build reads: its
        digest still verifies under the format it was written as, so it
        is damage (quarantined), not a newer build's file (kept)."""
        path = tmp_path / seg.segment_name(0)
        seg.write_segment(path, 0, *_rows(4))
        current = path.read_bytes()
        for blob in (current, format_2_segment(0, *_rows(4)),
                     format_1_segment(0, *_rows(4))):
            for at in (4, 5):
                for bit in range(8):
                    flipped = bytearray(blob)
                    flipped[at] ^= 1 << bit
                    path.write_bytes(bytes(flipped))
                    with pytest.raises(CorruptSegment) as err:
                        seg.read_framing(path)
                    assert type(err.value) is CorruptSegment, (at, bit)

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


# ----------------------------------------------------------------------
# the envelope's bytes, packed by hand so the tests pin them
# ----------------------------------------------------------------------
#: What this build writes: the first 16 bytes of SHA-256 over the fields
#: and the stream, and a raw deflate stream (no zlib header, no Adler-32).
DIGEST_SIZE = 16
#: What segment formats 1-2 and checkpoint formats 3-7 were written in:
#: the whole SHA-256 and a zlib stream.
LEGACY_DIGEST_SIZE = 32


def deflate(body, level=6):
    """``body`` as the raw deflate stream this build stores."""
    deflater = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    return deflater.compress(body) + deflater.flush()


def inflate(stored):
    return zlib.decompress(stored, -zlib.MAX_WBITS)


def framed(fields, stored):
    """A file of this build around ``stored``: fields, digest, stream."""
    return (fields + hashlib.sha256(fields + stored).digest()[:DIGEST_SIZE]
            + stored)


def legacy_framed(layout, magic, version, aux, sections, meta=()):
    """A file in the legacy envelope (the whole SHA-256, a zlib stream),
    deflated at level 6 as the commit before segment format 3 wrote it."""
    stored = zlib.compress(b"".join(sections), 6)
    fields = struct.pack(layout, magic, version, aux, len(stored),
                         *map(len, sections), *meta)
    return fields + hashlib.sha256(fields + stored).digest() + stored


#: Segment headers: format 3 declares one section, 25 bytes a row;
#: formats 1 and 2 one section a column.
SEGMENT_FIELDS = struct.Struct("<4sHHIIQQQ")
LEGACY_SEGMENT_FIELDS = struct.Struct("<4sHHIIIIIQQQ")


def _columns(times, values, sizes, ops):
    return [np.ascontiguousarray(column, dtype=dtype) for column, dtype in
            zip((times, values, sizes, ops), ("<f8", "<f8", "<i8", "i1"))]


def _planes(column):
    return column.view(np.uint8).reshape(-1, 8).T.tobytes()


def format_1_segment(start_row, times, values, sizes, ops, max_offset=0):
    """A segment's bytes as builds before byte planes wrote them."""
    return legacy_framed(
        LEGACY_SEGMENT_FIELDS.format, b"RSSG", 1, 0,
        [column.tobytes() for column in _columns(times, values, sizes, ops)],
        (start_row, len(times), max_offset))


def format_2_segment(start_row, times, values, sizes, ops, max_offset=0):
    """A segment's bytes as the builds before format 3 wrote them: the
    same columns as format 3, one section each, in the legacy envelope."""
    columns = _columns(times, values, sizes, ops)
    return legacy_framed(
        LEGACY_SEGMENT_FIELDS.format, b"RSSG", 2, 0,
        [_planes(column) for column in columns[:2]]
        + [column.tobytes() for column in columns[2:]],
        (start_row, len(times), max_offset))


def format_4_segment(start_row, times, values, sizes, ops):
    """An intact segment of a format no build reads yet."""
    return Envelope(b"RSSG", 4, "IIII", meta="QQQ").pack(
        [column.tobytes() for column in _columns(times, values, sizes, ops)],
        meta=(start_row, len(times), 0))


def as_format_1_state_dir(root):
    """Rewrite every ``.col`` segment under ``root`` as format 1; returns
    the paths."""
    paths = sorted(root.rglob("seg-*.col"))
    for path in paths:
        data = seg.read_segment(path)
        path.write_bytes(format_1_segment(*data[:1], *data[3:], data.max_offset))
    return paths


def as_format_2_state_dir(root):
    """Rewrite every ``.col`` segment under ``root`` as format 2, as the
    builds before segment format 3 left them; returns the paths."""
    paths = sorted(root.rglob("seg-*.col"))
    for path in paths:
        data = seg.read_segment(path)
        path.write_bytes(format_2_segment(*data[:1], *data[3:], data.max_offset))
    return paths


def as_parent_state_dir(root):
    """Rewrite every checkpoint under ``root`` as format 8, as the commit
    before checkpoint format 9 left a state dir (its segments are this
    build's); returns the paths."""
    checkpoints = sorted(root.rglob("checkpoint.bin"))
    for path in checkpoints:
        store = LinkStore(path.parents[2])
        columns = store.load_columns(urllib.parse.unquote(path.parent.name))
        store.close()
        path.write_bytes(as_format_8(path.read_bytes(), columns))
    return checkpoints


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
# The checkpoint header of formats 7-9, packed by hand here so the tests
# pin the bytes: magic, format, long-double width, stored length, then
# the raw lengths of the fixed section and the ld and f8 pools.
CHECKPOINT_FIELDS = struct.Struct("<4sHHIIII")
DATA = Path(__file__).resolve().parents[1] / "data"
#: Checkpoints written by the commits before formats 4-9, for a 30-row,
#: 4-class link (``stale_link_records``); see tests/data/README.md.
EARLIER_CHECKPOINTS = {format_: DATA / f"checkpoint-format{format_}.bin"
                       for format_ in (3, 4, 5, 6, 7, 8)}
#: The same link's sealed segment as the commits before segment formats
#: 2 and 3 wrote it (see tests/data/README.md).
EARLIER_SEGMENTS = {format_: DATA / f"segment-format{format_}.col"
                    for format_ in (1, 2)}
SMALL_SIZES = np.array([10 * MB, 100 * MB, 500 * MB, 1 * GB], dtype=np.int64)


def stale_link_records():
    """The 30 records, one size class after another, whose link
    ``EARLIER_CHECKPOINTS`` are checkpoints of."""
    sizes = (10 * MB, 100 * MB, 500 * MB, 1 * GB)
    return [make_record(start=1_000_000.0 + 3600.0 * i, duration=10.0 + i % 7,
                        size=sizes[i % 4]) for i in range(30)]


def stale_link_files(root):
    """The files ``stale_link_records``' link leaves in a state dir under
    ``root``, by name, as ``tests/data/README.md`` says the earlier
    commits' files were made."""
    from repro.service import PredictionService

    service = PredictionService(store=LinkStore(root), clock=lambda: 0.0)
    for record in stale_link_records():
        service.predict("stale", record.file_size, now=record.end_time)
        service.observe("stale", record)
    assert service.checkpoint_all(seal=True) == 1
    service.store.close()
    return {path.name: path.read_bytes()
            for path in (root / "links" / "stale").iterdir()}


def small_rows(rows=12):
    """``(times, values, sizes, ops)`` of ``small_bank(rows)``, in time
    order."""
    i = np.arange(rows)
    return (1e6 + 3600.0 * i, 1e6 / 3 + 1e5 * ((7 * i) % 5),
            SMALL_SIZES[i % 4], np.zeros(rows, dtype=np.int8))


def small_bank(rows=12):
    """A real bank: ``rows`` rows over 4 classes, a window queried so a
    cursor sits mid-column and the min chains are in use."""
    bank = StreamingBank(CLS)
    for t, v, size, op in zip(*(column.tolist() for column in small_rows(rows))):
        bank.add(t, v, size, op)
    bank.answer(resolve("AVG5hr"), 10 * MB, 1e6 + 3600.0 * rows)
    return bank


def small_payload(bank=None):
    bank = bank or small_bank()
    return {"meta": {"version": bank.count + 2, "n": bank.count,
                     "classification": ck.fingerprint("50,250|a,b,c")},
            "bank": bank.state()}


def revive(blob, rows=None):
    """Decode all the way: the file, then the bank's own reading of it
    over ``rows`` — ``(times, values, sizes, ops)`` in time order, by
    default ``small_rows`` of the file's ``n``."""
    state = ck.loads(blob)
    bank = StreamingBank(CLS)
    rows = rows or small_rows(state["meta"]["n"])
    bank.load_state(state["bank"], rows, len(rows[0]))
    return state["meta"], bank


def sections(blob):
    """The raw ``[fixed, ld, f8]`` of a format-8 or format-9 file."""
    lengths = CHECKPOINT_FIELDS.unpack_from(blob)[4:]
    body = inflate(blob[CHECKPOINT_FIELDS.size + DIGEST_SIZE:])
    out, at = [], 0
    for length in lengths:
        out.append(bytearray(body[at:at + length]))
        at += length
    assert at == len(body)
    return out


def frame_checkpoint(fixed, ld=b"", f8=b"", ld_size=LD_SIZE, version=9):
    """A checkpoint file around these sections with a digest that verifies."""
    stored = deflate(bytes(fixed) + bytes(ld) + bytes(f8), 1)
    fields = CHECKPOINT_FIELDS.pack(b"RSCK", version, ld_size, len(stored),
                                    len(fixed), len(ld), len(f8))
    return framed(fields, stored)


def as_format_7(blob):
    """The same sections as format 7 stored them: the legacy envelope."""
    return legacy_framed(CHECKPOINT_FIELDS.format, b"RSCK", 7, LD_SIZE,
                         sections(blob))


#: A series as checkpoint format 8 laid it out: format 9's cursors, then
#: ``live``, the series' row count.
FORMAT_8_SERIES = struct.Struct(streaming._SERIES.format + "I")
FORMAT_8 = Envelope(b"RSCK", 8, "III", error=CorruptCheckpoint)


def format_8_bank(bank):
    """``bank.state()`` as format 8 laid it out: each series' cursors and
    row count, then all 18 of its sums, every window's, moved or not."""
    fixed = [streaming._BANK.pack(bank.rebuilds, len(bank._classes)),
             bytes(bank._classes)]
    ld = []
    for series in (bank._global, *bank._classes.values()):
        fixed.append(FORMAT_8_SERIES.pack(
            *(field for cursor in series._cursors
              for field in (cursor.start, cursor._expired_to)), series.count))
        for summary in (*series._temporal.values(), *series._ar.values()):
            ld += [getattr(summary, name) for name in summary.SUMS]
    return b"".join(fixed), np.array(ld, dtype=np.longdouble), np.empty(0)


def as_format_8(blob, columns):
    """The same checkpoint as the commit before format 9 wrote it, given
    the link's rows ``columns`` in arrival order."""
    state = ck.loads(blob)
    n = state["meta"]["n"]
    order = np.argsort(columns[0][:n], kind="stable")
    bank = StreamingBank(CLS)
    bank.load_state(state["bank"],
                    tuple(column[:n][order] for column in columns), n)
    payload = {"meta": state["meta"], "bank": format_8_bank(bank)}
    if "accuracy" in state:
        fixed, ld, f8 = state["accuracy"]._pools
        payload["accuracy"] = (bytes(fixed), ld, f8)
    return FORMAT_8.pack(sections(ck.dumps(payload)), aux=LD_SIZE)


def as_format_2(blob):
    """The same body as format 2 stored it: raw, the digest over it alone."""
    body = b"".join(sections(blob))
    return struct.pack("<4sHHIQQ32s", b"RSCK", 2, LD_SIZE, len(body), 0, 0,
                       hashlib.sha256(body).digest()) + body


class Tampered:
    """A real checkpoint taken apart so one claim in it can be changed;
    ``blob()`` frames it again with a digest that verifies.

    The bank's part starts after meta and the two part headers: bank
    header, one class index per class series, the link series, then one
    series per class.
    """

    #: Scalars of one series, by position in ``streaming._SERIES``.
    AVG5HR_START, AR5D_START = 0, 6

    def __init__(self, bank=None):
        bank = bank or small_bank()
        self.payload = small_payload(bank)
        self.fixed, self.ld, self.f8 = sections(ck.dumps(self.payload))
        self.parts_at = ck._META.size
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
        """Change how many items of ``pool`` (1 ld, 2 f8) the bank's
        part header says it holds."""
        counts = list(ck._PART.unpack_from(self.fixed, self.parts_at))
        counts[pool] += delta
        ck._PART.pack_into(self.fixed, self.parts_at, *counts)
        return self

    def blob(self, **kwargs):
        return frame_checkpoint(self.fixed, self.ld, self.f8, **kwargs)


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
                np.full(1000, 10 * MB), np.zeros(1000, dtype=np.int8))
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
        fixed, ld, f8 = payload["bank"]
        dirty = ld.copy()
        dirty.view(np.uint8).reshape(-1, LD_SIZE)[:, 10:] = 0xAB
        blob = ck.dumps(dict(payload, bank=(fixed, dirty, f8)))
        assert blob == ck.dumps(payload)
        pool = sections(blob)[1]
        assert len(pool) == LD_SIZE  # the one window that has moved
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
        magic, version, ld_size, stored, fixed, ld, f8 = \
            CHECKPOINT_FIELDS.unpack_from(blob)
        assert (magic, version) == (b"RSCK", 9)
        assert ld_size == LD_SIZE
        assert CHECKPOINT_FIELDS.size + DIGEST_SIZE == 40  # fields 24 B
        assert len(blob) == 40 + stored
        body = inflate(blob[40:])
        assert len(body) == fixed + ld + f8
        # No row, no min chain and no sum the rows give back: five
        # series' cursors, and the sum of the one window that has moved
        # (the link's AVG5hr).
        assert (ld, f8) == (LD_SIZE, 0)
        assert fixed == (ck._META.size + 2 * ck._PART.size
                         + streaming._BANK.size + 4
                         + 5 * streaming._SERIES.size)
        # No name: the classification as its digest, and no link at all.
        assert ck._META.size == 48
        assert body[:ck._META.size] == ck._META.pack(
            14, 12, bytes(16), ck.fingerprint("50,250|a,b,c"))

    def test_a_bare_bank_state_and_the_payload_around_it_both_encode(self):
        # The ledger's probes pass either.
        state = small_bank().state()
        bare = ck.loads(ck.dumps(state))
        assert bare["meta"]["n"] == -1 and "accuracy" not in bare
        # A link name is taken and not stored: its directory names it.
        probe = ck.loads(ck.dumps(
            {"meta": {"link": "probe", "version": 400, "n": 400}, "bank": state}))
        assert ck.dumps({"meta": {"link": "probe", "version": 400, "n": 400},
                         "bank": state}) == ck.dumps(
            {"meta": {"version": 400, "n": 400}, "bank": state})
        assert "link" not in probe["meta"]
        assert probe["meta"]["classification"] == bytes(16)
        for loaded in (bare, probe):
            bank = StreamingBank(CLS)
            bank.load_state(loaded["bank"], small_rows(), 12)
            assert repr(bank.state()) == repr(state)
        assert set(ck.loads(ck.dumps({"meta": {"n": 1}}))) == {"meta"}

    # Every truncation, every single-bit flip and the bounded inflate are
    # tests/unit/test_envelope.py, once for each kind of file.

    def test_stream_shorter_than_declared_is_corrupt(self):
        fixed, ld, f8 = sections(ck.dumps(small_payload()))
        body = bytes(fixed + ld + f8)
        for stored, lengths in [
                (body[:-8], (len(fixed), len(ld), len(f8))),
                (body, (len(fixed), len(ld) - LD_SIZE, len(f8)))]:
            stored = deflate(stored, 1)
            fields = CHECKPOINT_FIELDS.pack(
                b"RSCK", 9, LD_SIZE, len(stored), *lengths)
            with pytest.raises(CorruptCheckpoint, match="declared lengths"):
                ck.loads(framed(fields, stored))
        ragged = frame_checkpoint(fixed, ld, f8 + bytes(4))
        with pytest.raises(CorruptCheckpoint, match="whole number"):
            ck.loads(ragged)

    def test_dangling_pool_reference_is_corrupt(self):
        """A digest-valid body whose claims outrun its pools."""
        last = 4  # the last class series: nothing after it to borrow from
        more_classes = Tampered()
        streaming._BANK.pack_into(more_classes.fixed, more_classes.classes_at
                                  - streaming._BANK.size, 0, 1000)
        cases = {"class indexes": more_classes}
        short = Tampered().claim(1, -1)   # the one sum stored, gone
        del short.ld[-LD_SIZE:]
        cases["longdoubles"] = short
        # A class window said to have moved, whose sums were never stored.
        cases["a moved window"] = Tampered().set(1, Tampered.AR5D_START, 2)
        for name, case in cases.items():
            with pytest.raises(CorruptCheckpoint, match="less than was claimed"):
                revive(case.blob())

    def test_claims_that_contradict_the_column_are_corrupt(self):
        # The bank holds 12 rows in 4 classes, 3 rows each.
        twice = Tampered()
        twice.fixed[twice.classes_at + 1] = twice.fixed[twice.classes_at]
        nobody = Tampered()
        nobody.fixed[nobody.classes_at] = 7
        cases = [
            (twice, "not the rows' classes"),   # one class twice, one never
            (nobody, "not the rows' classes"),  # a class no row is in
            (Tampered().set(0, Tampered.AVG5HR_START, 10_000), "window starts"),
            (Tampered().set(1, Tampered.AVG5HR_START, 4), "window starts"),
            # A min chain comes from its window's rows; what the file
            # claims about it is where the window starts.
            (Tampered().set(0, Tampered.AR5D_START, 13), "window starts"),
            (Tampered().set(4, Tampered.AR5D_START, 4), "window starts"),
        ]
        for case, message in cases:
            with pytest.raises(CorruptCheckpoint, match=message):
                revive(case.blob())
        # The same checkpoint over other rows: another class mix, or
        # fewer rows than the link's AVG5hr has expired (7).
        times, values, sizes, ops = small_rows()
        with pytest.raises(CorruptCheckpoint, match="not the rows' classes"):
            revive(Tampered().blob(), (times, values, np.full(12, 10 * MB), ops))
        with pytest.raises(CorruptCheckpoint, match="window starts"):
            revive(Tampered().blob(), small_rows(6))

    def test_a_pool_with_bytes_left_over_is_corrupt(self):
        loose = Tampered()
        loose.f8 += bytes(8)   # in the file, in no part
        with pytest.raises(CorruptCheckpoint, match="more than was claimed"):
            ck.loads(loose.blob())
        claimed = Tampered().claim(2, 1)   # in the bank's part, in no series
        claimed.f8 += bytes(8)
        with pytest.raises(CorruptCheckpoint, match="more than was claimed"):
            revive(claimed.blob())
        spare_sum = Tampered().claim(1, 1)   # in the bank's part, in no series
        spare_sum.ld += bytes(LD_SIZE)
        with pytest.raises(CorruptCheckpoint, match="more than was claimed"):
            revive(spare_sum.blob())
        # The moved window said to start at row 0: its stored sum is
        # in the part, in no series.
        unmoved = Tampered().set(0, Tampered.AVG5HR_START, 0)
        with pytest.raises(CorruptCheckpoint, match="more than was claimed"):
            revive(unmoved.blob())

    def test_a_foreign_longdouble_width_is_stale(self):
        # The digest verifies, so the file is intact: another build's
        # (x86-64 and aarch64 disagree), left to the rows as any other.
        with pytest.raises(ck.StaleCheckpoint, match="long doubles"):
            ck.loads(Tampered().blob(ld_size=LD_SIZE ^ 4))

    def test_a_newer_format_is_stale_and_a_flipped_format_field_corrupt(self):
        # What a later build might write: the same magic, any layout.
        newer = Envelope(b"RSCK", 10, "IIII", error=CorruptCheckpoint).pack(
            (b"a later build's fixed part", bytes(LD_SIZE), b"", b""),
            aux=LD_SIZE)
        with pytest.raises(ck.StaleCheckpoint, match="format 10"):
            ck.loads(newer)
        # A file this build wrote whose format field flipped, to a newer
        # format or an older one, is damage.
        blob = ck.dumps(small_payload())
        for bit in range(16):
            flipped = bytearray(blob)
            flipped[4 + bit // 8] ^= 1 << bit % 8
            with pytest.raises(CorruptCheckpoint):
                ck.loads(bytes(flipped))

    @pytest.mark.parametrize("format_", [1, 2, 3, 4, 5, 6, 7, 8],
                             ids=lambda format_: f"format-{format_}")
    def test_an_earlier_format_is_stale_however_damaged(self, format_):
        """Formats 1 and 2 stored the body raw, the digest over it alone;
        3-8 are what the commits before formats 4-9 wrote.  This build
        reads none of them, so it cannot tell their damage from their
        layout: damaged or not, they are stale and left to the rows."""
        if format_ in EARLIER_CHECKPOINTS:
            old = EARLIER_CHECKPOINTS[format_].read_bytes()
        else:
            old = as_format_2(ck.dumps(small_payload()))
            old = old[:4] + struct.pack("<H", format_) + old[6:]
        assert old[:6] == b"RSCK" + struct.pack("<H", format_)
        damaged = bytearray(old)
        damaged[-1] ^= 0x01
        for blob in (old, bytes(damaged), old[:-1], old[:6]):
            with pytest.raises(ck.StaleCheckpoint,
                               match=f"format {format_}, this build reads 9"):
                ck.loads(blob)
        # Damage to the magic, or a file too short to name its format,
        # is still corrupt.
        for blob in (b"rsck" + old[4:], old[:5]):
            with pytest.raises(CorruptCheckpoint):
                ck.loads(blob)

    def test_format_7_of_the_commit_before_format_8_is_22_bytes_longer(
            self, tmp_path):
        """This build's checkpoint of the stale link, given its rows back,
        is the format-8 file the commit before format 9 wrote, bit for
        bit; and format 7 held that very body behind 22 bytes more
        framing (16 of digest, 6 of zlib header and Adler-32).  A change
        that puts framing back fails here, and so does one that gets a
        sum the format leaves to the rows wrong."""
        checkpoint = stale_link_files(tmp_path)["checkpoint.bin"]
        store = LinkStore(tmp_path)
        format_8 = as_format_8(checkpoint, store.load_columns("stale"))
        store.close()
        assert format_8 == EARLIER_CHECKPOINTS[8].read_bytes()
        parent = EARLIER_CHECKPOINTS[7].read_bytes()
        assert as_format_7(format_8) == parent
        assert len(format_8) == len(parent) - 22 == 1043
        assert format_8[CHECKPOINT_FIELDS.size + DIGEST_SIZE:] == \
            parent[CHECKPOINT_FIELDS.size + LEGACY_DIGEST_SIZE + 2:-4]

    def test_unlisted_scalar_types_pack_like_their_bases(self):
        meta = {"n": np.int32(7), "version": np.int64(9),
                "row_digest": bytearray(range(16)),
                "classification": memoryview(bytes(range(16, 32)))}
        out = ck.loads(ck.dumps({"meta": meta}))["meta"]
        assert out == {"n": 7, "version": 9, "row_digest": bytes(range(16)),
                       "classification": bytes(range(16, 32))}
        assert type(out["n"]) is int and type(out["row_digest"]) is bytes
        assert type(out["classification"]) is bytes
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
        times, _, _, _ = fresh.load_columns("x")
        assert len(times) == 20
        assert not list(link_dir.glob("*.quarantined"))

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
        assert quarantined.value == before + 1
        assert sorted(p.name for p in link_dir.iterdir()) == [
            victim.name + ".quarantined", "seg-000000000004.col"]
        np.testing.assert_array_equal(
            fresh.load_columns("x")[0], _rows(4, 2000.0)[0])

    def test_a_read_refused_for_want_of_a_descriptor_moves_no_file(
            self, tmp_path):
        """No file descriptor left is no proof of damage: the read raises
        ``EMFILE``, the segment stays where it is, and once descriptors
        are back the link holds every acked row (a quarantine here used
        to take the 20 sealed rows for good)."""
        store = LinkStore(tmp_path)
        _append(store, "x", 20)
        assert store.seal("x")
        _append(store, "x", 3, t0=2000.0)
        store.close()
        store = LinkStore(tmp_path)
        assert store.durable_rows("x") == 23  # recovered: the framing read
        files = sorted(p.name for p in (tmp_path / "links" / "x").iterdir())
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        with out_of_descriptors(), pytest.raises(OSError) as refused:
            store.load_columns("x")
        assert refused.value.errno == errno.EMFILE
        assert sorted(p.name for p in (tmp_path / "links" / "x").iterdir()) \
            == files
        assert quarantined.value == before
        want = _rows(20)[0] + _rows(3, 2000.0)[0]
        for opened in (store, LinkStore(tmp_path)):
            np.testing.assert_array_equal(opened.load_columns("x")[0], want)

    @pytest.mark.parametrize("stored", [0, 5], ids=["new-link", "unrecovered"])
    def test_an_append_whose_recovery_is_refused_returns_false(
            self, tmp_path, stored):
        """``append_rows`` never raises: on a link this store has not
        recovered yet, a recovery refused for want of a descriptor is a
        refused append (False, counted).  Nothing of it is cached, so the
        next append recovers and takes the row number after the stored
        rows."""
        if stored:
            first = LinkStore(tmp_path)
            _append(first, "x", stored)
            first.close()
        store = LinkStore(tmp_path)
        errors = get_registry().counter("store_append_errors", "")
        before = errors.value
        with out_of_descriptors():
            refused = store.append_rows("x", *_rows(1, 500.0))
        assert refused is False
        assert errors.value == before + 1
        _append(store, "x", 2, t0=2000.0)
        store.close()
        tail = wal.scan((tmp_path / "links" / "x" / "tail.wal").read_bytes())
        assert tail.seqs == list(range(stored + 2))
        np.testing.assert_array_equal(
            LinkStore(tmp_path).load_columns("x")[0],
            _rows(stored)[0] + _rows(2, 2000.0)[0])

    def test_a_newer_format_segment_is_kept_and_its_link_refused(
            self, tmp_path):
        """What a rollback across a segment format bump meets: the file is
        another build's primary data, so it stays where it is, nothing is
        quarantined, and the link is refused rather than served (and
        numbered) without those rows.  Other links are untouched."""
        store = LinkStore(tmp_path, segment_rows=4)
        _append(store, "x", 6, t0=1000.0)
        _append(store, "y", 6, t0=1000.0)
        store.close()
        link_dir = tmp_path / "links" / "x"
        newer = link_dir / seg.segment_name(0)
        newer.write_bytes(format_4_segment(0, *_rows(4)))
        before = sorted(p.name for p in link_dir.iterdir())
        quarantined = get_registry().counter("store_quarantined", "")
        count = quarantined.value
        fresh = LinkStore(tmp_path, segment_rows=4)
        for call in (fresh.durable_rows, fresh.load_columns,
                     fresh.seal, fresh.read_checkpoint,
                     lambda link: _append(fresh, link, 1, t0=9000.0)):
            with pytest.raises(seg.UnknownSegmentFormat):
                call("x")
        assert sorted(p.name for p in link_dir.iterdir()) == before
        assert newer.read_bytes()[:6] == b"RSSG\4\0"
        assert quarantined.value == count
        assert fresh.link_names() == ["x", "y"]
        assert fresh.durable_rows("y") == 6
        assert not list((tmp_path / "links" / "y").glob("*.quarantined"))

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

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        fresh = LinkStore(tmp_path / "killed", segment_rows=8)
        assert fresh.durable_rows("x") == 11
        assert quarantined.value == before
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
        assert fresh.durable_rows("x") == 8
        _append(fresh, "x", 4, t0=3000.0)  # seals beside the old files
        assert sorted(p.name for p in link_dir.glob("seg-*")) == [
            "seg-000000000000.npz", "seg-000000000004.npz",
            "seg-000000000008.col"]
        want = _rows(4, 1000.0)[0] + _rows(4, 2000.0)[0] + _rows(4, 3000.0)[0]
        for opened in (fresh, LinkStore(tmp_path)):
            np.testing.assert_array_equal(opened.load_columns("x")[0], want)
        assert quarantined.value == before
        assert not list(link_dir.glob("*.quarantined"))

    def test_crash_mid_upgrade_compaction_keeps_one_copy(self, tmp_path):
        """What a kill in an earlier build's compaction left: its
        ``seg-full.col`` written, the segments it merged not yet deleted.
        Recovery still reads one copy of each row and sweeps the rest."""
        link_dir = tmp_path / "links" / "x"
        link_dir.mkdir(parents=True)
        times, values, sizes, ops = (a + b for a, b in zip(
            _rows(4, 1000.0), _rows(4, 2000.0)))
        seg.write_segment(link_dir / "seg-full.col", 0,
                          times, values, sizes, ops)
        write_npz_segment(link_dir / "seg-000000000000.npz", 0,
                          *_rows(4, 1000.0))
        seg.write_segment(link_dir / seg.segment_name(4), 4, *_rows(4, 2000.0))
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        fresh = LinkStore(tmp_path)
        assert fresh.durable_rows("x") == 8
        np.testing.assert_array_equal(fresh.load_columns("x")[0], times)
        assert [p.name for p in link_dir.glob("seg-*")] == ["seg-full.col"]
        assert quarantined.value == before

    def test_checkpoint_roundtrip_and_quarantine(self, tmp_path):
        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", small_payload())
        out = store.read_checkpoint("x")
        assert out["meta"]["n"] == 12
        bank = StreamingBank(CLS)
        bank.load_state(out["bank"], small_rows(), 12)
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
        with pytest.raises(ck.StaleCheckpoint):
            store.read_checkpoint("x")
        assert quarantined.value == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["checkpoint.bin"]
        assert store.write_checkpoint("x", small_payload())
        assert path.read_bytes()[4:6] == struct.pack("<H", 9)
        assert store.read_checkpoint("x")["meta"]["n"] == 12

    def test_newer_format_checkpoint_is_left_in_place(self, tmp_path):
        store = LinkStore(tmp_path)
        assert store.write_checkpoint("x", small_payload())
        path = next((tmp_path / "links").iterdir()) / "checkpoint.bin"
        current = path.read_bytes()
        newer = Envelope(b"RSCK", 10, "III", error=CorruptCheckpoint).pack(
            (b"a later build's fixed part", b"", b""), aux=LD_SIZE)
        path.write_bytes(newer)
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        with pytest.raises(ck.StaleCheckpoint):
            store.read_checkpoint("x")
        assert quarantined.value == before
        assert path.read_bytes() == newer
        # The same field flipped in this build's own file: quarantined.
        path.write_bytes(current[:4] + struct.pack("<H", 10) + current[6:])
        assert store.read_checkpoint("x") is None
        assert quarantined.value == before + 1
        assert path.with_name(path.name + ".quarantined").exists()

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
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        assert store.seal("x")  # the tail's rows get a segment of their own
        assert quarantined.value == before + 1
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
        assert store.durable_rows("x") == 17
        assert not list(link_dir.glob("*.quarantined"))

    def test_small_segments_of_an_earlier_build_fold_into_one(self, tmp_path):
        """Before seals grew the open segment, every restart left each
        link it had resident one more small file."""
        link_dir = tmp_path / "links" / "x"
        link_dir.mkdir(parents=True)
        for k in range(5):
            seg.write_segment(link_dir / seg.segment_name(6 * k), 6 * k,
                              *_rows(6, 1000.0 * (k + 1)))
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        store = LinkStore(tmp_path)
        assert store.durable_rows("x") == 30
        _append(store, "x", 2, t0=9000.0)
        assert store.seal("x")
        assert segment_shapes(link_dir) == {"seg-000000000000.col": (0, 32)}
        for opened in (store, LinkStore(tmp_path)):
            times = opened.load_columns("x")[0]
            assert quarantined.value == before
            np.testing.assert_array_equal(times, sum(
                (_rows(6, 1000.0 * (k + 1))[0] for k in range(5)), [])
                + _rows(2, 9000.0)[0])

    @pytest.mark.parametrize("segments, kill_after", [
        (2, "write seg-000000000004.col"),
        (2, "unlink tail.wal"),
        (4, "write seg-000000000004.col"),
        (4, "unlink seg-000000000012.col"),
        (4, "unlink seg-000000000008.col"),
        (4, "unlink tail.wal"),
    ])
    def test_a_kill_anywhere_in_a_seal_of_a_gapped_link_keeps_one_copy(
            self, tmp_path, segments, kill_after):
        """The seal is the store's only rewrite.  On a link whose
        ``seg-0`` rotted, a seal with room to fold the small segments an
        earlier build left writes one segment, unlinks the ones it
        merged, then the tail; a kill after any of those steps leaves
        each surviving row exactly once, numbered as it was."""
        store = LinkStore(tmp_path, segment_rows=4)
        for k in range(segments):
            _append(store, "x", 4, t0=1000.0 * (k + 1))
        _append(store, "x", 2, t0=9000.0)
        store.close()
        link_dir = _link_dir(tmp_path)
        first = link_dir / seg.segment_name(0)
        raw = bytearray(first.read_bytes())
        raw[-3] ^= 0xFF
        first.write_bytes(bytes(raw))
        survivors = sum((_rows(4, 1000.0 * (k + 1))[0]
                         for k in range(1, segments)), []) + _rows(2, 9000.0)[0]
        np.testing.assert_array_equal(
            LinkStore(tmp_path).load_columns("x")[0], survivors)
        assert first.with_name(first.name + ".quarantined").exists()

        pid = os.fork()
        if pid == 0:  # the process that dies mid-seal
            code = 1
            try:
                real_write, real_unlink = seg.write_segment, Path.unlink

                def step(event):
                    if event == kill_after:
                        os._exit(86)

                def write(path, *args, **kwargs):
                    real_write(path, *args, **kwargs)
                    step(f"write {path.name}")

                def unlink(path, *args, **kwargs):
                    real_unlink(path, *args, **kwargs)
                    step(f"unlink {path.name}")

                seg.write_segment, Path.unlink = write, unlink
                code = 0 if LinkStore(tmp_path, segment_rows=64).seal("x") else 2
            finally:
                os._exit(code)
        for _ in range(3000):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the sealing process hung")
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 86

        fresh = LinkStore(tmp_path, segment_rows=64)
        assert fresh.durable_rows("x") == len(survivors)
        np.testing.assert_array_equal(fresh.load_columns("x")[0], survivors)
        assert segment_shapes(link_dir) == {
            "seg-000000000004.col": (4, len(survivors))}

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
