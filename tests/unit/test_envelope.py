"""The shared file envelope, through each of its callers.

One decoder contract, two kinds of file (checkpoint, sealed segment in
its current format and in the two it still reads): damaged bytes raise
the kind's own error and nothing else, never a decoded value; nothing
is inflated past what the verified header declared; and a file of a
format the kind does not read is another build's, by one rule for both.
Each kind's header is packed by hand here, so the tests pin the bytes,
and so are its digest, its stream's wrapper and its deflate level.
"""

from __future__ import annotations

import ast
import hashlib
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.envelope import CorruptFile, Envelope, LegacyEnvelope, atomic_write
from repro.store import CorruptCheckpoint, CorruptSegment
from repro.store import checkpoint as ck
from repro.store import segments as seg
from tests.unit.test_store import (LD_SIZE, as_format_2, as_format_7, revive,
                                   small_bank)


class Kind:
    """One caller of the envelope: a small valid file, its hand-packed
    header, and a ``decode`` that raises ``error`` on untrusted bytes.
    This build writes the first 16 bytes of SHA-256 and a raw deflate
    stream; a legacy kind the whole digest and a zlib stream."""

    digest_size, wbits = 16, -zlib.MAX_WBITS

    def __init__(self, tmp_path):
        self.path = tmp_path / self.name

    def deflate(self, body, level=None):
        deflater = zlib.compressobj(
            self.level if level is None else level, zlib.DEFLATED, self.wbits)
        return deflater.compress(body) + deflater.flush()

    def inflate(self, stored):
        return zlib.decompress(stored, self.wbits)

    def frame(self, stored, lengths, meta=None, version=None):
        """A file of this kind around ``stored`` whose digest verifies."""
        fields = self.fields.pack(
            self.magic, self.version if version is None else version,
            self.aux, len(stored), *lengths,
            *(self.meta if meta is None else meta))
        digest = hashlib.sha256(fields + stored).digest()[:self.digest_size]
        return fields + digest + stored


class CheckpointKind(Kind):
    name = "checkpoint.bin"
    fields = struct.Struct("<4sHHIIII")
    magic, version, aux, meta = b"RSCK", 8, LD_SIZE, ()
    readable = (8,)
    level = 6
    error = CorruptCheckpoint
    bomb_lengths = (1024, 0, 0)

    def blob(self):
        """A real bank's: 3 rows in 3 classes, one window queried."""
        return ck.dumps({"meta": {"n": 3}, "bank": small_bank(rows=3).state()})

    def decode(self, data):
        return revive(data)  # the file, then the bank's reading of it

    def assert_foreign(self, data, format_):
        with pytest.raises(ck.StaleCheckpoint, match=f"format {format_},"):
            self.decode(data)


class SegmentKind(Kind):
    """Format 3: the four columns as one section, 25 bytes a row."""

    name = "seg-000000000007.col"
    fields = struct.Struct("<4sHHIIQQQ")
    magic, version, aux, meta = b"RSSG", 3, 0, (7, 40, 0)
    readable = (1, 2, 3)
    level = 6
    error = CorruptSegment
    bomb_lengths = (1000,)  # what 40 rows declare
    ROWS = ([1.5, 2.5, 4.0], [9.0, 8.0, 7.0], [10, 20, 30], [0, 1, 0])

    def blob(self):
        seg.write_segment(self.path, 7, *self.ROWS, max_offset=99)
        return self.path.read_bytes()

    def decode(self, data):
        self.path.write_bytes(data)
        seg.read_framing(self.path)
        data = seg.read_segment(self.path)
        assert [column.tolist() for column in data[3:]] == list(self.ROWS)
        return data

    def assert_foreign(self, data, format_):
        with pytest.raises(seg.UnknownSegmentFormat, match=f"format {format_},"):
            self.decode(data)


class Format2SegmentKind(SegmentKind):
    """What builds before format 3 wrote: the same columns, one section
    each, in the legacy envelope.  Read, never written, so packed here
    by hand."""

    digest_size, wbits = 32, zlib.MAX_WBITS
    fields = struct.Struct("<4sHHIIIIIQQQ")
    version = 2
    bomb_lengths = (320, 320, 320, 40)  # what 40 rows declare: 1,000 B

    def sections(self):
        columns = [np.asarray(column, dtype=dtype) for column, dtype
                   in zip(self.ROWS, ("<f8", "<f8", "<i8", "i1"))]
        return ([column.view(np.uint8).reshape(-1, 8).T.tobytes()
                 for column in columns[:2]]
                + [column.tobytes() for column in columns[2:]])

    def blob(self):
        sections = self.sections()
        return self.frame(self.deflate(b"".join(sections)),
                          [len(section) for section in sections], (7, 3, 99))


class Format1SegmentKind(Format2SegmentKind):
    """What builds before byte planes wrote: every column row-major, at
    the deflate level of its day."""

    version, level = 1, 1

    def sections(self):
        return [np.asarray(column, dtype=dtype).tobytes() for column, dtype
                in zip(self.ROWS, ("<f8", "<f8", "<i8", "i1"))]


@pytest.fixture(params=[CheckpointKind, SegmentKind, Format2SegmentKind,
                        Format1SegmentKind],
                ids=["checkpoint", "segment", "segment-format-2",
                     "segment-format-1"])
def kind(request, tmp_path):
    return request.param(tmp_path)


def test_header_is_the_pinned_struct(kind):
    blob = kind.blob()
    magic, version, aux, stored, *rest = kind.fields.unpack_from(blob)
    assert (magic, version, aux) == (kind.magic, kind.version, kind.aux)
    head = kind.fields.size + kind.digest_size
    assert len(blob) == head + stored
    body = kind.inflate(blob[head:])
    assert len(body) == sum(rest[:len(kind.bomb_lengths)])
    assert blob[head:] == kind.deflate(body)
    assert blob == kind.frame(blob[head:], rest[:len(kind.bomb_lengths)],
                              rest[len(kind.bomb_lengths):])
    kind.decode(blob)  # and it reads


def test_every_truncation_is_corrupt(kind):
    blob = kind.blob()
    for length in range(len(blob)):
        with pytest.raises(kind.error):
            kind.decode(blob[:length])
    with pytest.raises(kind.error):
        kind.decode(blob + b"\0")


def test_every_single_bit_flip_is_corrupt(kind):
    blob = kind.blob()
    assert len(blob) < 500  # keeps the sweep at a few thousand decodes
    for at in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[at] ^= 1 << bit
            with pytest.raises(kind.error):
                kind.decode(bytes(flipped))


def test_a_foreign_format_is_another_builds_and_a_flipped_one_corrupt(kind):
    """:func:`repro.envelope.foreign_format`, through each kind: a file
    written in a format the kind does not read, older or newer, is left
    to the build that reads it (a checkpoint is stale, a segment its own
    error), whatever its body; this build's file with any bit of its
    format field flipped is corrupt."""
    blob = kind.blob()
    rest = kind.fields.unpack_from(blob)[4:]
    stored = blob[kind.fields.size + kind.digest_size:]
    sections = len(kind.bomb_lengths)
    for format_ in sorted(set(range(10)) - set(kind.readable)) + [0xFFFF]:
        kind.assert_foreign(kind.frame(stored, rest[:sections],
                                       rest[sections:], version=format_),
                            format_)
    for bit in range(16):
        flipped = bytearray(blob)
        flipped[4 + bit // 8] ^= 1 << bit % 8
        with pytest.raises(kind.error) as err:
            kind.decode(bytes(flipped))
        assert type(err.value) is kind.error, bit
    if isinstance(kind, CheckpointKind):
        # Formats 1 and 2 stored the body raw, the digest over it alone;
        # format 7 is this body in the legacy envelope.
        raw = as_format_2(blob)
        for format_ in (1, 2):
            kind.assert_foreign(
                raw[:4] + struct.pack("<H", format_) + raw[6:], format_)
        kind.assert_foreign(as_format_7(blob), 7)


def test_inflate_stops_at_the_declared_lengths(kind):
    # An intact digest over a stream that inflates to 1 MB behind a
    # header that claims 1 KB: rejected, and never inflated.
    bomb = kind.frame(kind.deflate(bytes(1 << 20), 1), kind.bomb_lengths)
    tracemalloc.start()
    try:
        with pytest.raises(kind.error):
            kind.decode(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_stream_shorter_than_declared_is_corrupt(kind):
    lengths = kind.bomb_lengths
    short = kind.frame(kind.deflate(bytes(sum(lengths) - 1), 1), lengths)
    with pytest.raises(kind.error):
        kind.decode(short)


# ----------------------------------------------------------------------
# the envelope itself
# ----------------------------------------------------------------------
class TestEnvelope:
    FILE = Envelope(b"TEST", 1, "II", meta="Q")

    def test_roundtrip_sections_meta_and_aux(self):
        blob = self.FILE.pack((b"abc", b""), meta=(2 ** 40,), aux=7)
        head = self.FILE.verify(blob)
        assert (head.aux, head.lengths, head.meta) == (7, (3, 0), (2 ** 40,))
        assert [bytes(s) for s in self.FILE.inflate(head)] == [b"abc", b""]

    def test_errors_are_the_kinds_own(self):
        class Mine(Exception):
            pass

        mine = Envelope(b"TEST", 1, "II", meta="Q", error=Mine)
        with pytest.raises(Mine, match="short header"):
            mine.verify(b"TEST")
        with pytest.raises(CorruptFile, match="bad magic"):
            self.FILE.verify(b"NOPE" + self.FILE.pack((b"", b""), (0,))[4:])
        with pytest.raises(CorruptFile, match="format 2"):
            self.FILE.verify(Envelope(b"TEST", 2, "II", "Q").pack((b"", b""), (0,)))

    def test_sixteen_bytes_of_sha256_over_a_raw_deflate_stream(self):
        """The stream has no zlib header and no Adler-32: the digest, the
        first 16 bytes of SHA-256 over fields and stream, is the check."""
        blob = self.FILE.pack((b"abc" * 40, b"de"), meta=(7,), aux=3)
        fields = struct.Struct("<4sHHIIIQ")
        stored = blob[fields.size + 16:]
        assert fields.unpack_from(blob) == (
            b"TEST", 1, 3, len(stored), 120, 2, 7)
        assert blob[fields.size:fields.size + 16] == hashlib.sha256(
            blob[:fields.size] + stored).digest()[:16]
        deflater = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
        assert stored == deflater.compress(b"abc" * 40 + b"de") + deflater.flush()
        assert stored == zlib.compress(b"abc" * 40 + b"de", 6)[2:-4]

    def test_a_legacy_envelope_reads_and_never_writes(self):
        """The formats earlier builds wrote: the whole SHA-256 and a zlib
        stream.  Each flavour refuses the other's bytes as corrupt."""
        legacy = LegacyEnvelope(b"TEST", 1, "II", meta="Q")
        with pytest.raises(TypeError, match="read, never written"):
            legacy.pack((b"abc", b""), meta=(7,))
        fields = struct.pack("<4sHHIIIQ", b"TEST", 1, 3,
                             len(zlib.compress(b"abc", 6)), 3, 0, 7)
        stored = zlib.compress(b"abc", 6)
        blob = fields + hashlib.sha256(fields + stored).digest() + stored
        head = legacy.verify(blob)
        assert (head.aux, head.lengths, head.meta) == (3, (3, 0), (7,))
        assert [bytes(s) for s in legacy.inflate(head)] == [b"abc", b""]
        with pytest.raises(CorruptFile):
            self.FILE.verify(blob)
        with pytest.raises(CorruptFile):
            legacy.verify(self.FILE.pack((b"abc", b""), meta=(7,), aux=3))

    def test_a_value_too_wide_for_its_field_is_a_value_error(self):
        with pytest.raises(ValueError, match="does not fit"):
            self.FILE.pack((b"", b""), meta=(-1,))

    def test_atomic_write_replaces_and_leaves_nothing_behind(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write(target, b"one")
        atomic_write(target, b"two", fsync=True)
        assert target.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
        with pytest.raises(OSError):
            atomic_write(tmp_path / "missing" / "f.bin", b"x")


# ----------------------------------------------------------------------
# no fourth container
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: dotted reference -> the only (file, function) allowed to hold it.
CONTAINER_CALLS = {
    "np.savez": None, "np.savez_compressed": None, "numpy.savez": None,
    "numpy.savez_compressed": None, "zipfile": None,
    "tempfile.mkstemp": None, "mkstemp": None,
    "np.load": ("store/segments.py", "_read_legacy"),
    "numpy.load": ("store/segments.py", "_read_legacy"),
}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _references(tree):
    """``(dotted name, enclosing function)`` for every name, attribute
    chain and import in a module."""
    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            for alias in node.names:
                yield alias.name, function
                if module:
                    yield f"{module}.{alias.name}", function
        elif isinstance(node, (ast.Attribute, ast.Name)):
            name = _dotted(node)
            if name:
                yield name, function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)
    return walk(tree, None)


def test_no_private_container_outside_the_envelope():
    """``data``, ``store`` and ``service`` write files through
    ``repro.envelope`` only: no zip container, no private temp-file
    dance, and ``np.load`` only where legacy segments are read."""
    offences = []
    for package in ("data", "store", "service"):
        for path in sorted((SRC / package).rglob("*.py")):
            where = path.relative_to(SRC).as_posix()
            for name, function in _references(ast.parse(path.read_text())):
                if name in CONTAINER_CALLS and \
                        CONTAINER_CALLS[name] != (where, function):
                    offences.append(f"{where}:{function or '<module>'}: {name}")
    assert offences == []
    # The guard sees what it is looking for where it is allowed.
    legacy = list(_references(ast.parse((SRC / "store/segments.py").read_text())))
    assert ("np.load", "_read_legacy") in legacy
    shared = list(_references(ast.parse((SRC / "envelope.py").read_text())))
    assert ("tempfile.mkstemp", "atomic_write") in shared


def test_the_store_writes_no_json():
    """What ``repro.store`` puts on disk is laid out by ``struct``: a
    checkpoint is a schema in code, not a layout document beside pools."""
    for path in sorted((SRC / "store").rglob("*.py")):
        names = {name for name, _ in _references(ast.parse(path.read_text()))}
        assert not {n for n in names if n.split(".")[0] == "json"}, path.name
    # The guard sees an import where there is one.
    seen = {name for name, _ in _references(ast.parse("import json\njson.dumps"))}
    assert {"json", "json.dumps"} <= seen


def test_no_caller_picks_the_implementation():
    """Which code answers is decided from the request: the bank or the
    generic predictor by what the bank can serve, the fast or the generic
    evaluator by ``select_engine``.  Neither has a switch to put back."""
    import inspect

    from repro.core import engine
    from repro.service import PredictionService

    assert "streaming" not in inspect.signature(
        PredictionService.__init__).parameters
    for function in (engine.evaluate, engine.evaluate_dataset,
                     engine.select_engine):
        assert "engine" not in inspect.signature(function).parameters
