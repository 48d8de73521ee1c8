"""The shared file envelope, through each of its three callers.

One decoder contract, three kinds of file (checkpoint, sealed segment,
ingest sidecar): damaged bytes raise the kind's own error — or read as
status ``"corrupt"`` for the sidecar — and nothing else, never a decoded
value; and nothing is inflated past what the verified header declared.
Each kind's header is packed by hand here, so the tests pin the bytes.
"""

from __future__ import annotations

import ast
import hashlib
import struct
import tracemalloc
import zlib
from pathlib import Path

import pytest

from repro.data import TransferFrame
from repro.data.ingest import read_cache_status, write_cache
from repro.envelope import CorruptFile, Envelope, atomic_write
from repro.store import CorruptCheckpoint, CorruptSegment
from repro.store import checkpoint as ck
from repro.store import segments as seg
from tests.conftest import make_record
from tests.unit.test_store import LD_SIZE, revive, small_bank

LOG_DIGEST = hashlib.sha256(b"the log's bytes").hexdigest()


class Kind:
    """One caller of the envelope: a small valid file, its hand-packed
    header, and a ``decode`` that raises ``error`` on untrusted bytes."""

    def __init__(self, tmp_path):
        self.path = tmp_path / self.name

    def frame(self, stored, lengths):
        """A file of this kind around ``stored`` whose digest verifies."""
        fields = self.fields.pack(
            self.magic, self.version, self.aux, len(stored), *lengths,
            *self.meta)
        return fields + hashlib.sha256(fields + stored).digest() + stored


class CheckpointKind(Kind):
    name = "checkpoint.bin"
    fields = struct.Struct("<4sHHIIIII")
    magic, version, aux, meta = b"RSCK", 5, LD_SIZE, ()
    error = CorruptCheckpoint
    bomb_lengths = (1024, 0, 0, 0)

    def blob(self):
        """A real bank's: 3 rows in 3 classes, one window queried."""
        return ck.dumps({"meta": {"link": "x", "n": 3},
                         "bank": small_bank(rows=3).state()})

    def decode(self, data):
        return revive(data)  # the file, then the bank's reading of it


class SegmentKind(Kind):
    name = "seg-000000000007.col"
    fields = struct.Struct("<4sHHIIIIIQQQ")
    magic, version, aux, meta = b"RSSG", 1, 0, (7, 40, 0)
    error = CorruptSegment
    bomb_lengths = (320, 320, 320, 40)  # what 40 rows declare: 1,000 B

    def blob(self):
        seg.write_segment(self.path, 7, [1.5, 2.5, 4.0], [9.0, 8.0, 7.0],
                          [10, 20, 30], [0, 1, 0], max_offset=99)
        return self.path.read_bytes()

    def decode(self, data):
        self.path.write_bytes(data)
        seg.read_framing(self.path)
        return seg.read_segment(self.path)


class SidecarKind(Kind):
    name = "x.ulm.col"
    fields = struct.Struct("<4sHHI10I32sI")
    magic, version, aux = b"RSUL", 2, 0
    meta = (bytes.fromhex(LOG_DIGEST), 128)
    error = CorruptFile
    bomb_lengths = (1024,) + (0,) * 9

    def blob(self):
        frame = TransferFrame.from_records(
            [make_record(start=10.0), make_record(start=30.0, file_name="/b")])
        assert write_cache(self.path, LOG_DIGEST, frame)
        return self.path.read_bytes()

    def decode(self, data):
        self.path.write_bytes(data)
        frame, status = read_cache_status(self.path, LOG_DIGEST)
        if status == "corrupt" and frame is None:
            raise CorruptFile("status corrupt")
        return frame, status


@pytest.fixture(params=[CheckpointKind, SegmentKind, SidecarKind],
                ids=["checkpoint", "segment", "sidecar"])
def kind(request, tmp_path):
    return request.param(tmp_path)


def test_header_is_the_pinned_struct(kind):
    blob = kind.blob()
    magic, version, aux, stored, *rest = kind.fields.unpack_from(blob)
    assert (magic, version, aux) == (kind.magic, kind.version, kind.aux)
    assert len(blob) == kind.fields.size + 32 + stored
    body = zlib.decompress(blob[kind.fields.size + 32:])
    assert len(body) == sum(rest[:len(kind.bomb_lengths)])
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


def test_inflate_stops_at_the_declared_lengths(kind):
    # An intact digest over a stream that inflates to 1 MB behind a
    # header that claims 1 KB: rejected, and never inflated.
    bomb = kind.frame(zlib.compress(bytes(1 << 20), 1), kind.bomb_lengths)
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
    short = kind.frame(zlib.compress(bytes(sum(lengths) - 1), 1), lengths)
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
