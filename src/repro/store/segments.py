"""Sealed column segments in the shared file envelope.

A segment is a slab of link history in arrival order: four parallel
columns (``times``/``values``/``sizes``/``ops``) deflated behind a
verified header (:mod:`repro.envelope`) that carries the framing —
``start_row``, ``rows``, ``max_offset`` — so recovery learns a link's
shape from headers alone and columns are inflated only when someone
wants the rows.  Segments are named by their first row
(``seg-<start_row>.col``) and cover disjoint row ranges, with a gap
where a quarantined segment's rows were.  A file is never edited: the
store grows a link's last (*open*) segment by writing a longer one under
the same name, which :func:`atomic_write` swaps in whole, and every
earlier segment is immutable.

Format 2 stores each float64 column as eight *byte planes* — byte 0 of
every row, then byte 1, … byte 7 — and ``sizes`` / ``ops`` row-major.
An end time's sign, exponent and leading mantissa bytes barely change
within a link, and as planes they are runs deflate can see; row-major,
six noisy bytes sit between them in every value.  This module is the
only one that knows the layout: the store seals and loads through
:func:`write_segment` and :func:`read_segment`.

Reads pass through the ``store.segment`` fault site so the chaos suite
can corrupt or truncate them; anything whose digest, lengths or stream
disagree raises :class:`CorruptSegment` and the store quarantines the
file.  A file whose magic is intact but whose format this build does
not read raises :class:`UnknownSegmentFormat` instead
(:func:`repro.envelope.foreign_format`), and the store leaves it where
it lies: it is primary data some other build can read.  Earlier
builds' files are primary data too, so they are read, never written: a
format-1 ``.col`` (the same header, every column row-major), picked by
the header's format, and a ``seg-*.npz`` (by suffix, through
``np.load``).  A link's next seal rewrites the format-1 segment it
extends as format 2; a ``.npz`` stays as it is.  An earlier build's compaction wrote ``seg-full.col``:
it is read like any other segment, and the store's recovery sweeps the
segments whose rows it covers.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import NamedTuple, Tuple

import numpy as np

from repro import faults as _faults
from repro.digests import sha256
from repro.envelope import Envelope, Verified, atomic_write, foreign_format

__all__ = ["CorruptSegment", "SegmentData", "UnknownSegmentFormat",
           "is_segment_name", "segment_name", "write_segment", "read_framing",
           "read_segment"]

_LEGACY_SUFFIX = ".npz"
_COLUMNS = (("times", "<f8"), ("values", "<f8"), ("sizes", "<i8"), ("ops", "i1"))
#: The leading columns format 2 stores as byte planes.
_PLANED = 2


class CorruptSegment(Exception):
    """The segment cannot be trusted (bad digest, layout, or read)."""


class UnknownSegmentFormat(CorruptSegment):
    """An intact magic ahead of a format this build does not read.

    Nothing is known to be wrong with the file, so it is not quarantined;
    the link it belongs to cannot be served until a build that reads it
    does.  A flipped bit in the format field of a file this build wrote
    is told apart by its digest, and is corrupt.
    """


# Four column sections; the kind's own fields are the framing.  Level 6
# stores 3-4 % less than level 1; its deflate takes as long on a 30-row
# segment and twice as long (+1 ms) on a 4,000-row one.  7-9 store 0.2 %
# less again.
_FILE = Envelope(b"RSSG", 2, "IIII", meta="QQQ", error=CorruptSegment,
                 level=6)
#: Format 1: the same header, every column row-major.
_FORMAT_1 = Envelope(b"RSSG", 1, "IIII", meta="QQQ", error=CorruptSegment)


class SegmentData(NamedTuple):
    """One decoded segment: framing metadata plus the four columns."""

    start_row: int
    rows: int
    max_offset: int
    times: np.ndarray
    values: np.ndarray
    sizes: np.ndarray
    ops: np.ndarray


def segment_name(start_row: int) -> str:
    """Numbered segment file name; sorts in row order."""
    return f"seg-{start_row:012d}.col"


def is_segment_name(name: str) -> bool:
    """A segment of this build or of an earlier one."""
    return name.startswith("seg-") and name.endswith((".col", _LEGACY_SUFFIX))


def write_segment(path: Path, start_row: int, times, values, sizes, ops,
                  max_offset: int = 0, fsync: bool = True) -> None:
    """Atomically write a segment (temp file, optional fsync, rename).

    Raises ``OSError`` on filesystem refusal; the store's seal then
    leaves the rows in the tail and retries on later growth.
    """
    columns = [np.ascontiguousarray(column, dtype=dtype)
               for column, (_, dtype) in zip((times, values, sizes, ops), _COLUMNS)]
    sections = [_planes(column) for column in columns[:_PLANED]]
    sections += [column.tobytes() for column in columns[_PLANED:]]
    _faults.check("store.segment", path=str(path), op="write")
    atomic_write(path, _FILE.pack(
        sections, meta=(start_row, len(times), max_offset)), fsync)


def _planes(column: np.ndarray) -> bytes:
    """Byte ``k`` of every row, for ``k`` in 0..7: the column transposed
    as a ``(rows, 8)`` byte matrix."""
    return column.view(np.uint8).reshape(-1, 8).T.tobytes()


def _from_planes(section: memoryview) -> np.ndarray:
    planes = np.frombuffer(section, dtype=np.uint8).reshape(8, -1)
    return planes.T.copy().view("<f8").ravel()


def _read(path: Path) -> bytes:
    _faults.check("store.segment", path=str(path), op="read")
    return _faults.filter_bytes("store.segment", path.read_bytes(),
                                path=str(path))


def _header(path: Path) -> Tuple[Envelope, Verified]:
    """The file's envelope (format 1 or 2) and its verified header."""
    data = _read(path)
    foreign = foreign_format(data, (_FORMAT_1, _FILE))
    if foreign is not None:
        raise UnknownSegmentFormat(
            f"{path}: format {foreign}, this build reads 1-{_FILE.version}")
    envelope = _FORMAT_1 if data[4:6] == b"\1\0" else _FILE
    head = envelope.verify(data)
    rows = head.meta[1]
    if head.lengths != (8 * rows, 8 * rows, 8 * rows, rows):
        raise CorruptSegment(f"column lengths disagree with rows in {path}")
    return envelope, head


def read_framing(path: Path) -> Tuple[int, int, int]:
    """``(start_row, rows, max_offset)`` from the verified header; the
    columns stay deflated.  Raises as :func:`read_segment` does."""
    if path.suffix == _LEGACY_SUFFIX:
        return _read_legacy(path)[:3]
    return _header(path)[1].meta


def read_segment(path: Path) -> SegmentData:
    """Read, verify and inflate one segment.

    Raises :class:`CorruptSegment` on anything untrustworthy (its
    subclass :class:`UnknownSegmentFormat` on a foreign format) and
    ``FileNotFoundError`` when the file is simply absent.
    """
    if path.suffix == _LEGACY_SUFFIX:
        return _read_legacy(path)
    envelope, head = _header(path)
    sections = envelope.inflate(head)
    planed = _PLANED if envelope is _FILE else 0
    columns = [_from_planes(section) for section in sections[:planed]]
    columns += [np.frombuffer(section, dtype=dtype) for section, (_, dtype)
                in zip(sections[planed:], _COLUMNS[planed:])]
    return SegmentData(*head.meta, *columns)


def _read_legacy(path: Path) -> SegmentData:
    """A ``.npz`` segment of an earlier build: nine zip members, the
    digest a hex string over the column bytes."""
    raw = _read(path)
    try:
        with np.load(io.BytesIO(raw), allow_pickle=False) as payload:
            version, stored = (str(payload[key])
                               for key in ("__version__", "__digest__"))
            framing = [int(payload[f"__{key}__"])
                       for key in ("start_row", "rows", "max_offset")]
            columns = [np.asarray(payload[name], dtype=dtype)
                       for name, dtype in _COLUMNS]
    except Exception as exc:
        raise CorruptSegment(f"undecodable segment {path}: {exc}") from None
    sha = sha256(f"1:{framing[0]}:{len(columns[0])}".encode())
    for column in columns:
        sha.update(column.tobytes())
    if (version != "1" or framing[1] != len(columns[0])
            or stored != sha.hexdigest()):
        raise CorruptSegment(f"digest mismatch in {path}")
    return SegmentData(*framing, *columns)
