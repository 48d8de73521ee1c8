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

Format 3 stores the four columns as one section of 25 bytes a row: each
float64 column as eight *byte planes* — byte 0 of every row, then byte
1, … byte 7 — then ``sizes`` and ``ops`` row-major.  An end time's
sign, exponent and leading mantissa bytes barely change within a link,
and as planes they are runs deflate can see; row-major, six noisy bytes
sit between them in every value.  The header declares the one section's
length, which must be ``25 · rows``.  This module is the only one that
knows the layout: the store seals and loads through
:func:`write_segment` and :func:`read_segment`.

Reads pass through the ``store.segment`` fault site so the chaos suite
can corrupt or truncate them; anything whose digest, lengths or stream
disagree raises :class:`CorruptSegment` and the store quarantines the
file.  A file whose magic is intact but whose format this build does
not read raises :class:`UnknownSegmentFormat` instead
(:func:`repro.envelope.foreign_format`), and the store leaves it where
it lies: it is primary data some other build can read.  Earlier
builds' files are primary data too, so they are read, never written,
picked by the header's format: format 2 (the same columns, one section
each) and format 1 (every column row-major), both in the legacy
envelope (:class:`repro.envelope.LegacyEnvelope`), and a ``seg-*.npz``
(by suffix, through ``np.load``).  A link's next seal rewrites the
format-1 or format-2 segment it extends as format 3; a ``.npz`` stays
as it is.  An earlier build's compaction wrote ``seg-full.col``: it is
read like any other segment, and the store's recovery sweeps the
segments whose rows it covers.
"""

from __future__ import annotations

import io
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Tuple

import numpy as np

from repro import faults as _faults
from repro.digests import sha256
from repro.envelope import (Envelope, LegacyEnvelope, Verified, atomic_write,
                            foreign_format)

__all__ = ["CorruptSegment", "SegmentData", "UnknownSegmentFormat",
           "is_segment_name", "segment_name", "write_segment", "read_framing",
           "read_segment"]

_LEGACY_SUFFIX = ".npz"
_COLUMNS = (("times", "<f8"), ("values", "<f8"), ("sizes", "<i8"), ("ops", "i1"))
_WIDTHS = tuple(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)
#: The leading columns formats 2 and 3 store as byte planes.
_PLANED = 2


class CorruptSegment(Exception):
    """The segment cannot be trusted (its digest, lengths, stream or
    layout disagree)."""


class UnknownSegmentFormat(CorruptSegment):
    """An intact magic ahead of a format this build does not read.

    Nothing is known to be wrong with the file, so it is not quarantined;
    the link it belongs to cannot be served until a build that reads it
    does.  A flipped bit in the format field of a file this build wrote
    is told apart by its digest, and is corrupt.
    """


# One section of four columns; the kind's own fields are the framing.
_FILE = Envelope(b"RSSG", 3, "I", meta="QQQ", error=CorruptSegment)
#: Every format this build reads, by number: its own, and the legacy 1
#: (every column row-major) and 2 (one section a column).
_READABLE = {envelope.version: envelope for envelope in (
    LegacyEnvelope(b"RSSG", 1, "IIII", meta="QQQ", error=CorruptSegment),
    LegacyEnvelope(b"RSSG", 2, "IIII", meta="QQQ", error=CorruptSegment),
    _FILE)}


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
        (b"".join(sections),), meta=(start_row, len(times), max_offset)), fsync)


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
    """The file's envelope (format 1, 2 or 3) and its verified header."""
    data = _read(path)
    foreign = foreign_format(data, tuple(_READABLE.values()))
    if foreign is not None:
        raise UnknownSegmentFormat(
            f"{path}: format {foreign}, this build reads 1-{_FILE.version}")
    envelope = _READABLE.get(int.from_bytes(data[4:6], "little"), _FILE)
    head = envelope.verify(data)
    rows = head.meta[1]
    widths = (sum(_WIDTHS),) if envelope is _FILE else _WIDTHS
    if head.lengths != tuple(width * rows for width in widths):
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
    if envelope is _FILE:  # one section: cut it at the column widths
        (body,), rows = sections, head.meta[1]
        cuts = [0, *accumulate(width * rows for width in _WIDTHS)]
        sections = [body[start:end] for start, end in zip(cuts, cuts[1:])]
    planed = 0 if envelope.version == 1 else _PLANED
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
