"""Sealed column segments in the shared file envelope.

A segment is a slab of link history in arrival order: four parallel
columns (``times``/``values``/``sizes``/``ops``) deflated behind a
verified header (:mod:`repro.envelope`) that carries the framing —
``start_row``, ``rows``, ``max_offset`` — so recovery learns a link's
shape from headers alone and columns are inflated only when someone
wants the rows.  Numbered segments cover consecutive row ranges
(``seg-<start_row>.col``); a compaction writes the special
``seg-full.col``, which supersedes every segment whose rows it covers.
A file is never edited: the store grows a link's last (*open*) segment
by writing a longer one under the same name, which :func:`atomic_write`
swaps in whole, and every earlier segment is immutable.

Reads pass through the ``store.segment`` fault site so the chaos suite
can corrupt or truncate them; anything whose digest, lengths or stream
disagree raises :class:`CorruptSegment` and the store quarantines the
file.  A state dir written by an earlier build holds ``seg-*.npz``
files: primary data, so still read (by suffix, through ``np.load``),
never written; compaction rewrites them as ``.col``.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path
from typing import NamedTuple, Tuple

import numpy as np

from repro import faults as _faults
from repro.envelope import Envelope, Verified, atomic_write

__all__ = ["FULL_NAME", "CorruptSegment", "SegmentData", "is_segment_name",
           "segment_name", "write_segment", "read_framing", "read_segment"]

#: The compacted whole-history segment; supersedes the segments it covers.
FULL_NAME = "seg-full.col"

_LEGACY_SUFFIX = ".npz"
_COLUMNS = (("times", "<f8"), ("values", "<f8"), ("sizes", "<i8"), ("ops", "i1"))


class CorruptSegment(Exception):
    """The segment cannot be trusted (bad digest, layout, or read)."""


# Four column sections; the kind's own fields are the framing.
_FILE = Envelope(b"RSSG", 1, "IIII", meta="QQQ", error=CorruptSegment)


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

    Raises ``OSError`` on filesystem refusal; the caller decides whether
    that degrades (rows stay in the tail) or aborts (compaction).
    """
    sections = [np.ascontiguousarray(column, dtype=dtype).tobytes()
                for column, (_, dtype) in zip((times, values, sizes, ops), _COLUMNS)]
    _faults.check("store.segment", path=str(path), op="write")
    atomic_write(path, _FILE.pack(
        sections, meta=(start_row, len(times), max_offset)), fsync)


def _read(path: Path) -> bytes:
    _faults.check("store.segment", path=str(path), op="read")
    return _faults.filter_bytes("store.segment", path.read_bytes(),
                                path=str(path))


def _header(path: Path) -> Verified:
    head = _FILE.verify(_read(path))
    rows = head.meta[1]
    if head.lengths != (8 * rows, 8 * rows, 8 * rows, rows):
        raise CorruptSegment(f"column lengths disagree with rows in {path}")
    return head


def read_framing(path: Path) -> Tuple[int, int, int]:
    """``(start_row, rows, max_offset)`` from the verified header; the
    columns stay deflated.  Raises as :func:`read_segment` does."""
    if path.suffix == _LEGACY_SUFFIX:
        return _read_legacy(path)[:3]
    return _header(path).meta


def read_segment(path: Path) -> SegmentData:
    """Read, verify and inflate one segment.

    Raises :class:`CorruptSegment` on anything untrustworthy and
    ``FileNotFoundError`` when the file is simply absent.
    """
    if path.suffix == _LEGACY_SUFFIX:
        return _read_legacy(path)
    head = _header(path)
    return SegmentData(*head.meta, *(
        np.frombuffer(section, dtype=dtype)
        for section, (_, dtype) in zip(_FILE.inflate(head), _COLUMNS)))


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
    sha = hashlib.sha256(f"1:{framing[0]}:{len(columns[0])}".encode())
    for column in columns:
        sha.update(column.tobytes())
    if (version != "1" or framing[1] != len(columns[0])
            or stored != sha.hexdigest()):
        raise CorruptSegment(f"digest mismatch in {path}")
    return SegmentData(*framing, *columns)
