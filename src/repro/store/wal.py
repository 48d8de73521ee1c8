"""CRC-framed fixed-size records for the active tail of a link's log.

The tail is the write-hot end of the tiered store: every observation
appends one fixed-size record (``crc32 | seq time value size op
source_offset``) to ``tail.wal`` before the link seals it into a
columnar segment.  Fixed framing plus a per-record CRC makes crash
recovery a single forward scan: the first record that is short or fails
its checksum marks the torn point, and everything before it is known
good — the classic write-ahead-log contract (torn tails are truncated,
never served).

``seq`` is the link-global row index at append time.  It makes the
dedup rule after a crash *between* segment seal and tail truncation
trivial: tail records with ``seq`` below the sealed row count are
already in a segment and are skipped on every scan.

``source_offset`` threads the ULM follower's byte position through to
disk (zero when the row did not come from a followed log), so a warm
restart resumes tailing exactly after the last durable row.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["RECORD_SIZE", "TailScan", "encode", "encode_columns", "scan",
           "dedup"]

# seq u64 | end_time f64 | bandwidth f64 | size i64 | op i8 | source_offset i64
_PAYLOAD = struct.Struct("<Qddqbq")
_CRC = struct.Struct("<I")

#: Bytes per framed record (4-byte CRC32 + 41-byte payload).
RECORD_SIZE = _CRC.size + _PAYLOAD.size

#: The framed record as a packed little-endian structured dtype — the
#: same byte layout ``_CRC + _PAYLOAD`` produce, which is what lets
#: :func:`scan` decode a whole tail with one ``np.frombuffer`` and
#: :func:`encode_columns` emit a whole batch with one ``tobytes``.
_ROW_DTYPE = np.dtype([
    ("crc", "<u4"), ("seq", "<u8"), ("time", "<f8"), ("value", "<f8"),
    ("size", "<i8"), ("op", "<i1"), ("offset", "<i8"),
])
assert _ROW_DTYPE.itemsize == RECORD_SIZE


def _payload_crcs(frames, n: int) -> List[int]:
    """``zlib.crc32`` of each of the first ``n`` framed records' payloads.

    One C call per row over a view of the buffer.  A table-driven NumPy
    sweep over byte columns only beats this past ~1,500 rows, and tails
    seal at 4,096 while an ``observe`` appends one.
    """
    view = memoryview(frames)
    return [zlib.crc32(view[at + _CRC.size:at + RECORD_SIZE])
            for at in range(0, n * RECORD_SIZE, RECORD_SIZE)]


@dataclass
class TailScan:
    """The valid prefix of a tail file, as parallel row lists."""

    seqs: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    offsets: List[int] = field(default_factory=list)
    #: Length of the valid prefix; the file should be truncated here.
    valid_bytes: int = 0
    #: Bytes past the valid prefix (torn write or corruption), 0 if clean.
    torn_bytes: int = 0

    def __len__(self) -> int:
        return len(self.seqs)


def encode(rows: Iterable[Sequence]) -> bytes:
    """Frame ``(seq, time, value, size, op, source_offset)`` rows."""
    parts = []
    for seq, time, value, size, op, offset in rows:
        payload = _PAYLOAD.pack(int(seq), float(time), float(value),
                                int(size), int(op), int(offset))
        parts.append(_CRC.pack(zlib.crc32(payload)))
        parts.append(payload)
    return b"".join(parts)


def encode_columns(seq0: int, times, values, sizes, ops, offsets) -> bytes:
    """Frame a whole column batch into one contiguous buffer.

    Byte-identical to :func:`encode` over the equivalent rows, but the
    sequence stamps and field packing are array operations — one
    structured array per batch instead of two ``struct.pack`` calls per
    record — leaving one ``zlib.crc32`` per record.  This is the
    group-commit encode: the caller hands the result to a single
    ``write()``.
    """
    n = len(times)
    out = np.empty(n, dtype=_ROW_DTYPE)
    out["seq"] = np.arange(seq0, seq0 + n, dtype=np.uint64)
    out["time"] = np.asarray(times, dtype=np.float64)
    out["value"] = np.asarray(values, dtype=np.float64)
    out["size"] = np.asarray(sizes, dtype=np.int64)
    out["op"] = np.asarray(ops, dtype=np.int8)
    out["offset"] = np.asarray(offsets, dtype=np.int64)
    out["crc"] = _payload_crcs(out.view(np.uint8), n)
    return out.tobytes()


def scan(data: bytes) -> TailScan:
    """Parse the valid record prefix of raw tail bytes.

    Stops at the first short or checksum-failing record; the scan never
    raises.  ``valid_bytes``/``torn_bytes`` report where the good prefix
    ends so the caller can truncate the file back to a clean state.

    The whole tail is decoded with one ``np.frombuffer``; the first row
    whose CRC fails (if any) bounds the valid prefix.
    """
    result = TailScan()
    total = len(data)
    n = total // RECORD_SIZE
    if n:
        fields = np.frombuffer(data, dtype=_ROW_DTYPE, count=n)
        bad = np.nonzero(fields["crc"] != np.array(
            _payload_crcs(data, n), dtype=np.uint32))[0]
        valid = int(bad[0]) if len(bad) else n
        if valid:
            fields = fields[:valid]
            result.seqs = fields["seq"].tolist()
            result.times = fields["time"].tolist()
            result.values = fields["value"].tolist()
            result.sizes = fields["size"].tolist()
            result.ops = fields["op"].tolist()
            result.offsets = fields["offset"].tolist()
    else:
        valid = 0
    result.valid_bytes = valid * RECORD_SIZE
    result.torn_bytes = total - result.valid_bytes
    return result


def dedup(tail: TailScan, sealed_rows: int) -> Tuple[TailScan, int]:
    """Drop tail rows already covered by sealed segments.

    Returns ``(kept, dropped)``.  A crash between segment seal and tail
    truncation leaves the sealed rows duplicated at the tail's front;
    their ``seq`` fields are below ``sealed_rows``, so one pass filters
    them deterministically on every scan.
    """
    if not tail.seqs or tail.seqs[0] >= sealed_rows:
        return tail, 0
    kept = TailScan(valid_bytes=tail.valid_bytes, torn_bytes=tail.torn_bytes)
    dropped = 0
    for i, seq in enumerate(tail.seqs):
        if seq < sealed_rows:
            dropped += 1
            continue
        kept.seqs.append(seq)
        kept.times.append(tail.times[i])
        kept.values.append(tail.values[i])
        kept.sizes.append(tail.sizes[i])
        kept.ops.append(tail.ops[i])
        kept.offsets.append(tail.offsets[i])
    return kept, dropped
