"""Link checkpoints: a fixed schema in three typed pools.

A checkpoint is what makes cold-link revival cheap: restore the bank's
sufficient statistics over the link's rows instead of folding them
again.  The payload is the dict the serving layer passes around —
``meta`` (every key optional), ``bank`` (:meth:`StreamingBank.state`)
and ``accuracy`` (:meth:`AccuracyTracker.link_state`) — and the two
states are *parts*: ``(fixed, ld, f8)``, packed structs as bytes plus a
longdouble and a float64 pool, laid out by the module that owns the
state (:data:`repro.core.streaming._SERIES` defines a series).  The
file is the three pools of both parts end to end, ``fixed`` opening
with :data:`_META`, the two strings it counts, and one :data:`_PART` of
pool lengths per part.  :func:`loads` hands each part back as a
:class:`Reader` for its owner's ``load_state``.

* **Exactness.**  The evict→revive parity gate demands bit-identical
  answers.  Scalars travel through ``struct``, the 80-bit sums and the
  pools through ``tobytes`` / ``frombuffer``: exact by construction.
* **Size.**  The link's history is on disk once, in its segments and
  tail; a checkpoint holds no row of it.  It refers to rows ``[0, n)``
  of the link in arrival order by ``n`` and ``row_digest`` (see
  :func:`repro.service.state.row_digest`), a reference that survives
  seals, which rewrite files but never renumber rows; every bank
  series is a view of those rows sorted by end time.  So it holds only
  what the rows cannot give back: window cursors and the longdouble
  sums (whose 6/16 padding deflates).  Whatever the rows determine — a
  series' last value and time, ``MED`` (whose first entry is the
  all-data min) and the windowed min chains — loading derives from
  them, and a window's count is where its cursor stands.  About 450 B
  a 30-row link, whatever its length, plus its accuracy part.
* **Speed.**  Revival must stay sub-millisecond, so the whole file is
  one read, one digest check and one bounded inflate: the shared file
  envelope (:mod:`repro.envelope`), whose ``aux`` field carries the
  long-double width here.  No zip container, no pickle.

Corruption (torn write, bit rot, injected fault at the
``store.checkpoint`` site) surfaces as :class:`CorruptCheckpoint`; the
store quarantines the file and the link rebuilds from its segments —
slower, never wrong.  An intact file of format 1-3, or of a format newer
than this build's, is :class:`StaleCheckpoint`: same rebuild, but
nothing is wrong with the file, so it stays where it is until the
link's next checkpoint replaces it.  Formats 4 and 5 share this framing
with a fourth pool (format 4 stored the rows, 5 the min chains);
:func:`loads` reads their ``meta`` and accuracy part and leaves out
their bank, which revival then rebuilds.  Earlier formats are read only
that far.

Longdouble width is platform-dependent; a checkpoint written on a
different ABI fails the width check and is treated as corrupt, which
degrades to a rebuild.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, NoReturn

import numpy as np

from repro.digests import sha256
from repro.envelope import Envelope, newer_format

__all__ = ["CorruptCheckpoint", "Reader", "StaleCheckpoint", "dumps", "loads"]

_MAGIC = b"RSCK"
#: 5 stored every count and the min chains; 4 stored the rows; 3 walked a
#: state dict into a JSON layout; 2 stored that raw.
_FORMAT = 6

_LD_SIZE = np.dtype(np.longdouble).itemsize
#: Leading bytes of a longdouble that hold its value.  x87 extended
#: precision (63-bit mantissa) fills 10 of its 12 or 16; the rest is
#: whatever was in memory, and left alone it would give the same state a
#: different stored length from one write to the next.
_LD_VALUE_BYTES = 10 if np.finfo(np.longdouble).nmant == 63 else _LD_SIZE

#: The pools after ``fixed``, in file order; formats 4 and 5 had a third,
#: of uint32 min-chain entries.
_POOLS = (np.dtype(np.longdouble), np.dtype("<f8"))
_POOLS_5 = (*_POOLS, np.dtype("<u4"))
_PARTS = ("bank", "accuracy")

#: ``meta``: version, n, row_digest, then the byte lengths of link and
#: classification, which follow.  A key left out is stored as the value
#: no live link has.
_META = struct.Struct("<qq16sHH")
_META_DEFAULTS = {"version": -1, "n": -1, "row_digest": bytes(16),
                  "link": "", "classification": ""}
#: Format 4's ``meta``: version, n, then a last_time and a byte this
#: build skips (the rows say when the link's last one ended), and no
#: row_digest.
_META_4 = struct.Struct("<qq9xHH")
#: Items one part holds in each pool; all zero when the part is absent.
_PART = struct.Struct("<III")
_PART_5 = struct.Struct("<IIII")


class CorruptCheckpoint(Exception):
    """The checkpoint bytes cannot be trusted."""


class StaleCheckpoint(Exception):
    """An intact checkpoint in a format this build does not read."""


_FILE = Envelope(_MAGIC, _FORMAT, "III", error=CorruptCheckpoint)
_FORMAT_5 = Envelope(_MAGIC, 5, "IIII", error=CorruptCheckpoint)
_FORMAT_4 = Envelope(_MAGIC, 4, "IIII", error=CorruptCheckpoint)
_FORMAT_3 = Envelope(_MAGIC, 3, "IQQ", error=CorruptCheckpoint)
#: How each format this build reads is read, by its format field: the
#: envelope, ``meta``, part header and pools.  Only the current one keeps
#: its bank.
_READS = {b"\6\0": (_FILE, _META, _PART, _POOLS),
          b"\5\0": (_FORMAT_5, _META, _PART_5, _POOLS_5),
          b"\4\0": (_FORMAT_4, _META_4, _PART_5, _POOLS_5)}
# Formats 1 and 2: raw body, the digest over the body alone.
_RAW_HEADER = struct.Struct("<4sHHIQQ32s")


class Reader:
    """One part of a checkpoint as its owner reads it back: ``fixed``,
    the typed pools and a cursor in each.  Whatever does not fit is
    :class:`CorruptCheckpoint`, here and in the owner's ``require``."""

    def __init__(self, fixed, *pools: np.ndarray) -> None:
        self._pools = [memoryview(fixed), *pools]
        self._at = [0] * len(self._pools)

    def _take(self, pool: int, count: int):
        start = self._at[pool]
        self._at[pool] = end = start + count
        if end > len(self._pools[pool]):
            raise CorruptCheckpoint("a pool holds less than was claimed of it")
        return self._pools[pool][start:end]

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self._take(0, layout.size))

    def raw(self, count: int) -> bytes:
        return bytes(self._take(0, count))

    def ld(self, count: int) -> np.ndarray:
        return self._take(1, count)

    def f8(self, count: int) -> np.ndarray:
        return self._take(2, count)

    def part(self, counts) -> "Reader":
        """The next ``counts`` items of each pool, as a reader of their own."""
        return Reader(*(self._take(i, count) for i, count in enumerate(counts)))

    def require(self, ok, what: str) -> None:
        if not ok:
            raise CorruptCheckpoint(what)

    def finish(self) -> None:
        if self._at != [len(pool) for pool in self._pools]:
            raise CorruptCheckpoint("a pool holds more than was claimed of it")


def dumps(payload) -> bytes:
    """Serialize ``{"meta", "bank", "accuracy"}``, each optional; a bare
    bank state stands for ``{"bank": state}``."""
    if not isinstance(payload, dict):
        payload = {"bank": payload}
    meta = {**_META_DEFAULTS, **payload.get("meta", {})}
    if len(meta) > len(_META_DEFAULTS) or set(payload) - {"meta", *_PARTS}:
        raise TypeError(f"not a checkpoint payload: {sorted(payload)}")
    link, classification = meta["link"].encode(), meta["classification"].encode()
    parts = [payload.get(name) or (b"", (), ()) for name in _PARTS]
    pools = [np.concatenate([np.asarray(part[i], dtype) for part in parts])
             for i, dtype in enumerate(_POOLS, 1)]
    fixed = [
        _META.pack(meta["version"], meta["n"], bytes(meta["row_digest"]),
                   len(link), len(classification)),
        link, classification,
        *(_PART.pack(*map(len, part)) for part in parts),
        *(part[0] for part in parts)]
    if _LD_VALUE_BYTES < _LD_SIZE:  # pools[0] is concatenate's own copy
        pools[0].view(np.uint8).reshape(-1, _LD_SIZE)[:, _LD_VALUE_BYTES:] = 0
    return _FILE.pack((b"".join(fixed), *(pool.tobytes() for pool in pools)),
                      aux=_LD_SIZE)


def _reject_stale(data: bytes, version: int) -> NoReturn:
    """An intact file of format 1-3 is stale; a damaged one corrupt."""
    if version == 3:
        _FORMAT_3.verify(data)
    else:
        intact = len(data) >= _RAW_HEADER.size
        if intact:
            *_, layout_len, f8_len, ld_len, digest = \
                _RAW_HEADER.unpack_from(data)
            body = memoryview(data)[_RAW_HEADER.size:]
            intact = (len(body) == layout_len + f8_len + ld_len
                      and sha256(body).digest() == digest)
        if not intact:
            raise CorruptCheckpoint(f"unreadable as format {version}")
    raise StaleCheckpoint(f"format {version}, this build reads {_FORMAT}")


def loads(data: bytes) -> Dict[str, Any]:
    """``{"meta": dict, "bank": Reader, "accuracy": Reader}``, a part the
    file does not hold left out (a format-4 or -5 file's bank, always);
    raises :class:`CorruptCheckpoint` on anything off and
    :class:`StaleCheckpoint` for an intact file of format 1-3 or newer."""
    if data[:4] == _MAGIC and data[4:6] in (b"\1\0", b"\2\0", b"\3\0"):
        _reject_stale(data, data[4])
    newer = newer_format(data, (_FORMAT_3, _FORMAT_4, _FORMAT_5, _FILE))
    if newer:
        raise StaleCheckpoint(f"format {newer}, this build reads {_FORMAT}")
    envelope, meta, part, pools = _READS.get(bytes(data[4:6]), _READS[b"\6\0"])
    head = envelope.verify(data)
    if head.aux != _LD_SIZE:
        raise CorruptCheckpoint("longdouble width mismatch (foreign ABI)")
    if any(length % dtype.itemsize
           for length, dtype in zip(head.lengths[1:], pools)):
        raise CorruptCheckpoint("pool length is not a whole number of items")
    fixed, *sections = envelope.inflate(head)
    src = Reader(fixed, *(np.frombuffer(section, dtype)
                          for section, dtype in zip(sections, pools)))
    *fields, link_len, classification_len = src.unpack(meta)
    try:
        names = src.raw(link_len).decode(), src.raw(classification_len).decode()
    except UnicodeDecodeError as exc:
        raise CorruptCheckpoint(f"undecodable name: {exc}") from None
    # Format 4 stored no row_digest: the default stands for it.
    state: Dict[str, Any] = {"meta": {
        **_META_DEFAULTS, **dict(zip(_META_DEFAULTS, fields)),
        "link": names[0], "classification": names[1]}}
    for name, counts in [(name, src.unpack(part)) for name in _PARTS]:
        if counts[0]:
            state[name] = src.part(counts)
    src.finish()
    if envelope is not _FILE:
        state.pop("bank", None)  # a bank this build does not read
    return state
