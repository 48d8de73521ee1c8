"""Link checkpoints: a fixed schema in four typed pools.

A checkpoint is what makes cold-link revival cheap: restore the bank's
sufficient statistics over the link's rows instead of folding them
again.  The payload is the dict the serving layer passes around —
``meta`` (every key optional), ``bank`` (:meth:`StreamingBank.state`)
and ``accuracy`` (:meth:`AccuracyTracker.link_state`) — and the two
states are *parts*: ``(fixed, ld, f8, idx)``, packed structs as bytes
plus a longdouble, a float64 and a uint32 pool, laid out by the module
that owns the state (:data:`repro.core.streaming._SERIES` defines a
series).  The file is the four pools of both parts end to end,
``fixed`` opening with :data:`_META`, the two strings it counts, and
one :data:`_PART` of pool lengths per part.  :func:`loads` hands each
part back as a :class:`Reader` for its owner's ``load_state``.

* **Exactness.**  The evict→revive parity gate demands bit-identical
  answers.  Scalars travel through ``struct``, the 80-bit sums and the
  pools through ``tobytes`` / ``frombuffer``: exact by construction.
  What the rows already say is not stored: a series' last value and
  time, and ``MED``, which depends on the values seen, not on the
  heaps' layout.
* **Size.**  The link's history is on disk once, in its segments and
  tail; a checkpoint holds no row of it.  It refers to rows ``[0, n)``
  of the link in arrival order by ``n`` and ``row_digest`` (see
  :func:`repro.service.state.row_digest`), a reference that survives
  seals and compaction, which rewrite files but not rows; every bank
  series is a view of those rows sorted by end time.  What is left is
  structs, longdoubles (whose 6/16 padding deflates) and min chains,
  about 450-700 B a link whatever its length, plus its accuracy part.
* **Speed.**  Revival must stay sub-millisecond, so the whole file is
  one read, one digest check and one bounded inflate: the shared file
  envelope (:mod:`repro.envelope`), whose ``aux`` field carries the
  long-double width here.  No zip container, no pickle.

Corruption (torn write, bit rot, injected fault at the
``store.checkpoint`` site) surfaces as :class:`CorruptCheckpoint`; the
store quarantines the file and the link rebuilds from its segments —
slower, never wrong.  An intact file of format 1-3 is
:class:`StaleCheckpoint`: same rebuild, but nothing is wrong with the
file, so it stays where it is until the link's next checkpoint replaces
it.  Format 4 shares this framing but stored the rows; :func:`loads`
reads its ``meta`` and accuracy part and leaves out its bank, which
revival then rebuilds.  Earlier formats are read only that far.

Longdouble width is platform-dependent; a checkpoint written on a
different ABI fails the width check and is treated as corrupt, which
degrades to a rebuild.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, NoReturn

import numpy as np

from repro.envelope import Envelope

__all__ = ["CorruptCheckpoint", "Reader", "StaleCheckpoint", "dumps", "loads"]

_MAGIC = b"RSCK"
#: 4 stored the rows; 3 walked a state dict into a JSON layout; 2 stored
#: that raw.
_FORMAT = 5

_LD_SIZE = np.dtype(np.longdouble).itemsize
#: Leading bytes of a longdouble that hold its value.  x87 extended
#: precision (63-bit mantissa) fills 10 of its 12 or 16; the rest is
#: whatever was in memory, and left alone it would give the same state a
#: different stored length from one write to the next.
_LD_VALUE_BYTES = 10 if np.finfo(np.longdouble).nmant == 63 else _LD_SIZE

#: The pools after ``fixed``, in file order.
_POOLS = (np.dtype(np.longdouble), np.dtype("<f8"), np.dtype("<u4"))
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
_PART = struct.Struct("<IIII")


class CorruptCheckpoint(Exception):
    """The checkpoint bytes cannot be trusted."""


class StaleCheckpoint(Exception):
    """An intact checkpoint in a format this build does not read."""


_FILE = Envelope(_MAGIC, _FORMAT, "IIII", error=CorruptCheckpoint)
_FORMAT_4 = Envelope(_MAGIC, 4, "IIII", error=CorruptCheckpoint)
_FORMAT_3 = Envelope(_MAGIC, 3, "IQQ", error=CorruptCheckpoint)
# Formats 1 and 2: raw body, the digest over the body alone.
_RAW_HEADER = struct.Struct("<4sHHIQQ32s")


class Reader:
    """One part of a checkpoint as its owner reads it back: the four
    pools and a cursor in each.  Whatever does not fit is
    :class:`CorruptCheckpoint`, here and in the owner's ``require``."""

    def __init__(self, fixed, ld, f8, idx) -> None:
        self._pools = [memoryview(fixed), *(
            np.asarray(pool, dtype) for pool, dtype in zip((ld, f8, idx), _POOLS))]
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

    def idx(self, count: int) -> np.ndarray:
        return self._take(3, count)

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
    parts = [payload.get(name) or (b"", (), (), ()) for name in _PARTS]
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
                      and hashlib.sha256(body).digest() == digest)
        if not intact:
            raise CorruptCheckpoint(f"unreadable as format {version}")
    raise StaleCheckpoint(f"format {version}, this build reads {_FORMAT}")


def loads(data: bytes) -> Dict[str, Any]:
    """``{"meta": dict, "bank": Reader, "accuracy": Reader}``, a part the
    file does not hold left out (a format-4 file's bank, always); raises
    :class:`CorruptCheckpoint` on anything off and
    :class:`StaleCheckpoint` for an intact file of format 1-3."""
    if data[:4] == _MAGIC and data[4:6] in (b"\1\0", b"\2\0", b"\3\0"):
        _reject_stale(data, data[4])
    envelope = _FORMAT_4 if data[4:6] == b"\4\0" else _FILE
    head = envelope.verify(data)
    if head.aux != _LD_SIZE:
        raise CorruptCheckpoint("longdouble width mismatch (foreign ABI)")
    if any(length % dtype.itemsize
           for length, dtype in zip(head.lengths[1:], _POOLS)):
        raise CorruptCheckpoint("pool length is not a whole number of items")
    fixed, *pools = envelope.inflate(head)
    src = Reader(fixed, *(np.frombuffer(pool, dtype)
                          for pool, dtype in zip(pools, _POOLS)))
    if envelope is _FILE:
        version, n, digest, link_len, classification_len = src.unpack(_META)
    else:
        version, n, link_len, classification_len = src.unpack(_META_4)
        digest = _META_DEFAULTS["row_digest"]
    try:
        names = src.raw(link_len).decode(), src.raw(classification_len).decode()
    except UnicodeDecodeError as exc:
        raise CorruptCheckpoint(f"undecodable name: {exc}") from None
    state: Dict[str, Any] = {
        "meta": dict(zip(_META_DEFAULTS, (version, n, digest, *names)))}
    for name, counts in [(name, src.unpack(_PART)) for name in _PARTS]:
        if counts[0]:
            state[name] = src.part(counts)
    src.finish()
    if envelope is _FORMAT_4:
        state.pop("bank", None)  # its rows are in the file, not in the store
    return state
