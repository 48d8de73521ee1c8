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
with :data:`_META` and one :data:`_PART` of pool lengths per part.
:func:`loads` hands each part back as a :class:`Reader` for its owner's
``load_state``.

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
  them, and a window's count is where its cursor stands.  Nor does it
  name its link (the directory does, and a file in another link's
  directory fails its ``row_digest``) or spell out its classification
  (:func:`fingerprint` stands for it).  About 400 B a 30-row link,
  whatever its length, plus its accuracy part.
* **Speed.**  Revival must stay sub-millisecond, so the whole file is
  one read, one digest check and one bounded inflate: the shared file
  envelope (:mod:`repro.envelope`), whose ``aux`` field carries the
  long-double width here.  No zip container, no pickle.

Corruption (torn write, bit rot, injected fault at the
``store.checkpoint`` site) surfaces as :class:`CorruptCheckpoint`; the
store quarantines the file and the link rebuilds from its segments —
slower, never wrong.  A file of any other format, older or newer, is
:class:`StaleCheckpoint` (:func:`repro.envelope.foreign_format`): the
same rebuild, but the file is another build's to judge, so it stays
where it is until the link's next checkpoint replaces it.  A checkpoint
is a cache of what the rows determine, so this build reads its own
format and no other.

Longdouble width is platform-dependent; a checkpoint written on a
different ABI fails the width check and is treated as corrupt, which
degrades to a rebuild.
"""

from __future__ import annotations

import struct
from typing import Any, Dict

import numpy as np

from repro import digests
from repro.envelope import Envelope, foreign_format

__all__ = ["CorruptCheckpoint", "Reader", "StaleCheckpoint", "dumps",
           "fingerprint", "loads"]

_MAGIC = b"RSCK"
#: Superseded formats and what each changed: docs/performance.md.
_FORMAT = 8

_LD_SIZE = np.dtype(np.longdouble).itemsize
#: Leading bytes of a longdouble that hold its value.  x87 extended
#: precision (63-bit mantissa) fills 10 of its 12 or 16; the rest is
#: whatever was in memory, and left alone it would give the same state a
#: different stored length from one write to the next.
_LD_VALUE_BYTES = 10 if np.finfo(np.longdouble).nmant == 63 else _LD_SIZE

#: The pools after ``fixed``, in file order.
_POOLS = (np.dtype(np.longdouble), np.dtype("<f8"))
_PARTS = ("bank", "accuracy")

#: ``meta``: version, n, row_digest and the classification's
#: :func:`fingerprint`.  A key left out is stored as the value no live
#: link has.
_META = struct.Struct("<qq16s16s")
_META_DEFAULTS = {"version": -1, "n": -1, "row_digest": bytes(16),
                  "classification": bytes(16)}
#: Items one part holds in each pool; all zero when the part is absent.
_PART = struct.Struct("<III")


class CorruptCheckpoint(Exception):
    """The checkpoint bytes cannot be trusted."""


class StaleCheckpoint(Exception):
    """A checkpoint in a format this build does not read."""


_FILE = Envelope(_MAGIC, _FORMAT, "III", error=CorruptCheckpoint)


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


def fingerprint(classification: str) -> bytes:
    """What ``meta`` holds of the classification a bank was built
    against: BLAKE2b-128 of its text, the width of ``row_digest``.
    BLAKE2b is looked up on call, so a build without it still reads and
    writes a checkpoint that names no classification."""
    return digests.blake2b(classification.encode(), digest_size=16).digest()


def dumps(payload) -> bytes:
    """Serialize ``{"meta", "bank", "accuracy"}``, each optional; a bare
    bank state stands for ``{"bank": state}``.  A ``link`` in ``meta`` is
    not stored: the link's directory names it."""
    if not isinstance(payload, dict):
        payload = {"bank": payload}
    meta = {**_META_DEFAULTS, **payload.get("meta", {})}
    meta.pop("link", None)
    if len(meta) > len(_META_DEFAULTS) or set(payload) - {"meta", *_PARTS}:
        raise TypeError(f"not a checkpoint payload: {sorted(payload)}")
    parts = [payload.get(name) or (b"", (), ()) for name in _PARTS]
    pools = [np.concatenate([np.asarray(part[i], dtype) for part in parts])
             for i, dtype in enumerate(_POOLS, 1)]
    fixed = [
        _META.pack(meta["version"], meta["n"], bytes(meta["row_digest"]),
                   bytes(meta["classification"])),
        *(_PART.pack(*map(len, part)) for part in parts),
        *(part[0] for part in parts)]
    if _LD_VALUE_BYTES < _LD_SIZE:  # pools[0] is concatenate's own copy
        pools[0].view(np.uint8).reshape(-1, _LD_SIZE)[:, _LD_VALUE_BYTES:] = 0
    return _FILE.pack((b"".join(fixed), *(pool.tobytes() for pool in pools)),
                      aux=_LD_SIZE)


def loads(data: bytes) -> Dict[str, Any]:
    """``{"meta": dict, "bank": Reader, "accuracy": Reader}``, a part the
    file does not hold left out; raises :class:`CorruptCheckpoint` on
    anything off and :class:`StaleCheckpoint` for a file of another
    format."""
    foreign = foreign_format(data, (_FILE,))
    if foreign is not None:
        raise StaleCheckpoint(f"format {foreign}, this build reads {_FORMAT}")
    head = _FILE.verify(data)
    if head.aux != _LD_SIZE:
        raise CorruptCheckpoint("longdouble width mismatch (foreign ABI)")
    if any(length % dtype.itemsize
           for length, dtype in zip(head.lengths[1:], _POOLS)):
        raise CorruptCheckpoint("pool length is not a whole number of items")
    fixed, *sections = _FILE.inflate(head)
    src = Reader(fixed, *(np.frombuffer(section, dtype)
                          for section, dtype in zip(sections, _POOLS)))
    state: Dict[str, Any] = {"meta": dict(zip(_META_DEFAULTS,
                                              src.unpack(_META)))}
    for name, counts in [(name, src.unpack(_PART)) for name in _PARTS]:
        if counts[0]:
            state[name] = src.part(counts)
    src.finish()
    return state
