"""Durable tiered link-state store.

Three layers under one per-link directory (see
:mod:`repro.store.store` for the full durability contract):

* :mod:`repro.store.wal` — the CRC-framed active tail, torn-tail safe;
* :mod:`repro.store.segments` — sealed column segments with
  compaction;
* :mod:`repro.store.checkpoint` — packed streaming-bank checkpoints
  (exact longdouble round-trip) for O(1) cold-link revival.

Segments and checkpoints are two kinds of the one file envelope
(:mod:`repro.envelope`): verified header, one deflated body.

:class:`LinkStore` is the only class the serving layer touches.
"""

from repro.store.checkpoint import CorruptCheckpoint
from repro.store.segments import CorruptSegment
from repro.store.store import DEFAULT_SEGMENT_ROWS, LinkStore

__all__ = [
    "LinkStore",
    "DEFAULT_SEGMENT_ROWS",
    "CorruptSegment",
    "CorruptCheckpoint",
]
