"""Per-link incremental history state.

A :class:`LinkState` is the live, growable counterpart of the immutable
:class:`~repro.core.history.History`: a versioned wrapper around a
:class:`~repro.data.buffer.ColumnBuffer` of (end time, bandwidth, size,
operation) columns.  The **version** counter increments on every append —
that is what makes precise cache invalidation possible: a cached
prediction is keyed on the version it was computed against, so it dies
the moment the link's history grows and survives any amount of growth on
*other* links.

Snapshot semantics under concurrency come from the buffer: ``history()``
returns a zero-copy :class:`History` view of the first ``n`` slots,
in-order appends write only outside existing views, and growth or
out-of-order insertion allocates fresh arrays — a snapshot taken at
version ``v`` stays internally consistent forever.  Mutation is
serialized by the per-link lock (the buffer itself holds no locks).

Rows enter through :meth:`append_batch` — a tailed record, an
``observe_batch`` group and a whole log file alike — and :meth:`append`
is its O(1) single-row form.  The version advances one per row, so
version-keyed caches cannot tell the two apart.

A :class:`~repro.core.streaming.StreamingBank` rides along: in-order
rows fold into it under the same lock (``add`` for one,
``extend`` for a run), and rows that land out of order — which moves
every positional window — are merged into the columns at once and
followed by one rebuild, reported through the bank's ``on_rebuild``
hook.  The bank is how the serving layer answers warm queries without
walking the arrays; see :mod:`repro.core.streaming`.

Tiered storage (:mod:`repro.store`) hooks in at two seams:

* **Write-through** — a ``persist`` callable receives every appended
  row (under the link lock, after the in-memory fold) so history is
  durable the moment :meth:`append`/:meth:`append_batch` return.  Persist
  failures degrade durability, never serving; the store counts them.
* **Evict/revive** — :meth:`revive` rebuilds a state from a checkpoint
  with **version continuity**: the version picks up exactly where the
  evicted state left off, so version-keyed cache entries stay exact
  across an evict→revive cycle.  History columns stay on disk until
  something actually needs them (:meth:`history`, :meth:`snapshot`, a
  row out of order); in-order appends and bank answers never touch
  them.  Hydration loads the spilled columns and
  stable-sorts them by end time — bit-identical row order, including
  tie-breaks, to the always-resident buffer, because the buffer's own
  merge discipline *is* a stable sort by (end time, arrival order).
  A running :func:`row_digest` of every row in arrival order rides
  along, so a checkpoint can name the rows its bank holds without
  holding them, hydrated or not.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.history import History
from repro.core.streaming import StreamingBank
from repro.data.buffer import ColumnBuffer
from repro.data.frame import OP_READ, OP_WRITE
from repro.logs.record import Operation, TransferRecord

__all__ = ["LinkState", "OP_READ", "OP_WRITE", "row_digest"]

_INITIAL_CAPACITY = 64

_DTYPES = (
    ("times", np.dtype(np.float64)),
    ("values", np.dtype(np.float64)),
    ("sizes", np.dtype(np.int64)),
    ("ops", np.dtype(np.int8)),
)

#: ``persist(times, values, sizes, ops, source_offset, sync=...)`` —
#: called under the link lock, once per append, with the rows just folded
#: in, in arrival order.
PersistFn = Callable[..., bool]

#: ``loader()`` -> (times, values, sizes, ops) in arrival order.
LoaderFn = Callable[[], Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

#: A row as :func:`row_digest` reads it: what the bank folds of it.
_ROW = np.dtype([("time", "<f8"), ("value", "<f8"), ("size", "<i8")])
_ONE_ROW = struct.Struct("<ddq")


def row_digest(times=(), values=(), sizes=(), into=None):
    """A running BLAKE2b-128 over rows in arrival order — each row's end
    time, bandwidth and size, little-endian — continuing ``into`` when
    given: how a checkpoint names the rows ``[0, n)`` its bank holds."""
    rows = np.empty(len(times), dtype=_ROW)
    rows["time"], rows["value"], rows["size"] = times, values, sizes
    digest = hashlib.blake2b(digest_size=16) if into is None else into
    digest.update(rows)
    return digest


class LinkState:
    """Growable, versioned observation arrays for one (source, dest) link."""

    def __init__(
        self,
        link: str,
        bank: StreamingBank,
        persist: Optional[PersistFn] = None,
    ):
        if not link:
            raise ValueError("link name must be non-empty")
        self.link = link
        self.lock = threading.RLock()
        self.bank = bank
        self.ckpt_version = -1     # version the on-disk checkpoint covers
        self._persist = persist
        self._buffer = ColumnBuffer(_DTYPES, capacity=_INITIAL_CAPACITY)
        self._version = 0
        self._last_time = -np.inf
        self._base_n = 0                 # spilled rows not yet hydrated
        self._base_loader: Optional[LoaderFn] = None
        self._digest = row_digest()      # of every row, arrival order

    # ------------------------------------------------------------------
    # revival (the durable store's load seam)
    # ------------------------------------------------------------------
    @classmethod
    def revive(
        cls,
        link: str,
        bank: StreamingBank,
        version: int,
        base_n: int,
        last_time: float,
        loader: LoaderFn,
        persist: Optional[PersistFn] = None,
        digest=None,
    ) -> "LinkState":
        """An O(1) cold revival: framing numbers now, columns on demand.

        ``version`` continues the evicted state's counter (cache-key
        continuity); ``base_n`` rows stay on disk behind ``loader``
        until hydration; ``bank`` must already hold their fold, and
        ``digest`` is their :func:`row_digest` (without one, a checkpoint
        of this state does not verify: its link rebuilds on revival).
        """
        state = cls(link, bank=bank, persist=persist)
        state._digest = digest or state._digest
        state._version = int(version)
        state._base_n = int(base_n)
        state._base_loader = loader if base_n else None
        state._last_time = float(last_time) if base_n else -np.inf
        return state

    @classmethod
    def from_columns(
        cls,
        link: str,
        bank: StreamingBank,
        version: int,
        columns: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        persist: Optional[PersistFn] = None,
        digest=None,
    ) -> "LinkState":
        """A fully hydrated state from end-time-sorted columns.

        The rebuilding revival path: the caller already loaded and
        sorted the columns (and rebuilt ``bank`` from them); ``digest``
        is as for :meth:`revive`.
        """
        state = cls(link, bank=bank, persist=persist)
        state._digest = digest or state._digest
        state._buffer = ColumnBuffer.from_columns(_DTYPES, columns)
        state._version = int(version)
        if len(columns[0]):
            state._last_time = float(columns[0][-1])
        return state

    def _hydrate_locked(self) -> None:
        """Load spilled base rows under the current buffer, once.

        Arrival-order rows from the store are stable-argsorted by end
        time — exactly the order the always-resident buffer would hold
        them in — and rows appended since revival merge on top (they are
        in-order by construction; anything out-of-order hydrates first).
        """
        if self._base_loader is None:
            return
        loader, base_n = self._base_loader, self._base_n
        self._base_loader = None
        self._base_n = 0
        times, values, sizes, ops = loader()
        times = np.asarray(times, dtype=np.float64)[:base_n]
        values = np.asarray(values, dtype=np.float64)[:base_n]
        sizes = np.asarray(sizes, dtype=np.int64)[:base_n]
        ops = np.asarray(ops, dtype=np.int8)[:base_n]
        order = np.argsort(times, kind="stable")
        base = ColumnBuffer.from_columns(
            _DTYPES, (times[order], values[order], sizes[order], ops[order])
        )
        live = self._buffer.views()
        if len(live[0]):
            base.extend_sorted(live)
        self._buffer = base

    @property
    def hydrated(self) -> bool:
        with self.lock:
            return self._base_loader is None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, record: TransferRecord, source_offset: int = 0) -> int:
        """Fold one completed transfer; returns the new version.

        Records usually arrive in end-time order: one buffer slot, one
        O(1) :meth:`StreamingBank.add`, one persisted row.  Two transfers
        can overlap, and the one that ends out of order is a batch of one
        (:meth:`append_batch`).  ``source_offset`` is threaded to the
        persist hook for crash-consistent log-follower resume.
        """
        time, value, size = record.end_time, record.bandwidth, record.file_size
        op = OP_READ if record.operation is Operation.READ else OP_WRITE
        with self.lock:
            if time < self._last_time:
                return self.append_batch(
                    (time,), (value,), (size,), (op,), source_offset)
            self._buffer.append((time, value, size, op))
            self.bank.add(time, value, size, op)
            self._digest.update(_ONE_ROW.pack(time, value, size))
            self._last_time = time
            self._version += 1
            if self._persist is not None:
                self._persist((time,), (value,), (size,), (op,),
                              source_offset, sync=None)
            return self._version

    def append_batch(
        self,
        times,
        values,
        sizes,
        ops,
        source_offset=0,
        sync: Optional[bool] = None,
    ) -> int:
        """Fold rows in arrival order under one lock; returns the new version.

        The one way rows enter a link.  Rows in end-time order cost one
        buffer extend and one :meth:`StreamingBank.extend`.  If any row
        ends before its predecessor (or before the link's last row), the
        batch is merged into the hydrated columns at once — stable by end
        time, so equal keys keep arrival order, as one sorted insert per
        row would — and the bank is rebuilt once, which moves every
        positional window and leaves the accumulators the in-order fold
        of the merged columns would have.  The version advances one per
        row — the i-th row of the batch got version ``returned - n + 1 +
        i`` — so version-keyed caches and quality pairing cannot tell a
        batch from n appends.

        The persist hook is called once, with every row in arrival order.
        ``source_offset`` is one scalar (the store records it on the last
        row) or a per-row array from the log follower; ``sync`` overrides
        the store's fsync policy (``False`` defers to a group commit).
        """
        with self.lock:
            times = np.asarray(times, dtype=np.float64)
            batch = (times, np.asarray(values, dtype=np.float64),
                     np.asarray(sizes, dtype=np.int64),
                     np.asarray(ops, dtype=np.int8))
            n = len(times)
            if n == 0:
                return self._version
            if times[0] < self._last_time or (np.diff(times) < 0).any():
                self._hydrate_locked()
                order = np.argsort(times, kind="stable")
                self._buffer.extend_sorted(
                    tuple(column[order] for column in batch))
                self.bank.rebuild(*self._buffer.views(), reason="out_of_order")
            else:
                self._buffer.extend_sorted(batch)
                self.bank.extend(*batch)
            row_digest(*batch[:3], into=self._digest)
            self._last_time = float(self._buffer.views()[0][-1])
            self._version += n
            if self._persist is not None:
                self._persist(*batch, source_offset, sync=sync)
            return self._version

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        with self.lock:
            return self._version

    @property
    def last_time(self) -> float:
        with self.lock:
            return self._last_time

    def meta(self) -> "tuple[int, int]":
        """``(version, length)`` under a single lock acquisition.

        The serving hot path reads both on every query; one acquisition
        instead of two property round-trips keeps the fixed per-predict
        cost down.  Length counts spilled base rows without hydrating.
        """
        with self.lock:
            return self._version, self._base_n + len(self._buffer)

    def __len__(self) -> int:
        with self.lock:
            return self._base_n + len(self._buffer)

    def history(self) -> History:
        """Zero-copy :class:`History` view of the current observations."""
        with self.lock:
            self._hydrate_locked()
            times, values, sizes, _ = self._buffer.views()
            return History(times, values, sizes)

    def snapshot(self):
        """``(times, values, sizes, ops, version)`` views, for providers."""
        with self.lock:
            self._hydrate_locked()
            times, values, sizes, ops = self._buffer.views()
            return (times, values, sizes, ops, self._version)

    # ------------------------------------------------------------------
    # checkpointing (the durable store's spill seam)
    # ------------------------------------------------------------------
    def checkpoint_state(self, fingerprint: str) -> dict:
        """The serializable state an eviction writes (under the lock).

        ``fingerprint`` identifies the classification the bank's class
        series are keyed by; revival rejects a checkpoint whose
        fingerprint differs from the serving classification.  The bank
        holds no rows: ``n`` and ``row_digest`` name the link's first
        ``n`` rows in arrival order, which its store holds.
        """
        with self.lock:
            return {
                "meta": {
                    "link": self.link,
                    "version": self._version,
                    "n": self._base_n + len(self._buffer),
                    "row_digest": self._digest.digest(),
                    "classification": fingerprint,
                },
                "bank": self.bank.state(),
            }

    def __repr__(self) -> str:
        return f"<LinkState {self.link} n={len(self)} v={self.version}>"
