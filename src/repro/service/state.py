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

:meth:`extend` is the bulk ingest path: a whole
:class:`~repro.data.frame.TransferFrame` folds in with one sorted merge
instead of N appends, bumping the version by the record count so
version-keyed caches stay exact.

A :class:`~repro.core.streaming.StreamingBank` rides along: in-order
appends fold into it in O(1) under the same lock, bulk extends rebuild it
once from the merged columns (vectorized), and the rare out-of-order
insert — which invalidates every positional window — rebuilds it too,
reported through the bank's ``on_rebuild`` hook.  The bank is how the
serving layer answers warm queries without walking the arrays; see
:mod:`repro.core.streaming`.

Tiered storage (:mod:`repro.store`) hooks in at two seams:

* **Write-through** — a ``persist`` callable receives every appended
  row (under the link lock, after the in-memory fold) so history is
  durable the moment :meth:`append`/:meth:`extend` return.  Persist
  failures degrade durability, never serving; the store counts them.
* **Evict/revive** — :meth:`revive` rebuilds a state from a checkpoint
  with **version continuity**: the version picks up exactly where the
  evicted state left off, so version-keyed cache entries stay exact
  across an evict→revive cycle.  History columns stay on disk until
  something actually needs them (:meth:`history`, :meth:`snapshot`, an
  out-of-order insert, a bulk extend); in-order appends and bank
  answers never touch them.  Hydration loads the spilled columns and
  stable-sorts them by end time — bit-identical row order, including
  tie-breaks, to the always-resident buffer, because the buffer's own
  merge discipline *is* a stable sort by (end time, arrival order).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.history import History
from repro.core.streaming import StreamingBank
from repro.data.buffer import ColumnBuffer
from repro.data.frame import OP_READ, OP_WRITE, TransferFrame
from repro.logs.record import Operation, TransferRecord

__all__ = ["LinkState", "OP_READ", "OP_WRITE"]

_INITIAL_CAPACITY = 64

_DTYPES = (
    ("times", np.dtype(np.float64)),
    ("values", np.dtype(np.float64)),
    ("sizes", np.dtype(np.int64)),
    ("ops", np.dtype(np.int8)),
)

#: ``persist(times, values, sizes, ops, source_offset)`` — called under
#: the link lock with the rows just folded in, in arrival order.
PersistFn = Callable[..., bool]

#: ``loader()`` -> (times, values, sizes, ops) in arrival order.
LoaderFn = Callable[[], Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


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
        self.evicted = False       # set (under lock) when spilled to disk
        self.touch = 0             # LRU recency stamp, service-managed
        self.ckpt_version = -1     # version the on-disk checkpoint covers
        self._persist = persist
        self._buffer = ColumnBuffer(_DTYPES, capacity=_INITIAL_CAPACITY)
        self._version = 0
        self._last_time = -np.inf
        self._base_n = 0                 # spilled rows not yet hydrated
        self._base_loader: Optional[LoaderFn] = None

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
    ) -> "LinkState":
        """An O(1) cold revival: framing numbers now, columns on demand.

        ``version`` continues the evicted state's counter (cache-key
        continuity); ``base_n`` rows stay on disk behind ``loader``
        until hydration; ``bank`` must already hold their fold.
        """
        state = cls(link, bank=bank, persist=persist)
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
    ) -> "LinkState":
        """A fully hydrated state from end-time-sorted columns.

        The checkpointless revival path: the caller already loaded and
        sorted the columns (and rebuilt ``bank`` from them).
        """
        state = cls(link, bank=bank, persist=persist)
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

    def resident_nbytes(self) -> int:
        """RAM held by the history columns (what eviction frees)."""
        with self.lock:
            return self._buffer.nbytes

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, record: TransferRecord, source_offset: int = 0) -> int:
        """Fold one completed transfer; returns the new version.

        Records usually arrive in end-time order (O(1) amortized); the
        rare out-of-order record — two transfers can overlap — is
        inserted at its sorted position via a copy, which leaves
        previously taken snapshots untouched.  An in-order append also
        folds into the streaming bank in O(1); out-of-order insertion
        rebuilds the bank, since it shifts every positional window (and
        hydrates a revived state first — position is meaningless against
        spilled rows).  ``source_offset`` is threaded to the persist
        hook for crash-consistent log-follower resume.
        """
        with self.lock:
            self._append_one_locked(
                record.end_time, record.bandwidth, record.file_size,
                OP_READ if record.operation is Operation.READ else OP_WRITE,
                source_offset, None,
            )
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
        """Fold a batch of records under one lock; returns the new version.

        The write-path counterpart of ``predict_batch``'s grouped reads:
        each maximal contiguous in-order run costs one buffer extend,
        one vectorized :meth:`StreamingBank.extend` fold, and **one**
        persist call (one WAL write downstream) instead of N of each.
        The version still advances exactly one per record — the i-th
        record of the batch got version ``returned - n + 1 + i`` — so
        version-keyed caches and quality pairing behave identically to
        sequential :meth:`append`.  Out-of-order stragglers take the
        per-record insert path (sorted-position copy + bank rebuild),
        preserving :meth:`append` semantics bit for bit.

        ``source_offset`` is either one scalar (recorded on the batch's
        last row, as :meth:`extend` does) or a per-row array from a
        batching log follower.  ``sync`` threads through to the persist
        hook (``None`` keeps the store's default) so a service-level
        group commit can defer fsync across links.
        """
        with self.lock:
            times = np.asarray(times, dtype=np.float64)
            values = np.asarray(values, dtype=np.float64)
            sizes = np.asarray(sizes, dtype=np.int64)
            ops = np.asarray(ops, dtype=np.int8)
            n = len(times)
            if n == 0:
                return self._version
            offsets = (np.asarray(source_offset, dtype=np.int64)
                       if np.ndim(source_offset) else None)
            lo = 0
            while lo < n:
                if times[lo] >= self._last_time:
                    hi = lo + 1
                    while hi < n and times[hi] >= times[hi - 1]:
                        hi += 1
                    run = slice(lo, hi)
                    self._buffer.extend_sorted(
                        (times[run], values[run], sizes[run], ops[run])
                    )
                    self.bank.extend(times[run], values[run],
                                     sizes[run], ops[run])
                    self._last_time = float(times[hi - 1])
                    self._version += hi - lo
                    if self._persist is not None:
                        self._persist_rows(
                            times[run], values[run], sizes[run], ops[run],
                            offsets[run] if offsets is not None
                            else (source_offset if hi == n else 0),
                            sync,
                        )
                    lo = hi
                else:
                    self._append_one_locked(
                        float(times[lo]), float(values[lo]),
                        int(sizes[lo]), int(ops[lo]),
                        int(offsets[lo]) if offsets is not None
                        else (source_offset if lo == n - 1 else 0),
                        sync,
                    )
                    lo += 1
            return self._version

    def _append_one_locked(
        self, time: float, value: float, size: int, op: int,
        source_offset, sync: Optional[bool],
    ) -> None:
        """Fold one record, lock already held (see :meth:`append`)."""
        in_order = time >= self._last_time
        if not in_order:
            self._hydrate_locked()
        self._buffer.append((time, value, size, op))
        if in_order:
            self.bank.add(time, value, size, op)
            self._last_time = time
        else:
            self._rebuild_bank("out_of_order")
        self._version += 1
        if self._persist is not None:
            self._persist_rows((time,), (value,), (size,), (op,),
                               source_offset, sync)

    def _persist_rows(self, times, values, sizes, ops, source_offset,
                      sync: Optional[bool]) -> None:
        """Invoke the persist hook, passing ``sync`` only when overridden
        (plain 5-argument persist callables keep working)."""
        if sync is None:
            self._persist(times, values, sizes, ops, source_offset)
        else:
            self._persist(times, values, sizes, ops, source_offset,
                          sync=sync)

    def extend(self, frame: TransferFrame, source_offset: int = 0) -> int:
        """Fold a whole frame in one sorted merge; returns the new version.

        The version advances by ``len(frame)`` — exactly as if each record
        had been appended individually — so version-keyed cache entries
        behave identically on either ingest path.  The streaming bank is
        rebuilt once from the merged columns (array kernels, not N folds)
        and resumes incrementally from there.
        """
        with self.lock:
            if len(frame):
                self._hydrate_locked()
                ordered = frame if frame.is_sorted else frame.sort_by_end_time()
                ops = ordered.ops.astype(np.int8)
                self._buffer.extend_sorted(
                    (ordered.end_times, ordered.bandwidths, ordered.sizes, ops)
                )
                times, _, _, _ = self._buffer.views()
                self._last_time = float(times[-1])
                self._rebuild_bank("bulk")
                if self._persist is not None:
                    self._persist(
                        ordered.end_times, ordered.bandwidths,
                        ordered.sizes, ops, source_offset,
                    )
            self._version += len(frame)
            return self._version

    def _rebuild_bank(self, reason: str) -> None:
        times, values, sizes, ops = self._buffer.views()
        self.bank.rebuild(times, values, sizes, ops, reason=reason)

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
        fingerprint differs from the serving classification.
        """
        with self.lock:
            return {
                "meta": {
                    "link": self.link,
                    "version": self._version,
                    "n": self._base_n + len(self._buffer),
                    "last_time": float(self._last_time),
                    "classification": fingerprint,
                },
                "bank": self.bank.state(),
            }

    def __repr__(self) -> str:
        return f"<LinkState {self.link} n={len(self)} v={self.version}>"
