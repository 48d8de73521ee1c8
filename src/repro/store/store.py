"""The durable tiered store: one directory of history per link.

Layout, under ``root/links/<urlquoted link>/``::

    tail.wal              CRC-framed active tail (repro.store.wal);
                          absent once a seal has folded its rows away
    seg-<start>.col       sealed column segments (repro.store.segments);
                          the last one is *open* while it holds fewer
                          than ``segment_rows`` rows
    seg-full.col          compacted whole-history segment, if any
    checkpoint.bin        latest streaming-bank checkpoint
    *.quarantined         corrupt files moved aside, never consulted

Segments and checkpoints are two kinds of one file envelope
(:mod:`repro.envelope`): verified header, one deflated body.  A
``seg-*.npz`` is a segment written by an earlier build; it is read where
it lies and rewritten as ``.col`` by the next compaction.

A seal does not drop a new small file beside the last one: while the
open segment and the tail together fit in ``segment_rows`` it reads that
segment, appends the tail's rows and rewrites it under the same name,
then removes ``tail.wal``.  A new numbered segment starts only when the
rows would not fit, or the last segment is a ``.npz`` or does not end
where the tail begins.  A link that is evicted or shut down is therefore
one segment, one checkpoint and (between seals) a short tail.

Durability contract
-------------------
* Appends land in the tail as fixed-size CRC records *before* the call
  returns; a ``kill -9`` can tear at most the last in-flight record,
  and recovery truncates the torn suffix (never serves it).
* Segments and checkpoints are written to a temp file, optionally
  fsynced, and ``os.replace``d — readers see the old file or the new
  one, never a partial.  A ``*.tmp`` stranded by a kill mid-write is
  removed on recovery (its rows are still in the tail).
* A seal replaces the segment first and removes the tail second; a
  crash in between leaves the sealed rows in both, and WAL ``seq``
  numbers dedup them on every scan.  A tail that could not be read in
  full (torn bytes, fewer rows than were acked) is never removed.
* A tail append that the filesystem cut short is refused like one it
  rejected: not acked, and the partial record is cut off before the next
  append so no acked row ever lands behind a torn one.
* Anything that fails checksum verification is quarantined
  (``*.quarantined``), counted, and announced — after which the link is
  *degraded*: its checkpoint is no longer trusted (row counts can no
  longer be reconciled) and revival falls back to rebuilding from the
  surviving rows.

Fault sites: ``store.segment`` (segment read/write, tail read/append)
and ``store.checkpoint`` (checkpoint read/write), matching the chaos
suite's ``error``/``truncate``/``corrupt`` vocabulary.

Concurrency: one lock per link (all tail/segment/checkpoint mutation),
plus a short global lock for the name/handle/lock registries.  The
store never raises out of the append path — persistence failures are
counted and degrade durability, not serving.
"""

from __future__ import annotations

import os
import threading
import time
import urllib.parse
from collections import OrderedDict
from contextlib import suppress
from pathlib import Path
from typing import Dict, IO, List, Optional, Tuple, Union

import numpy as np

from repro import faults as _faults
from repro.envelope import atomic_write, quarantine
from repro.obs.config import enabled as _obs_enabled
from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry
from repro.store import checkpoint as _checkpoint
from repro.store import segments as _segments
from repro.store import wal as _wal
from repro.store.segments import FULL_NAME, segment_name

__all__ = ["LinkStore", "DEFAULT_SEGMENT_ROWS"]

#: Tail rows that trigger an automatic seal into a segment.
DEFAULT_SEGMENT_ROWS = 4096

_TAIL_NAME = "tail.wal"
_CHECKPOINT_NAME = "checkpoint.bin"

_REG = get_registry()
_M_APPENDED = _REG.counter(
    "store_rows_appended", "history rows made durable in the tail log")
_M_APPEND_ERRORS = _REG.counter(
    "store_append_errors", "tail appends refused by the filesystem")
_M_SEALS = _REG.counter(
    "store_segments_sealed", "tails sealed into column segments")
_M_SEALED_ROWS = _REG.counter(
    "store_rows_sealed",
    "rows written into segment files, rewrites of an open segment included")
_M_SEAL_ERRORS = _REG.counter(
    "store_seal_errors", "segment seals that failed (rows stay in the tail)")
_M_COMPACTIONS = _REG.counter(
    "store_compactions", "whole-history segment compactions")
_M_CHECKPOINTS = _REG.counter(
    "store_checkpoints_written", "streaming-bank checkpoints written")
_M_CHECKPOINT_ERRORS = _REG.counter(
    "store_checkpoint_errors", "checkpoint writes that failed")
_M_CHECKPOINT_BYTES = _REG.counter(
    "store_checkpoint_bytes", "checkpoint bytes stored (after deflate)")
_H_CHECKPOINT_WRITE = _REG.histogram(
    "store_checkpoint_write_seconds",
    "write_checkpoint latency: encode, write, (fsync,) replace")
_H_CHECKPOINT_READ = _REG.histogram(
    "store_checkpoint_read_seconds",
    "read_checkpoint latency for checkpoints that loaded: read, verify, decode")
_M_QUARANTINED = _REG.counter(
    "store_quarantined", "corrupt segments/checkpoints quarantined")
_M_TORN = _REG.counter(
    "store_torn_tails", "torn tail suffixes truncated during recovery")
_M_DEDUPED = _REG.counter(
    "store_tail_rows_deduped", "tail rows dropped as duplicates of sealed rows")
_M_GROUP_COMMITS = _REG.counter(
    "store_group_commits", "cross-link WAL group commits (one per batch)")
_M_FSYNCS = _REG.counter(
    "store_fsyncs", "tail fsyncs issued for durable acks")


class _Segment:
    """Metadata for one sealed segment (columns stay on disk)."""

    __slots__ = ("path", "start_row", "rows", "max_offset")

    def __init__(self, path: Path, start_row: int, rows: int, max_offset: int):
        self.path = path
        self.start_row = start_row
        self.rows = rows
        self.max_offset = max_offset

    @property
    def end_row(self) -> int:
        return self.start_row + self.rows


class _LinkMeta:
    """In-memory framing state for one link's directory."""

    __slots__ = ("link", "directory", "segments", "sealed_rows", "tail_rows",
                 "tail_bytes", "tail_torn", "next_seq", "max_offset",
                 "degraded")

    def __init__(self, link: str, directory: Path):
        self.link = link
        self.directory = directory
        self.segments: List[_Segment] = []
        self.sealed_rows = 0          # rows covered by sealed segments
        self.tail_rows = 0            # live (deduped) rows in the tail
        self.tail_bytes = 0           # length of the tail's good records
        self.tail_torn = False        # bytes past tail_bytes await a cut
        self.next_seq = 0             # seq for the next appended row
        self.max_offset = 0           # largest source offset made durable
        self.degraded = False         # a quarantine broke row accounting

    @property
    def tail_path(self) -> Path:
        return self.directory / _TAIL_NAME

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / _CHECKPOINT_NAME

    def durable_rows(self) -> int:
        return sum(seg.rows for seg in self.segments) + self.tail_rows


def _tail_columns(tail: _wal.TailScan) -> List[np.ndarray]:
    """The scan's rows as the four typed columns a segment holds."""
    return [np.asarray(column, dtype=dtype) for column, dtype in zip(
        (tail.times, tail.values, tail.sizes, tail.ops),
        (np.float64, np.float64, np.int64, np.int8))]


def _quote(link: str) -> str:
    return urllib.parse.quote(link, safe="")


def _unquote(name: str) -> str:
    return urllib.parse.unquote(name)


class LinkStore:
    """Durable tiered history for many links under one root directory.

    Parameters
    ----------
    root:
        Store directory (created if missing); link data lives under
        ``root/links/``.
    segment_rows:
        Tail size that triggers an automatic seal.
    fsync:
        Fsync segments and checkpoints at write time.  Off by default:
        the page cache survives process death (``kill -9``), which is
        the crash mode the parity gates cover; power-loss durability
        costs the extra fsync.
    max_open_tails:
        Tail file handles kept open across appends (LRU).
    """

    def __init__(
        self,
        root: Union[str, Path],
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        fsync: bool = False,
        max_open_tails: int = 64,
    ) -> None:
        self.root = Path(root)
        self.segment_rows = int(segment_rows)
        self.fsync = bool(fsync)
        self.max_open_tails = int(max_open_tails)
        self._links_dir = self.root / "links"
        self._links_dir.mkdir(parents=True, exist_ok=True)
        self._registry_lock = threading.Lock()
        self._locks: Dict[str, threading.RLock] = {}
        self._metas: Dict[str, _LinkMeta] = {}
        self._handles: "OrderedDict[str, IO[bytes]]" = OrderedDict()
        self._known = {
            _unquote(entry.name)
            for entry in os.scandir(self._links_dir)
            if entry.is_dir()
        }
        self._bytes_cache: Optional[Tuple[float, int]] = None
        #: Lifetime batch-durability accounting for this store instance
        #: (the registry counters aggregate across instances).
        self.group_commits = 0
        self.tail_fsyncs = 0

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def has(self, link: str) -> bool:
        """O(1): does the store hold any state for this link?"""
        with self._registry_lock:
            return link in self._known

    def link_names(self) -> List[str]:
        with self._registry_lock:
            return sorted(self._known)

    def link_count(self) -> int:
        with self._registry_lock:
            return len(self._known)

    def _lock_for(self, link: str) -> threading.RLock:
        with self._registry_lock:
            lock = self._locks.get(link)
            if lock is None:
                lock = self._locks[link] = threading.RLock()
            return lock

    def close(self) -> None:
        """Close cached tail handles (data is already flushed per append)."""
        with self._registry_lock:
            handles, self._handles = self._handles, OrderedDict()
        for handle in handles.values():
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "LinkStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _meta(self, link: str, create: bool = False) -> Optional[_LinkMeta]:
        """The link's framing state, recovering from disk on first touch.

        Caller must hold the link's lock.
        """
        meta = self._metas.get(link)
        if meta is not None:
            return meta
        directory = self._links_dir / _quote(link)
        if not directory.is_dir():
            if not create:
                return None
            directory.mkdir(parents=True, exist_ok=True)
        meta = self._recover(link, directory)
        with self._registry_lock:
            self._metas[link] = meta
            self._known.add(link)
        return meta

    def _recover(self, link: str, directory: Path) -> _LinkMeta:
        meta = _LinkMeta(link, directory)
        found: List[_Segment] = []
        for entry in sorted(os.scandir(directory), key=lambda e: e.name):
            path = directory / entry.name
            if entry.name.endswith(".tmp"):
                # A write killed before its rename; never the only copy.
                try:
                    path.unlink()
                except OSError:
                    pass
            elif _segments.is_segment_name(entry.name):
                seg = self._read_segment_meta(meta, path)
                if seg is not None:
                    found.append(seg)

        # Row order, the widest first where two start together (a
        # compacted seg-full over the segments it merged).
        found.sort(key=lambda seg: (seg.start_row, -seg.rows, seg.path.name))
        covered = 0
        for seg in found:
            if seg.end_row <= covered:
                # Superseded by the compacted segment; a crash mid-compaction
                # left it behind.  Finish the cleanup.
                try:
                    seg.path.unlink()
                except OSError:
                    pass
                continue
            if seg.start_row != covered:
                meta.degraded = True
            meta.segments.append(seg)
            covered = seg.end_row
        meta.sealed_rows = covered
        meta.max_offset = max(
            (seg.max_offset for seg in meta.segments), default=0)

        tail = self._read_tail(meta, recover=True)
        meta.tail_rows = len(tail)
        meta.tail_bytes = tail.valid_bytes
        if tail.seqs:
            meta.next_seq = tail.seqs[-1] + 1
        else:
            meta.next_seq = meta.sealed_rows
        if tail.offsets:
            meta.max_offset = max(meta.max_offset, max(tail.offsets))
        return meta

    def _read_segment_meta(self, meta: _LinkMeta, path: Path) -> Optional[_Segment]:
        try:
            start_row, rows, max_offset = _segments.read_framing(path)
        except FileNotFoundError:
            return None
        except Exception:
            self._quarantine_file(meta, path, kind="segment")
            meta.degraded = True
            return None
        return _Segment(path, start_row, rows, max_offset)

    def _read_tail(self, meta: _LinkMeta, recover: bool = False) -> _wal.TailScan:
        """Scan the tail's valid, deduped rows; truncate torn bytes once.

        Every scan applies the same dedup rule, so repeated reads are
        deterministic even when a crash split a seal from the removal of
        the tail it sealed.
        """
        path = meta.tail_path
        try:
            _faults.check("store.segment", path=str(path), op="tail-read")
            raw = path.read_bytes()
        except FileNotFoundError:
            return _wal.TailScan()
        except OSError:
            meta.degraded = True
            return _wal.TailScan()
        raw = _faults.filter_bytes("store.segment", raw, path=str(path))
        scan = _wal.scan(raw)
        if scan.torn_bytes and recover:
            try:
                os.truncate(path, scan.valid_bytes)
            except OSError:
                meta.degraded = meta.tail_torn = True
            if _obs_enabled():
                _M_TORN.inc()
                get_event_bus().emit(
                    "store.torn_tail", link=meta.link, path=str(path),
                    kept=scan.valid_bytes, dropped=scan.torn_bytes,
                )
        kept, dropped = _wal.dedup(scan, meta.sealed_rows)
        if dropped and _obs_enabled():
            _M_DEDUPED.inc(dropped)
        return kept

    def _quarantine_file(self, meta: _LinkMeta, path: Path, kind: str) -> None:
        target = quarantine(path)
        if _obs_enabled():
            _M_QUARANTINED.inc()
            get_event_bus().emit(
                "store.quarantine", link=meta.link, file=kind, path=str(path),
                quarantined=str(target) if target else None,
            )

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def append_rows(
        self,
        link: str,
        times,
        values,
        sizes,
        ops,
        source_offset=0,
        sync: Optional[bool] = None,
    ) -> bool:
        """Make rows durable in the link's tail; never raises.

        ``source_offset`` is the followed log's byte position *after*
        the last of these rows (0 when not log-driven); it is stamped on
        the final record so a warm restart can resume the follower.  A
        per-row sequence is also accepted, so a batched follower keeps a
        resume point for every record rather than only the batch's last.

        ``sync`` overrides the store's fsync policy for this append:
        ``False`` defers durability to a following :meth:`group_commit`
        (the batched write path), ``True`` forces an fsync before
        returning, and ``None`` follows ``self.fsync`` — in fsync mode a
        per-record append pays one fsync per record, which is exactly
        the cost the group commit amortizes.

        Returns False when the filesystem refused (counted; serving
        continues from RAM).
        """
        n = len(times)
        if n == 0:
            return True
        with self._lock_for(link):
            meta = self._meta(link, create=True)
            seq0 = meta.next_seq
            if np.ndim(source_offset):
                offsets = np.asarray(source_offset, dtype=np.int64)
                last_offset = int(offsets.max()) if n else 0
            else:
                offsets = np.zeros(n, dtype=np.int64)
                offsets[-1] = int(source_offset)
                last_offset = int(source_offset)
            blob = _wal.encode_columns(seq0, times, values, sizes, ops,
                                       offsets)
            try:
                _faults.check(
                    "store.segment", path=str(meta.tail_path), op="tail-write")
                self._cut_torn_locked(meta)
                try:
                    handle = self._tail_handle(meta)
                    written = handle.write(blob)
                except ValueError:
                    # The LRU closed this handle under us (another link's
                    # append evicted it); the cache miss reopens it.
                    with self._registry_lock:
                        self._handles.pop(link, None)
                    handle = self._tail_handle(meta)
                    written = handle.write(blob)
                if written != len(blob):
                    # The handle is unbuffered: a full disk or a quota
                    # shows up here as a count, not as an exception.
                    raise OSError(f"short write: {written} of {len(blob)}")
            except OSError:
                meta.tail_torn = True
                if _obs_enabled():
                    _M_APPEND_ERRORS.inc()
                    get_event_bus().emit(
                        "store.append_error", link=link, rows=n)
                return False
            meta.tail_rows += n
            meta.tail_bytes += len(blob)
            meta.next_seq = seq0 + n
            if last_offset:
                meta.max_offset = max(meta.max_offset, last_offset)
            if _obs_enabled():
                _M_APPENDED.inc(n)
            synced = True
            if self.fsync if sync is None else sync:
                synced = self._fsync_handle(handle)
            if meta.tail_rows >= self.segment_rows:
                self._seal_locked(meta)
            return synced

    def _cut_torn_locked(self, meta: _LinkMeta) -> None:
        """Cut off what a refused append left past the last good record,
        so the next acked row is not written behind it.  Raises
        ``OSError`` when the filesystem refuses that too."""
        if meta.tail_torn:
            with suppress(FileNotFoundError):
                os.truncate(meta.tail_path, meta.tail_bytes)
            meta.tail_torn = False

    def _tail_handle(self, meta: _LinkMeta) -> IO[bytes]:
        """An O_APPEND handle for the link's tail, LRU-cached."""
        with self._registry_lock:
            handle = self._handles.pop(meta.link, None)
            if handle is not None:
                self._handles[meta.link] = handle  # refresh recency
                return handle
        handle = open(meta.tail_path, "ab", buffering=0)
        evicted = []
        with self._registry_lock:
            self._handles[meta.link] = handle
            while len(self._handles) > self.max_open_tails:
                evicted.append(self._handles.popitem(last=False)[1])
        for old in evicted:
            try:
                old.close()
            except OSError:
                pass
        return handle

    def _fsync_handle(self, handle: IO[bytes]) -> bool:
        try:
            os.fsync(handle.fileno())
        except (OSError, ValueError):
            return False
        self.tail_fsyncs += 1
        if _obs_enabled():
            _M_FSYNCS.inc()
        return True

    def group_commit(self, links) -> bool:
        """Durability barrier closing a batch of ``sync=False`` appends.

        Fsyncs each touched link's tail once — at most one fsync per
        (link, batch) no matter how many rows the batch carried, which
        is what lets ``--fsync`` fleets ack batches as durable without
        paying a per-record fsync.  A no-op (but still counted) when the
        store is not in fsync mode, where the page-cache write already
        meets the kill -9 contract.  Returns False if any fsync failed.
        """
        touched = list(dict.fromkeys(links))
        fsyncs = 0
        ok = True
        if self.fsync:
            for link in touched:
                with self._lock_for(link):
                    meta = self._metas.get(link)
                    if meta is None or not meta.tail_rows:
                        # Nothing in the tail (a seal took the rows, and
                        # synced them): do not open an empty one.
                        continue
                    try:
                        handle = self._tail_handle(meta)
                    except OSError:
                        ok = False
                        continue
                    if self._fsync_handle(handle):
                        fsyncs += 1
                    else:
                        ok = False
        self.group_commits += 1
        if _obs_enabled():
            _M_GROUP_COMMITS.inc()
            get_event_bus().emit(
                "wal.group_commit", links=len(touched), fsyncs=fsyncs)
        return ok

    # ------------------------------------------------------------------
    # sealing and compaction
    # ------------------------------------------------------------------
    def seal(self, link: str, amortized: bool = False) -> bool:
        """Fold the link's tail into its open segment now (no-op when
        the tail is empty).

        ``amortized`` is the evict path's form: seal only when the tail
        holds at least as many rows as the open segment, or there is no
        open segment.  Rewriting a segment costs its whole length, so
        this is the doubling rule: a row is rewritten O(log
        ``segment_rows``) times, an evicted link never holds more rows
        in the tail than in its open segment, and one new row on a cold
        link does not rewrite the link.  Shutdown seals unconditionally.
        """
        with self._lock_for(link):
            meta = self._meta(link)
            if meta is None:
                return False
            if amortized and meta.segments:
                last = meta.segments[-1]
                if meta.tail_rows < last.rows and self._extends(
                        last, meta.next_seq - meta.tail_rows, meta.tail_rows):
                    return False
            return self._seal_locked(meta)

    def _extends(self, seg: _Segment, first_seq: int, rows: int) -> bool:
        """Can ``rows`` rows starting at ``first_seq`` be folded into
        this segment?  It must be a file of this build, end where they
        begin, and stay within ``segment_rows`` with them."""
        return (seg.path.suffix == ".col" and seg.end_row == first_seq
                and seg.rows + rows <= self.segment_rows)

    def _seal_locked(self, meta: _LinkMeta) -> bool:
        if not meta.tail_rows:
            return False
        held = meta.tail_rows
        with suppress(OSError):
            self._cut_torn_locked(meta)
        tail = self._read_tail(meta)
        if tail.torn_bytes or len(tail) < held:
            # Not read in full: removing it would lose acked rows.
            return self._seal_failed(meta, meta.tail_path)
        columns = _tail_columns(tail)
        start_row, rows = tail.seqs[0], len(tail)
        max_offset = max(meta.max_offset, max(tail.offsets))
        # The open segment — and, in a state dir of an earlier build,
        # the small segments each restart left before it.
        folded: List[_Segment] = []
        for seg in reversed(meta.segments):
            if not self._extends(seg, start_row, rows):
                break
            data = self._read_segment_locked(meta, seg)
            if data is None:
                # Quarantined.  Start over: the tail is rescanned against
                # what survives and sealed to a segment of its own.
                return self._seal_locked(meta)
            columns = [np.concatenate(pair) for pair in zip(data[3:], columns)]
            start_row, rows = seg.start_row, rows + seg.rows
            folded.append(seg)
        path = (folded[-1].path if folded
                else meta.directory / segment_name(start_row))
        try:
            _segments.write_segment(
                path, start_row, *columns,
                max_offset=max_offset, fsync=self.fsync,
            )
        except Exception:
            # Rows stay safe in the tail; sealing retries on later growth.
            return self._seal_failed(meta, path)
        for seg in folded[:-1]:
            # Superseded by the file just written (recovery would sweep
            # them the same way).
            with suppress(OSError):
                seg.path.unlink()
        self._drop_tail_locked(meta)
        meta.segments = [seg for seg in meta.segments if seg not in folded]
        meta.segments.append(_Segment(path, start_row, rows, max_offset))
        meta.segments.sort(key=lambda seg: seg.start_row)
        meta.sealed_rows = max(meta.sealed_rows, start_row + rows)
        if _obs_enabled():
            _M_SEALS.inc()
            _M_SEALED_ROWS.inc(rows)
            get_event_bus().emit(
                "store.seal", link=meta.link, rows=len(tail),
                merged=bool(folded), path=str(path))
        return True

    def _seal_failed(self, meta: _LinkMeta, path: Path) -> bool:
        if _obs_enabled():
            _M_SEAL_ERRORS.inc()
            get_event_bus().emit(
                "store.seal_error", link=meta.link, path=str(path))
        return False

    def _drop_tail_locked(self, meta: _LinkMeta) -> None:
        """Remove the tail once its rows are in a segment.

        The cached handle goes first: an ``O_APPEND`` handle on an
        unlinked inode would swallow every later row.  A tail that will
        not go stays as duplicates, which ``seq`` dedup hides.
        """
        with self._registry_lock:
            handle = self._handles.pop(meta.link, None)
        meta.tail_rows = 0
        try:
            if handle is not None:
                handle.close()
            meta.tail_path.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            return
        meta.tail_bytes, meta.tail_torn = 0, False

    def compact(self, link: str) -> bool:
        """Merge all segments and the tail into one ``seg-full.col``.

        Also repairs a degraded link: survivors are renumbered 0..n, so
        row accounting becomes trustworthy again (with the lost rows
        acknowledged as gone).
        """
        with self._lock_for(link):
            meta = self._meta(link)
            if meta is None:
                return False
            held = meta.tail_rows
            times, values, sizes, ops, tail = self._load_locked(meta)
            total = len(times)
            full = meta.directory / FULL_NAME
            if tail.torn_bytes or len(tail) < held:
                return self._seal_failed(meta, meta.tail_path)
            try:
                _segments.write_segment(
                    full, 0, times, values, sizes, ops,
                    max_offset=meta.max_offset, fsync=self.fsync,
                )
            except Exception:
                return self._seal_failed(meta, full)
            for seg in meta.segments:
                if seg.path != full:
                    with suppress(OSError):
                        seg.path.unlink()
            self._drop_tail_locked(meta)
            meta.segments = [_Segment(full, 0, total, meta.max_offset)]
            meta.sealed_rows = total
            meta.next_seq = total
            meta.degraded = False
            if _obs_enabled():
                _M_COMPACTIONS.inc()
                _M_SEALED_ROWS.inc(total)
                get_event_bus().emit("store.compact", link=link, rows=total)
            return True

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def durable_rows(self, link: str) -> int:
        with self._lock_for(link):
            meta = self._meta(link)
            return meta.durable_rows() if meta is not None else 0

    def degraded(self, link: str) -> bool:
        with self._lock_for(link):
            meta = self._meta(link)
            return meta.degraded if meta is not None else False

    def resume_offset(self, link: str) -> int:
        """Largest source-log offset made durable for this link."""
        with self._lock_for(link):
            meta = self._meta(link)
            return meta.max_offset if meta is not None else 0

    def load_columns(self, link: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All durable rows, in arrival order.

        Returns ``(times, values, sizes, ops)``.  Corrupt segments hit
        mid-read are quarantined and skipped (the link degrades).
        """
        with self._lock_for(link):
            meta = self._meta(link)
            if meta is None:
                empty = np.empty(0)
                return (empty.astype(np.float64), empty.astype(np.float64),
                        empty.astype(np.int64), empty.astype(np.int8))
            return self._load_locked(meta)[:4]

    def _read_segment_locked(
            self, meta: _LinkMeta, seg: _Segment) -> Optional[_segments.SegmentData]:
        """One segment's rows, or None for a file that cannot be trusted:
        it is quarantined, leaves the segment list, and the link degrades."""
        try:
            return _segments.read_segment(seg.path)
        except Exception:
            self._quarantine_file(meta, seg.path, kind="segment")
            meta.degraded = True
            meta.segments.remove(seg)
            meta.sealed_rows = max(
                (s.end_row for s in meta.segments), default=0)
            return None

    def _load_locked(self, meta: _LinkMeta):
        """Concatenate segment columns and live tail rows, arrival order."""
        parts: Tuple[List[np.ndarray], ...] = ([], [], [], [])
        for seg in list(meta.segments):
            data = self._read_segment_locked(meta, seg)
            if data is not None:
                for part, column in zip(parts, data[3:]):
                    part.append(column)
        tail = self._read_tail(meta)
        meta.tail_rows = len(tail)
        for part, column in zip(parts, _tail_columns(tail)):
            part.append(column)
        times, values, sizes, ops = (np.concatenate(part) for part in parts)
        return times, values, sizes, ops, tail

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def write_checkpoint(self, link: str, state: dict) -> bool:
        """Atomically persist a checkpoint; never raises (returns False)."""
        observed = _obs_enabled()
        started = time.perf_counter() if observed else 0.0
        with self._lock_for(link):
            meta = self._meta(link, create=True)
            path = meta.checkpoint_path
            try:
                data = _checkpoint.dumps(state)
                _faults.check("store.checkpoint", path=str(path), op="write")
                atomic_write(path, data, self.fsync)
            except Exception:
                if observed:
                    _M_CHECKPOINT_ERRORS.inc()
                    get_event_bus().emit(
                        "store.checkpoint_error", link=link, path=str(path))
                return False
            if observed:
                _M_CHECKPOINTS.inc()
                _M_CHECKPOINT_BYTES.inc(len(data))
                _H_CHECKPOINT_WRITE.observe(time.perf_counter() - started)
            return True

    def read_checkpoint(self, link: str) -> Optional[dict]:
        """The link's checkpoint state, or None (absent, format 1-3, or
        corrupt and now quarantined); a format-4 file comes back without
        its bank part (:func:`repro.store.checkpoint.loads`)."""
        observed = _obs_enabled()
        started = time.perf_counter() if observed else 0.0
        with self._lock_for(link):
            meta = self._meta(link)
            if meta is None:
                return None
            path = meta.checkpoint_path
            try:
                _faults.check("store.checkpoint", path=str(path), op="read")
                raw = path.read_bytes()
            except FileNotFoundError:
                return None
            except Exception:
                self._quarantine_file(meta, path, kind="checkpoint")
                return None
            raw = _faults.filter_bytes("store.checkpoint", raw, path=str(path))
            try:
                state = _checkpoint.loads(raw)
            except _checkpoint.StaleCheckpoint:
                # Intact, just another format: rebuild from the rows and
                # let the next checkpoint overwrite it.
                return None
            except Exception:
                self._quarantine_file(meta, path, kind="checkpoint")
                return None
            if observed:
                _H_CHECKPOINT_READ.observe(time.perf_counter() - started)
            return state

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def bytes_on_disk(self, max_age: float = 5.0) -> int:
        """Total bytes under the store root (cached for ``max_age`` s)."""
        now = time.monotonic()
        with self._registry_lock:
            cached = self._bytes_cache
            if cached is not None and now - cached[0] < max_age:
                return cached[1]
        total = 0
        for directory, _, files in os.walk(self.root):
            for name in files:
                try:
                    total += os.stat(os.path.join(directory, name)).st_size
                except OSError:
                    pass
        with self._registry_lock:
            self._bytes_cache = (now, total)
        return total
