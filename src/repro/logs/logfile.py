"""Append-only transfer logs with trimming strategies.

Section 3 of the paper notes that transfer logs "can grow quickly in size
at a busy site" and sketches two mitigation strategies, both implemented
here as :class:`TrimPolicy` objects:

* **Running window** (NWS style) — :class:`RunningWindow` drops entries
  older than a horizon; :class:`MaxCount` keeps the newest N.
* **Flush and restart** (NetLogger style) — :class:`FlushRestart` hands
  the full log to an archival sink and restarts empty once the log
  *reaches* a threshold.

A :class:`TransferLog` may also be persisted to/loaded from a ULM file, one
record per line, which is how workload campaigns hand data to the analysis
and benchmark layers.  Bulk ingestion (:meth:`TransferLog.extend`,
:meth:`TransferLog.load`) folds a whole batch in one sorted merge — one
trim-policy application instead of N — and :meth:`TransferLog.to_frame` /
:meth:`TransferLog.from_frame` bridge to the columnar
:class:`~repro.data.frame.TransferFrame` substrate the analysis, MDS, and
service layers evaluate on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence

from repro.logs.record import TransferRecord
from repro.logs.ulm import format_record

__all__ = [
    "TrimPolicy",
    "KeepAll",
    "RunningWindow",
    "MaxCount",
    "FlushRestart",
    "TransferLog",
]


class TrimPolicy:
    """Decides which records survive after each append.

    ``batch_safe`` declares that one application at the end of a sorted
    batch leaves the same final state as applying after every record of
    that batch — true for memoryless policies (:class:`KeepAll`,
    :class:`RunningWindow`, :class:`MaxCount`), false for
    :class:`FlushRestart`, whose archival batch boundaries depend on
    per-record application.  The bulk ingest path consults it.
    """

    batch_safe = True

    def apply(self, records: List[TransferRecord], now: float) -> List[TransferRecord]:
        """Return the retained records (may be the same list)."""
        raise NotImplementedError


class KeepAll(TrimPolicy):
    """No trimming (the default; the paper's experiments keep full logs)."""

    def apply(self, records: List[TransferRecord], now: float) -> List[TransferRecord]:
        return records


class RunningWindow(TrimPolicy):
    """Drop records whose end time is older than ``max_age`` seconds."""

    def __init__(self, max_age: float):
        if max_age <= 0:
            raise ValueError(f"max_age must be positive, got {max_age}")
        self.max_age = max_age

    def apply(self, records: List[TransferRecord], now: float) -> List[TransferRecord]:
        horizon = now - self.max_age
        return [r for r in records if r.end_time >= horizon]


class MaxCount(TrimPolicy):
    """Keep only the newest ``count`` records."""

    def __init__(self, count: int):
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self.count = count

    def apply(self, records: List[TransferRecord], now: float) -> List[TransferRecord]:
        if len(records) <= self.count:
            return records
        return records[-self.count:]


class FlushRestart(TrimPolicy):
    """Archive everything and restart once the log *reaches* ``threshold``.

    The flush fires when the record count is greater than or equal to
    ``threshold`` — a log trimmed by ``FlushRestart(3)`` never holds three
    records after an append.  ``sink`` receives the flushed batch; by
    default batches are kept on the policy's ``archived`` list so nothing
    is silently lost.

    Not ``batch_safe``: which records land in which archival batch depends
    on applying the policy after every single append, so bulk ingestion
    falls back to the per-record path for this policy.
    """

    batch_safe = False

    def __init__(
        self,
        threshold: int,
        sink: Optional[Callable[[Sequence[TransferRecord]], None]] = None,
    ):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self.archived: List[List[TransferRecord]] = []
        self._sink = sink if sink is not None else self.archived.append  # type: ignore[arg-type]

    def apply(self, records: List[TransferRecord], now: float) -> List[TransferRecord]:
        if len(records) < self.threshold:
            return records
        self._sink(list(records))
        return []


class TransferLog:
    """The server-side transfer log: ordered records plus a trim policy."""

    def __init__(
        self,
        host: str = "localhost",
        trim: Optional[TrimPolicy] = None,
    ):
        self.host = host
        self.trim = trim or KeepAll()
        self._records: List[TransferRecord] = []
        self._listeners: List[Callable[[TransferRecord], None]] = []

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[TransferRecord], None]) -> None:
        """Call ``listener(record)`` after every append.

        Listeners power incremental consumers (the O(1)-per-transfer
        information provider) without coupling them to the writers.  A
        listener sees every appended record, including ones a trim policy
        immediately drops.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TransferRecord], None]) -> None:
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, record: TransferRecord) -> None:
        """Append one completed transfer and apply the trim policy.

        Records arrive in completion order; out-of-order end times are
        tolerated (two transfers can overlap) but the list is kept sorted
        by end time so history queries are well-defined.
        """
        records = self._records
        if records and record.end_time < records[-1].end_time:
            # Rare overlap case: insert maintaining end-time order.
            lo, hi = 0, len(records)
            while lo < hi:
                mid = (lo + hi) // 2
                if records[mid].end_time <= record.end_time:
                    lo = mid + 1
                else:
                    hi = mid
            records.insert(lo, record)
        else:
            records.append(record)
        self._records = self.trim.apply(records, now=record.end_time)
        for listener in self._listeners:
            listener(record)

    def extend(self, records: Sequence[TransferRecord]) -> None:
        """Bulk-append a batch: one sorted merge, one trim application.

        Equivalent to appending the batch sorted by end time one record at
        a time, but folds the whole batch with a single stable merge and a
        single trim-policy application — the policies for which a final
        application gives the same retained set declare ``batch_safe``;
        :class:`FlushRestart` does not and keeps the per-record path.
        Listeners fire once per record, in merged order, exactly as they
        would under sequential appends.
        """
        batch = list(records)
        if not batch:
            return
        if not self.trim.batch_safe:
            for record in batch:
                self.append(record)
            return
        batch.sort(key=lambda r: r.end_time)
        existing = self._records
        if existing and batch[0].end_time < existing[-1].end_time:
            # Stable merge keeping existing records ahead of the batch on
            # end-time ties, matching sequential binary inserts.
            merged: List[TransferRecord] = []
            i = j = 0
            while i < len(existing) and j < len(batch):
                if existing[i].end_time <= batch[j].end_time:
                    merged.append(existing[i])
                    i += 1
                else:
                    merged.append(batch[j])
                    j += 1
            merged.extend(existing[i:])
            merged.extend(batch[j:])
        else:
            merged = existing + batch
        # Sequential appends would apply the trim with each record's end
        # time in turn; for batch-safe policies the final application (the
        # batch's latest end time) subsumes the earlier ones.
        self._records = self.trim.apply(merged, now=batch[-1].end_time)
        for record in batch:
            for listener in self._listeners:
                listener(record)

    def clear(self) -> None:
        self._records = []

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def records(self) -> List[TransferRecord]:
        """A copy of the retained records, ordered by end time."""
        return list(self._records)

    def __iter__(self) -> Iterator[TransferRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def latest(self) -> Optional[TransferRecord]:
        return self._records[-1] if self._records else None

    # ------------------------------------------------------------------
    # columnar bridge
    # ------------------------------------------------------------------
    def to_frame(self):
        """The retained records as a columnar
        :class:`~repro.data.frame.TransferFrame` (already end-time sorted).
        """
        # Imported lazily: repro.logs sits below repro.data in the layer
        # DAG; the bridge must not make the whole logs package depend on it.
        from repro.data.frame import TransferFrame

        return TransferFrame.from_records(self._records)

    @classmethod
    def from_frame(
        cls,
        frame,
        host: str = "localhost",
        trim: Optional[TrimPolicy] = None,
    ) -> "TransferLog":
        """Build a log from a :class:`~repro.data.frame.TransferFrame`."""
        log = cls(host=host, trim=trim)
        log.extend(frame.to_records())
        return log

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Write the log as ULM lines; returns the number of records written."""
        lines = [format_record(r, host=self.host) for r in self._records]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)

    @classmethod
    def load(
        cls, path: str | Path, host: str = "localhost", cache: bool = False
    ) -> "TransferLog":
        """Read a ULM log file written by :meth:`save`.

        Parses the whole file with the vectorized one-pass ingest and
        bulk-extends the new log — one sorted merge instead of N binary
        inserts.  ``cache=True`` additionally reads/writes the binary
        sidecar next to the file (off by default: loading should not
        surprise callers by creating files).
        """
        from repro.data.ingest import load_ulm

        log = cls(host=host)
        frame = load_ulm(path, cache=cache)
        log.extend(frame.to_records())
        return log
