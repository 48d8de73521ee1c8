"""Tail-follow a growing ULM log file into the prediction service.

The paper's deployment has the GridFTP server appending one ULM line per
completed transfer while the information provider reads the log on
inquiry.  :class:`LogFollower` replaces re-reading with incremental
consumption: each :meth:`poll` reads only the bytes appended since the
last call, parses the complete new lines, and hands them to a sink
(``service.observe_batch``) in one call.

Robustness rules (this is a boundary with the outside world — a poll
must *never* kill the caller's loop):

* a partial final line (the server mid-write) is buffered, not parsed,
  and completed on a later poll — the buffer holds raw **bytes**, so a
  torn multi-byte UTF-8 sequence can never raise a decode error;
* a malformed line is counted and skipped — one corrupt entry must not
  wedge the service; a complete line that is not UTF-8 is one of them;
* truncation (log rotation) is detected by the file shrinking **or by
  the inode changing** — a rotation that replaces the file with one of
  the same size is still a restart from offset zero;
* a missing file is not an error — the follower waits for it to appear;
* a transient ``OSError`` mid-stat or mid-read is counted
  (:attr:`io_errors`), leaves the offset untouched, and is retried on
  the next poll.

Poll activity is mirrored into the process-wide :mod:`repro.obs`
registry (``tail_*`` counters) and the read path is a named
:mod:`repro.faults` site (``tail.read``) for the chaos suite.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from repro import faults as _faults
from repro.logs.ulm import parse_raw_lines
from repro.obs.metrics import get_registry

__all__ = ["LogFollower"]

# Process-wide tail instrumentation (see docs/resilience.md).
_REG = get_registry()
_M_RECORDS = _REG.counter(
    "tail_records_delivered", "records delivered by log followers")
_M_PARSE_ERRORS = _REG.counter(
    "tail_parse_errors", "malformed log lines skipped by followers")
_M_IO_ERRORS = _REG.counter(
    "tail_io_errors", "transient I/O errors tolerated by followers")
_M_ROTATIONS = _REG.counter(
    "tail_rotations", "log rotations detected by followers")


class LogFollower:
    """Incrementally deliver new ULM records from ``path`` to ``sink``.

    Each poll that finds new records calls ``sink`` once with a list of
    ``(link, record, source_offset)`` tuples — the shape
    :meth:`PredictionService.observe_batch` accepts directly, so a burst
    of appends costs one grouped fold and one WAL group commit.
    ``link`` defaults to the file stem, matching
    ``PredictionService.ingest_ulm``.  ``source_offset`` is the file
    offset just past the record's line: the resume point a durable store
    stamps on each row so a crashed process can restart the follower
    exactly where durability reached (see :meth:`seek_to`); a service
    without a store ignores it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        sink: Callable[[list], object],
        link: Optional[str] = None,
    ):
        self.path = Path(path)
        self.sink = sink
        self.link = link or self.path.stem
        self.offset = 0          # bytes consumed so far
        self._partial = b""      # trailing incomplete line (raw bytes)
        self._inode: Optional[int] = None  # identity of the file last read
        self.records = 0         # records delivered over the lifetime
        self.errors = 0          # malformed lines skipped
        self.io_errors = 0       # transient OSErrors tolerated
        self.truncations = 0     # rotations detected

    def seek_to_end(self) -> None:
        """Adopt the file's current size without delivering records.

        Use when the existing contents were already bulk-loaded (e.g.
        ``service.ingest_ulm``) and only *future* appends should flow
        through the follower — polling from offset zero would deliver
        every historical record a second time.
        """
        try:
            stat = self.path.stat()
        except OSError:
            self.offset = 0
            self._inode = None
        else:
            self.offset = stat.st_size
            self._inode = stat.st_ino
        self._partial = b""

    def seek_to(self, offset: int) -> None:
        """Resume from a known byte offset (a durable store's resume point).

        The next poll delivers only records *past* ``offset`` — the
        warm-restart path, where everything before it is already in the
        store and re-delivering would duplicate history.  An offset
        beyond the current file size is treated as a rotation on the
        next poll (restart from zero), same as a live shrink.
        """
        try:
            stat = self.path.stat()
        except OSError:
            self._inode = None
        else:
            self._inode = stat.st_ino
        self.offset = int(offset)
        self._partial = b""

    def _rotated(self) -> None:
        self.offset = 0
        self._partial = b""
        self.truncations += 1
        _M_ROTATIONS.inc()

    def poll(self) -> int:
        """Consume everything appended since the last poll.

        Returns the number of records delivered this call.  Never
        raises on I/O trouble: a vanished file returns 0, any other
        ``OSError`` is counted in :attr:`io_errors` and retried on the
        next poll with the offset unchanged.
        """
        try:
            _faults.check("tail.read", path=str(self.path))
            stat = self.path.stat()
        except FileNotFoundError:
            return 0
        except OSError:
            self.io_errors += 1
            _M_IO_ERRORS.inc()
            return 0
        if self._inode is not None and stat.st_ino != self._inode:
            # Rotated to a fresh file — even one of the exact same size.
            self._rotated()
        elif stat.st_size < self.offset:
            # The file shrank in place: truncated or rewritten.
            self._rotated()
        self._inode = stat.st_ino
        if stat.st_size == self.offset:
            return 0

        try:
            with self.path.open("rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
                new_offset = fh.tell()
        except OSError:
            self.io_errors += 1
            _M_IO_ERRORS.inc()
            return 0
        chunk = _faults.filter_bytes("tail.read", chunk, path=str(self.path))
        self.offset = new_offset

        data = self._partial + chunk
        lines = data.split(b"\n")
        # Without a trailing newline the last element is a line still
        # being written — hold it back (as bytes) for the next poll.
        self._partial = lines.pop()

        batch = []
        # Data ends at the new offset, so it begins len(data) bytes before.
        for record, end in parse_raw_lines(lines, new_offset - len(data)):
            if record is None:
                self.errors += 1
                _M_PARSE_ERRORS.inc()
                continue
            batch.append((self.link, record, end))
        if batch:
            self.sink(batch)
        delivered = len(batch)
        self.records += delivered
        if delivered:
            _M_RECORDS.inc(delivered)
        return delivered

    def __repr__(self) -> str:
        return (
            f"<LogFollower {self.path} link={self.link} offset={self.offset} "
            f"records={self.records} errors={self.errors} "
            f"io_errors={self.io_errors}>"
        )
