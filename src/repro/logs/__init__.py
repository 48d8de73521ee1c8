"""GridFTP transfer logs.

The instrumented GridFTP server appends one record per transfer to a log in
Universal Logging Format (ULM) ``Keyword=Value`` lines (Section 3, Figure 3
of the paper).  This package provides:

* :mod:`repro.logs.record` — :class:`TransferRecord`, the typed form of one
  log entry (source IP, file name/size, volume, timestamps, total time,
  bandwidth, read/write, streams, TCP buffer).
* :mod:`repro.logs.ulm` — ULM serialization and parsing with exact
  round-tripping.
* :mod:`repro.logs.logfile` — :class:`TransferLog`, an append-only log with
  the trimming strategies the paper discusses (NWS-style running window,
  NetLogger-style flush-and-restart) and file persistence.
* :mod:`repro.logs.stats` — summary statistics over a bandwidth column,
  feeding the MDS information provider (Figure 6's ``minrdbandwidth``
  etc.).

Selecting history (by size class, time window, last n) is
:class:`repro.core.history.History`'s job; direction and class filtering
for the provider run on :class:`repro.data.frame.TransferFrame` columns.
"""

from repro.logs.record import Operation, TransferRecord
from repro.logs.ulm import ULMError, format_record, parse_record, parse_lines
from repro.logs.logfile import (
    TransferLog,
    TrimPolicy,
    KeepAll,
    RunningWindow,
    MaxCount,
    FlushRestart,
)
from repro.logs.stats import (
    BandwidthSummary,
    summarize_frame_by_class,
    summarize_values,
)

__all__ = [
    "Operation",
    "TransferRecord",
    "ULMError",
    "format_record",
    "parse_record",
    "parse_lines",
    "TransferLog",
    "TrimPolicy",
    "KeepAll",
    "RunningWindow",
    "MaxCount",
    "FlushRestart",
    "BandwidthSummary",
    "summarize_frame_by_class",
    "summarize_values",
]
