"""The transfer log record (Figure 3 of the paper).

One :class:`TransferRecord` is written per completed GridFTP transfer.  The
fields mirror the paper's log columns exactly:

=============  =====================================================
Paper column   Field
=============  =====================================================
Source IP      ``source_ip`` — the remote client of the transfer
File Name      ``file_name`` — absolute path on the server
File Size      ``file_size`` — bytes
Volume         ``volume`` — logical volume root
StartTime      ``start_time`` — Unix epoch seconds
EndTime        ``end_time`` — Unix epoch seconds
TotalTime      ``total_time`` — seconds (property; end - start)
Bandwidth      ``bandwidth`` — bytes/s sustained through the transfer
Read/Write     ``operation`` — from the *server's* point of view
Streams        ``streams`` — parallel TCP data channels
TCP-Buffer     ``tcp_buffer`` — per-stream socket buffer, bytes
=============  =====================================================

The paper computes ``BW = File size / Transfer Time``; ``bandwidth`` is
stored explicitly (the instrumentation computes it at log time) and
validated to be consistent with the timestamps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any, Dict

from repro.units import bytes_per_sec_to_kbps

__all__ = ["BANDWIDTH_LIMIT", "INT64_MAX", "INVARIANTS", "Operation", "TransferRecord"]

#: The ceiling of the int64 columns ``file_size``, ``streams`` and
#: ``tcp_buffer`` land in.
INT64_MAX = 2**63 - 1

#: Bandwidths must lie below this, so at most 2**63 - 1 B/s: the ceiling
#: ``file_size`` has in its int64 column, and far enough from the float64
#: maximum that no sum or midpoint a predictor forms over a link's rows
#: overflows to ``inf``.
BANDWIDTH_LIMIT = 2.0 ** 63


#: The record's invariants, in the order a bad row names them: a reason,
#: formatted with the row's fields, and a predicate over the fields.
#: Comparisons and ``&`` only, so one record's values and a frame's
#: columns (under the record's field names) are judged by the same code.
INVARIANTS = (
    ("source_ip must be non-empty", lambda f: f["source_ip"] != ""),
    ("file_name must be non-empty", lambda f: f["file_name"] != ""),
    *((f"{name} must be in 1..2**63-1, got {{{name}}}",
       lambda f, name=name: (f[name] > 0) & (f[name] <= INT64_MAX))
      for name in ("file_size", "streams", "tcp_buffer")),
    *((f"{name} must be finite, got {{{name}}}",
       lambda f, name=name: (f[name] > -math.inf) & (f[name] < math.inf))
      for name in ("start_time", "end_time")),
    ("end_time ({end_time}) must follow start_time ({start_time})",
     lambda f: f["end_time"] > f["start_time"]),
    ("bandwidth must be in (0, 2**63-1] B/s, got {bandwidth}",
     lambda f: (f["bandwidth"] > 0) & (f["bandwidth"] < BANDWIDTH_LIMIT)),
)


class Operation(str, enum.Enum):
    """Direction of the transfer, from the server's point of view.

    ``READ``: the server read a file from its disk and sent it (a client
    *get*); ``WRITE``: the server stored an incoming file (a client *put*).
    """

    READ = "read"
    WRITE = "write"

    @classmethod
    def parse(cls, text: str) -> "Operation":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown operation {text!r}; expected read/write") from None


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer, as logged by the instrumented server."""

    source_ip: str
    file_name: str
    file_size: int
    volume: str
    start_time: float
    end_time: float
    bandwidth: float
    operation: Operation
    streams: int
    tcp_buffer: int

    def __post_init__(self) -> None:
        for reason, holds in INVARIANTS:
            if not holds(self.__dict__):
                raise ValueError(reason.format(**self.__dict__))
        if not isinstance(self.operation, Operation):
            object.__setattr__(self, "operation", Operation.parse(str(self.operation)))

    # ------------------------------------------------------------------
    # derived fields
    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Transfer duration in seconds (the log's TotalTime column)."""
        return self.end_time - self.start_time

    @property
    def bandwidth_kbps(self) -> float:
        """Bandwidth in KB/s, the unit printed in the paper's log."""
        return bytes_per_sec_to_kbps(self.bandwidth)

    @classmethod
    def from_timing(
        cls,
        *,
        source_ip: str,
        file_name: str,
        file_size: int,
        volume: str,
        start_time: float,
        end_time: float,
        operation: Operation,
        streams: int,
        tcp_buffer: int,
    ) -> "TransferRecord":
        """Build a record computing bandwidth = size / (end - start)."""
        duration = end_time - start_time
        if duration <= 0:
            raise ValueError("transfer duration must be positive")
        return cls(
            source_ip=source_ip,
            file_name=file_name,
            file_size=file_size,
            volume=volume,
            start_time=start_time,
            end_time=end_time,
            bandwidth=file_size / duration,
            operation=operation,
            streams=streams,
            tcp_buffer=tcp_buffer,
        )

    def with_bandwidth(self, bandwidth: float) -> "TransferRecord":
        """Copy with a replaced bandwidth (used for perturbation tests)."""
        return replace(self, bandwidth=bandwidth)

    def as_row(self) -> Dict[str, Any]:
        """Flat dict mirroring the paper's Figure 3 columns, for rendering."""
        return {
            "Source IP": self.source_ip,
            "File Name": self.file_name,
            "File Size (Bytes)": self.file_size,
            "Volume": self.volume,
            "StartTime": int(self.start_time),
            "EndTime": int(self.end_time),
            "TotalTime (Seconds)": round(self.total_time, 3),
            "Bandwidth (KB/Sec)": int(round(self.bandwidth_kbps)),
            "Read/Write": self.operation.value.capitalize(),
            "Streams": self.streams,
            "TCP-Buffer": self.tcp_buffer,
        }
