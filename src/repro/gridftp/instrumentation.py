"""The GridFTP server monitor (the paper's instrumentation).

The paper's contribution to GridFTP itself is purely observational: "we
added no new capabilities ... we merely record the data and time the
transfer operation."  :class:`Monitor` is that layer — it converts a
:class:`~repro.gridftp.transfer.TransferOutcome` into a
:class:`~repro.logs.record.TransferRecord` and appends it to the server's
:class:`~repro.logs.logfile.TransferLog`.

The Section 3 overhead claim (≈25 ms per transfer, entries < 512 bytes)
is measured over :meth:`Monitor.record` plus the ULM formatting, by
``benchmarks/bench_claim_logging_overhead.py``.
"""

from __future__ import annotations

from repro.gridftp.transfer import TransferOutcome
from repro.logs.logfile import TransferLog
from repro.logs.record import Operation, TransferRecord

__all__ = ["Monitor"]


class Monitor:
    """Per-server transfer monitor writing ULM records to a log."""

    def __init__(self, host: str = "localhost"):
        self.log = TransferLog(host=host)

    def record(
        self,
        outcome: TransferOutcome,
        *,
        source_ip: str,
        file_name: str,
        volume: str,
        operation: Operation,
    ) -> TransferRecord:
        """Build and append the log record for a completed transfer.

        Bandwidth is the *sustained end-to-end* value, size over total wall
        time including all overheads — exactly the paper's
        ``BW = File size / Transfer Time``.
        """
        record = TransferRecord(
            source_ip=source_ip,
            file_name=file_name,
            file_size=outcome.request.size,
            volume=volume,
            start_time=outcome.start_time,
            end_time=outcome.end_time,
            bandwidth=outcome.bandwidth,
            operation=operation,
            streams=outcome.request.streams,
            tcp_buffer=outcome.request.buffer,
        )
        self.log.append(record)
        return record
