"""Disk model with contention.

A :class:`Disk` offers a sustained sequential rate that degrades with the
number of concurrently active streams: interleaved sequential workloads
force seeks, so per-stream efficiency drops faster than ``1/n``.  We use

``rate(n) = sustained / n ** contention_exponent`` (aggregate), i.e. per
stream ``sustained / n ** (1 + e - 1)``; with ``contention_exponent`` of
1.15 two concurrent full-file reads cost ~11% more than perfect sharing.

Unlike links, disks track their active-transfer count explicitly
(:meth:`acquire`/:meth:`release`) — this is the "no law of large numbers"
point from Section 3: a single additional flow matters.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DiskSpec", "Disk"]


@dataclass(frozen=True)
class DiskSpec:
    """Physical characteristics.

    Attributes
    ----------
    sustained_read:
        Sequential read rate in bytes/s (year-2001 SCSI arrays: ~30–80 MB/s).
    sustained_write:
        Sequential write rate in bytes/s.
    seek_time:
        Average positioning latency per transfer, seconds.
    contention_exponent:
        Aggregate-rate penalty exponent for concurrent streams (>= 1).
    """

    sustained_read: float = 60e6
    sustained_write: float = 45e6
    seek_time: float = 0.008
    contention_exponent: float = 1.15

    def __post_init__(self) -> None:
        if self.sustained_read <= 0 or self.sustained_write <= 0:
            raise ValueError("sustained rates must be positive")
        if self.seek_time < 0:
            raise ValueError("seek_time must be non-negative")
        if self.contention_exponent < 1.0:
            raise ValueError("contention_exponent must be >= 1")


class Disk:
    """A disk with an explicit active-transfer count."""

    def __init__(self, name: str, spec: DiskSpec | None = None):
        if not name:
            raise ValueError("disk name must be non-empty")
        self.name = name
        self.spec = spec or DiskSpec()
        self._active = 0

    @property
    def active(self) -> int:
        """Number of transfers currently holding this disk."""
        return self._active

    def acquire(self) -> None:
        """Register one more active transfer."""
        self._active += 1

    def release(self) -> None:
        """Unregister an active transfer."""
        if self._active <= 0:
            raise RuntimeError(f"disk {self.name}: release without acquire")
        self._active -= 1

    # ------------------------------------------------------------------
    # rates
    # ------------------------------------------------------------------
    def _per_stream(self, sustained: float, extra_active: int) -> float:
        n = max(1, self._active + extra_active)
        aggregate = sustained / (n ** (self.spec.contention_exponent - 1.0))
        return aggregate / n

    def read_rate(self, extra_active: int = 1) -> float:
        """Per-transfer read rate if ``extra_active`` more transfers start now."""
        return self._per_stream(self.spec.sustained_read, extra_active)

    def write_rate(self, extra_active: int = 1) -> float:
        """Per-transfer write rate if ``extra_active`` more transfers start now."""
        return self._per_stream(self.spec.sustained_write, extra_active)
