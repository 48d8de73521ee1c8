"""The end-to-end transfer engine.

Section 3 of the paper insists on measuring "the entire transfer function,
not just the transport": the path from source disk through the network to
the destination disk.  The engine composes those stages by treating each
disk as one more bottleneck in series with the network —

``cap = min(network availability, source disk rate, destination disk rate)``

— then timing the transfer with the TCP model at that cap and adding
fixed costs (server processing, disk seeks, instrumentation overhead).

Two refinements matter for realism:

* **Within-transfer load drift.**  Gigabyte transfers last minutes, during
  which background load moves.  We time the transfer twice: once with the
  availability at the start instant to estimate the duration, then again
  with the *mean* availability over that estimated interval.
* **Unmodeled noise.**  Real end-to-end measurements carry variance beyond
  identified sources (host scheduling, competing disk traffic the model
  does not see).  A per-transfer multiplicative log-normal jitter supplies
  this floor of measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.tcp import TcpModel, TransferTiming
from repro.net.topology import Path
from repro.storage.disk import Disk

__all__ = ["TransferRequest", "TransferOutcome", "TransferEngine"]


@dataclass(frozen=True)
class TransferRequest:
    """Parameters of one requested transfer."""

    size: int
    streams: int = 1
    buffer: int = 64_000
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.streams <= 0 or self.buffer <= 0:
            raise ValueError("streams and buffer must be positive")


@dataclass(frozen=True)
class TransferOutcome:
    """The computed result of one end-to-end transfer."""

    request: TransferRequest
    start_time: float
    end_time: float
    network_timing: TransferTiming
    cap: float                 # the series bottleneck used, bytes/s
    overhead: float            # fixed costs outside the TCP phases, seconds

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def bandwidth(self) -> float:
        """End-to-end bandwidth: size / total duration (bytes/s)."""
        return self.request.size / self.duration


#: Sigma of the mean-one log-normal noise on each transfer's efficiency.
JITTER_SIGMA = 0.05

#: Fixed server processing cost per transfer, seconds (session handling,
#: data-channel setup beyond the modeled handshake RTTs).
SERVER_OVERHEAD = 0.25

#: Instrumentation cost per transfer, seconds; the paper measures ~25 ms
#: and argues it is insignificant.  It is included so that claim can be
#: checked rather than assumed.
LOGGING_OVERHEAD = 0.025


class TransferEngine:
    """Times transfers over a path between two disks.

    Parameters
    ----------
    tcp:
        The TCP throughput model.
    rng:
        Stream for the per-transfer efficiency jitter (``None``: no
        jitter).
    """

    def __init__(
        self,
        tcp: Optional[TcpModel] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.tcp = tcp or TcpModel()
        self._rng = rng

    def _jitter(self) -> float:
        if self._rng is None:
            return 1.0
        # Mean-one log-normal: exp(N(-sigma^2/2, sigma)).
        sigma = JITTER_SIGMA
        return float(np.exp(self._rng.normal(-0.5 * sigma * sigma, sigma)))

    def execute(
        self,
        path: Path,
        request: TransferRequest,
        src_disk: Disk,
        dst_disk: Disk,
    ) -> TransferOutcome:
        """Compute the outcome of one transfer starting at ``request.start_time``.

        The caller is responsible for holding ``acquire``/``release`` on the
        disks for the transfer's duration (the server does this), so the
        rates seen here already include current contention.
        """
        t0 = request.start_time
        jitter = self._jitter()
        disk_cap = min(src_disk.read_rate(), dst_disk.write_rate())
        # Jitter perturbs the measurement but cannot conjure bandwidth the
        # wire does not have.
        wire = path.bottleneck_capacity
        rtt = path.effective_rtt(t0)

        # Pass 1: estimate duration from the instantaneous availability.
        cap0 = min(path.available(t0) * jitter, wire, disk_cap)
        first = self.tcp.timing(
            request.size, rtt, cap0, request.buffer, request.streams
        )

        # Pass 2: re-time with mean availability over the estimated window.
        cap1 = min(path.mean_available(t0, first.duration) * jitter, wire, disk_cap)
        timing = self.tcp.timing(
            request.size, rtt, cap1, request.buffer, request.streams
        )

        overhead = (
            SERVER_OVERHEAD
            + LOGGING_OVERHEAD
            + src_disk.spec.seek_time
            + dst_disk.spec.seek_time
        )
        end = t0 + timing.duration + overhead
        return TransferOutcome(
            request=request,
            start_time=t0,
            end_time=end,
            network_timing=timing,
            cap=cap1,
            overhead=overhead,
        )
