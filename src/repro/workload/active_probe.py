"""Active GridFTP probing (the Section 3 extension the paper deferred).

"In principle, our system could be extended to perform file transfer
probes at regular intervals for the sake of gathering data about the
performance, and not for transferring useful data, but we do not
consider that approach here."

:class:`ActiveProber` is that extension: a process that fetches a fixed
probe file from a server at a regular period (with jitter), so the
server's log — and therefore every predictor — sees *regularly spaced*,
*size-controlled* samples in addition to whatever organic traffic
occurs.  The trade-off ``tests/unit/test_workload_active_probe.py::
test_active_probing_cuts_same_class_error`` quantifies: fresher, regular
history against the bandwidth spent carrying probe bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.gridftp.transfer import TransferOutcome
from repro.sim.process import Delay, Process
from repro.units import MB, MINUTE
from repro.workload.scenarios import Testbed

__all__ = ["ActiveProbeConfig", "ActiveProber"]


@dataclass(frozen=True)
class ActiveProbeConfig:
    """Probe-transfer parameters.

    Unlike NWS probes (64 KB, untuned), a GridFTP probe is a *real*
    transfer at a representative size with production settings, so its
    measurements live on the same curve as the transfers being predicted.
    """

    size: int = 100 * MB
    period: float = 30 * MINUTE
    period_jitter: float = 2 * MINUTE
    streams: int = 8
    buffer: int = 1 * MB

    def __post_init__(self) -> None:
        if self.size <= 0 or self.streams <= 0 or self.buffer <= 0:
            raise ValueError("size, streams, and buffer must be positive")
        if self.period <= 0 or self.period_jitter < 0:
            raise ValueError("period must be > 0 and jitter >= 0")
        if self.period_jitter >= self.period:
            raise ValueError("period_jitter must be smaller than period")


class ActiveProber:
    """Periodically fetches a probe file from one server.

    Probe transfers go through the normal client/server path, so they are
    logged by the server's monitor exactly like organic transfers — which
    is the point: predictors need no changes to benefit.  The probe is
    :class:`ActiveProbeConfig`'s: a 100 MB file, one of every testbed's
    standard files, every 30 minutes.
    """

    def __init__(self, testbed: Testbed, server_site: str, client_site: str):
        if server_site == client_site:
            raise ValueError("prober needs two distinct sites")
        self.testbed = testbed
        self.server = testbed.servers[server_site]
        self.client = testbed.clients[client_site]
        self.config = ActiveProbeConfig()
        self._rng = testbed.streams.get(
            f"active-probe:{server_site}->{client_site}")
        self.outcomes: List[TransferOutcome] = []
        self._process: Optional[Process] = None
        self._path = testbed.data_path(self.config.size)

    def start(self) -> Process:
        if self._process is not None and self._process.alive:
            raise RuntimeError("prober already running")
        self._process = Process(
            self.testbed.engine,
            self._run(),
            name=f"active-probe:{self.server.site.name}",
        )
        return self._process

    def stop(self) -> None:
        if self._process is not None:
            self._process.interrupt()
            self._process = None

    def _run(self) -> Generator[Delay, None, None]:
        cfg = self.config
        while True:
            outcome = self.client.get(
                self.server, self._path, streams=cfg.streams, buffer=cfg.buffer
            )
            self.outcomes.append(outcome)
            jitter = float(self._rng.uniform(-cfg.period_jitter, cfg.period_jitter))
            yield Delay(max(outcome.duration, 1.0) + cfg.period + jitter)
