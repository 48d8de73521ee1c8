"""The NWS network sensor: small periodic bandwidth probes.

The NWS keeps overhead low by probing with small messages — 64 KB with
default TCP buffers, by default every 5 minutes in the deployments the
paper measured against.  Such probes finish inside TCP slow start on a
wide-area path, so they systematically *underestimate* the bandwidth a
tuned, parallel GridFTP transfer achieves; that gap is Figures 1–2.

:class:`NwsSensor` runs as a simulation process: probe, record
``(now, measured bandwidth)``, sleep ``period`` (with a little jitter so
probes don't phase-lock with other periodic activity), repeat.  Probes are
memory-to-memory — no disks — exactly because NWS measures transport, not
the end-to-end transfer function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.net.tcp import TcpModel
from repro.net.topology import Path
from repro.nws.series import TimeSeries
from repro.sim.engine import Engine
from repro.sim.process import Delay, Process

__all__ = ["ProbeConfig", "NwsSensor"]


@dataclass(frozen=True)
class ProbeConfig:
    """Probe parameters (paper defaults: 64 KB, standard buffers, 5 min)."""

    size: int = 64_000
    buffer: int = 64_000
    streams: int = 1
    period: float = 300.0
    period_jitter: float = 15.0
    jitter_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.size <= 0 or self.buffer <= 0 or self.streams <= 0:
            raise ValueError("size, buffer, and streams must be positive")
        if self.period <= 0 or self.period_jitter < 0 or self.jitter_sigma < 0:
            raise ValueError("period must be > 0; jitters must be >= 0")
        if self.period_jitter >= self.period:
            raise ValueError("period_jitter must be smaller than period")


class NwsSensor:
    """Probes one path periodically and accumulates a bandwidth series."""

    def __init__(
        self,
        engine: Engine,
        path: Path,
        rng: np.random.Generator,
        config: Optional[ProbeConfig] = None,
    ):
        self.engine = engine
        self.path = path
        self.config = config or ProbeConfig()
        self.tcp = TcpModel()
        self._rng = rng
        self.series = TimeSeries()
        self._process: Optional[Process] = None

    # ------------------------------------------------------------------
    # one-shot probe
    # ------------------------------------------------------------------
    def probe(self) -> float:
        """Run one probe now; returns and records the measured bandwidth."""
        cfg = self.config
        t = self.engine.now
        noise = 1.0
        if cfg.jitter_sigma > 0:
            s = cfg.jitter_sigma
            noise = float(np.exp(self._rng.normal(-0.5 * s * s, s)))
        available = self.path.available(t) * noise
        # Small probes are dominated by slow start, hence by RTT: queueing
        # delay under load is what makes the probe series move at all.
        rtt = self.path.effective_rtt(t)
        timing = self.tcp.timing(cfg.size, rtt, available, cfg.buffer, cfg.streams)
        self.series.append(t, timing.bandwidth)
        return timing.bandwidth

    # ------------------------------------------------------------------
    # periodic operation
    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Begin periodic probing on the engine; returns the process handle."""
        if self._process is not None and self._process.alive:
            raise RuntimeError("sensor already running")
        self._process = Process(self.engine, self._run(), name=f"nws:{self._label()}")
        return self._process

    def stop(self) -> None:
        if self._process is not None:
            self._process.interrupt()
            self._process = None

    def _run(self) -> Generator[Delay, None, None]:
        cfg = self.config
        while True:
            self.probe()
            jitter = float(self._rng.uniform(-cfg.period_jitter, cfg.period_jitter))
            yield Delay(cfg.period + jitter)

    def _label(self) -> str:
        return f"{self.path.src.name}->{self.path.dst.name}"
