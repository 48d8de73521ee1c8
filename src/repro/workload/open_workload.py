"""Open (Poisson) request workloads.

The controlled campaign is closed-loop: one transfer at a time, then a
sleep.  Replica selection (``examples/replica_selection.py``) is an
*open* workload — requests for logical files arriving at random times
regardless of whether earlier transfers finished — in which the broker
chooses among sources under drifting load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Tuple

from repro.sim.process import Delay, Process
from repro.units import HOUR
from repro.workload.scenarios import Testbed

__all__ = ["OpenWorkloadConfig", "OpenWorkload"]


@dataclass(frozen=True)
class OpenWorkloadConfig:
    """Poisson request stream parameters."""

    mean_interarrival: float = 0.5 * HOUR
    duration: float = 48 * HOUR
    logical_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0 or self.duration <= 0:
            raise ValueError("mean_interarrival and duration must be positive")
        if not self.logical_names:
            raise ValueError("logical_names must be non-empty")


class OpenWorkload:
    """Fires ``handler(logical_name, now)`` at Poisson arrival times.

    The handler performs whatever action the experiment studies (e.g.
    "ask the broker, then do the transfer"); the workload only owns the
    arrival process, so the same stream can drive the predictive broker
    and the random choice the replica-selection example compares it with.
    """

    def __init__(
        self,
        testbed: Testbed,
        config: OpenWorkloadConfig,
        handler: Callable[[str, float], None],
    ):
        self.testbed = testbed
        self.config = config
        self.handler = handler
        self._rng = testbed.streams.get("open-workload")
        self.requests: List[Tuple[float, str]] = []
        self._process: Optional[Process] = None

    def start(self) -> Process:
        if self._process is not None and self._process.alive:
            raise RuntimeError("workload already running")
        self._process = Process(
            self.testbed.engine, self._run(), name="open-workload"
        )
        return self._process

    def stop(self) -> None:
        if self._process is not None:
            self._process.interrupt()
            self._process = None

    def _run(self) -> Generator[Delay, None, None]:
        cfg = self.config
        engine = self.testbed.engine
        end = engine.now + cfg.duration
        while True:
            gap = float(self._rng.exponential(cfg.mean_interarrival))
            yield Delay(gap)
            if engine.now >= end:
                return
            name = str(self._rng.choice(cfg.logical_names))
            self.requests.append((engine.now, name))
            self.handler(name, engine.now)
