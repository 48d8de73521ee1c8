"""Supervisor + front tier wired together: one object, one fleet.

:class:`FleetRunner` is what ``repro fleet`` (and the chaos suite, and
the scaling bench) actually drives.  It lays out the state directory,
spawns the workers, waits for every shard to answer, starts the front
tier, and — on the way down — stops the front first (no new traffic)
and then rolls the workers through a graceful checkpoint-and-exit.

Layout under ``state_dir``::

    state_dir/
        w0.sock  w1.sock ...      worker sockets (short names: AF_UNIX
                                  paths are capped at ~104 chars)
        shard-0/ shard-1/ ...     per-worker durable store shards

A respawned worker reopens its own ``shard-k/`` and warm-revives from
its WAL/checkpoints; the consistent-hash ring guarantees the revived
process owns exactly the links the dead one did.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.front import FleetFront
from repro.fleet.hashing import ShardRing
from repro.fleet.supervisor import WorkerSpec, WorkerSupervisor

__all__ = ["FleetRunner"]


class FleetRunner:
    """Spawn N shard workers and serve them behind one TCP front."""

    def __init__(
        self,
        workers: int,
        state_dir: Optional[str] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        service_args: Sequence[str] = (),
        fallback: bool = False,
        call_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 1.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 1.0,
        stable_after: float = 5.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if state_dir is None:
            # Ephemeral fleet: durability scoped to the runner's life.
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            state_dir = self._tmp.name
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.ring = ShardRing(workers)
        # The workers' service options, as argv (repro.serving.service_argv)
        # without ``--fallback``: that one is said by keyword because the
        # front reads it too (it serves last-good answers for a down shard,
        # the workers aggregate ones for an unknown link).
        service_args = list(service_args)
        if fallback:
            service_args.append("--fallback")
        specs = []
        for shard in range(workers):
            shard_dir = self.state_dir / f"shard-{shard}"
            shard_dir.mkdir(exist_ok=True)
            specs.append(WorkerSpec(
                shard=shard,
                socket_path=self.state_dir / f"w{shard}.sock",
                state_dir=shard_dir,
                service_args=service_args,
            ))
        self.supervisor = WorkerSupervisor(specs, stable_after=stable_after)
        self.front = FleetFront(
            [s.socket_path for s in specs],
            host=host,
            port=port,
            ring=self.ring,
            fallback=fallback,
            call_timeout=call_timeout,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            breaker_threshold=breaker_threshold,
            breaker_reset=breaker_reset,
            info_hook=self.supervisor.info,
        )
        self._started = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The front tier's ``(host, port)`` once started."""
        return self.front.address

    def start(self) -> "FleetRunner":
        """Workers first (all ready), then the front tier."""
        self.supervisor.start()
        try:
            self.front.start()
        except BaseException:
            self.supervisor.stop()
            raise
        self._started = True
        return self

    def stop(self, graceful_timeout: float = 10.0) -> None:
        """Front first (stop the bleeding), then roll the workers down."""
        if not self._started:
            return
        self._started = False
        self.front.stop()
        self.supervisor.stop(graceful_timeout=graceful_timeout)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "FleetRunner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def shard_of(self, link: str) -> int:
        return self.ring.shard_of(link)

    def info(self) -> List[Dict[str, Any]]:
        """Per-shard process state (pid, alive, restarts, uptime)."""
        return [self.supervisor.info(shard)
                for shard in self.supervisor.shards()]
