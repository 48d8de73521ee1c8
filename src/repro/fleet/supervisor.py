"""Spawn, watch, and respawn the fleet's worker processes.

The supervisor owns N worker subprocesses (one per shard, each a
``python -m repro.fleet.worker``) and keeps them alive:

* **spawn** — workers boot concurrently; :meth:`WorkerSupervisor.start`
  returns once every shard answers ``ping`` on its socket;
* **monitor** — a daemon thread polls for exits.  A worker that dies
  while the fleet is up (crash, ``kill -9``) is respawned and
  warm-revives from its store shard's WAL/checkpoints; respawns of a
  crash-looping worker back off exponentially (reset once a worker
  stays up past ``stable_after`` seconds), so a poisoned shard cannot
  spin the machine;
* **chaos hooks** — :meth:`kill` (SIGKILL), :meth:`stall` (SIGSTOP) and
  :meth:`resume` (SIGCONT) give the deterministic chaos suite real
  process-level faults to schedule;
* **rolling shutdown** — :meth:`stop` takes workers down one at a time:
  SIGTERM, wait for the graceful checkpoint, escalate to SIGKILL only
  past the timeout.

Every exit/respawn increments the process-wide
``fleet_worker_restarts`` counter and emits ``fleet.worker_exit`` /
``fleet.worker_respawn`` events.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import faults as _faults
from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry

__all__ = ["WorkerSpec", "WorkerSupervisor"]

_M_RESTARTS = get_registry().counter(
    "fleet_worker_restarts", "fleet workers respawned after an unexpected exit")

#: Seconds between the monitor's liveness checks.
_POLL_INTERVAL = 0.2

#: Seconds :meth:`WorkerSupervisor.start` waits for every worker to
#: answer ``ping``.
_STARTUP_TIMEOUT = 60.0


def _next_backoff(backoff: float) -> float:
    """A crash-looping worker's next respawn delay: 0.1 s, doubling per
    quick death, at most 2 s."""
    return min(backoff * 2 or 0.1, 2.0)


def _src_root() -> Path:
    """The import root holding the ``repro`` package (for PYTHONPATH)."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


@dataclass
class WorkerSpec:
    """Everything needed to (re)spawn one shard's worker process.

    ``service_args`` is the worker's service options as argv
    (:func:`repro.serving.service_argv`); the supervisor passes them
    through without reading them.
    """

    shard: int
    socket_path: Path
    state_dir: Optional[Path] = None
    service_args: Sequence[str] = ()

    def command(self) -> List[str]:
        argv = [
            sys.executable, "-m", "repro.fleet.worker",
            "--socket", str(self.socket_path),
            "--shard", str(self.shard),
        ]
        if self.state_dir is not None:
            argv += ["--state-dir", str(self.state_dir)]
        return argv + list(self.service_args)


class _Handle:
    """One shard's live process state (supervisor internal)."""

    __slots__ = ("spec", "proc", "started_at", "restarts", "last_exit",
                 "stopped", "respawn_at", "backoff")

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.proc: Optional[subprocess.Popen] = None
        self.started_at = 0.0
        self.restarts = 0
        self.last_exit: Optional[int] = None
        self.stopped = False          # deliberate shutdown: do not respawn
        self.respawn_at: Optional[float] = None
        self.backoff = 0.0


class WorkerSupervisor:
    """Keep one worker process alive per shard (see module docstring)."""

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        *,
        stable_after: float = 5.0,
    ):
        if not specs:
            raise ValueError("a fleet needs at least one worker spec")
        self.stable_after = stable_after
        self._handles = [_Handle(spec) for spec in specs]
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._env = dict(os.environ)
        src = str(_src_root())
        existing = self._env.get("PYTHONPATH")
        if existing:
            if src not in existing.split(os.pathsep):
                self._env["PYTHONPATH"] = src + os.pathsep + existing
        else:
            self._env["PYTHONPATH"] = src

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerSupervisor":
        """Spawn every worker, wait until all answer ping, start watching."""
        for handle in self._handles:
            self._spawn(handle)
        deadline = time.monotonic() + _STARTUP_TIMEOUT
        for handle in self._handles:
            self._wait_ready(handle, deadline)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-supervisor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, handle: _Handle) -> None:
        _faults.check("fleet.spawn", shard=handle.spec.shard)
        # A leftover socket from a killed predecessor would make the
        # readiness ping connect to nothing; the new server unlinks it
        # itself, but removing it first keeps the race window closed.
        Path(handle.spec.socket_path).unlink(missing_ok=True)
        handle.proc = subprocess.Popen(handle.spec.command(), env=self._env)
        handle.started_at = time.monotonic()
        handle.respawn_at = None

    def _wait_ready(self, handle: _Handle, deadline: float,
                    sleep: Callable[[float], None] = time.sleep) -> None:
        from repro.client import ServiceClient
        from repro.resilience import RetryPolicy

        # Poll at 5 ms doubling to 50 ms: a worker is seen within a few
        # ms of binding its socket, and one that takes seconds to start
        # is pinged no more often than a fixed 50 ms would.
        pause = 0.005
        with ServiceClient(
            handle.spec.socket_path, timeout=2.0,
            retry=RetryPolicy(max_attempts=1),
        ) as client:
            while True:
                try:
                    if client.ping():
                        return
                except (OSError, ConnectionError):
                    pass
                proc = handle.proc
                if proc is not None and proc.poll() is not None:
                    raise RuntimeError(
                        f"fleet worker shard {handle.spec.shard} exited with "
                        f"code {proc.returncode} before becoming ready"
                    )
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"fleet worker shard {handle.spec.shard} not ready "
                        f"within {_STARTUP_TIMEOUT}s"
                    )
                sleep(pause)
                pause = min(pause * 2, 0.05)

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(_POLL_INTERVAL):
            now = time.monotonic()
            for handle in self._handles:
                with self._lock:
                    if handle.stopped:
                        continue
                    proc = handle.proc
                    if proc is not None and proc.poll() is not None:
                        # Unexpected death: schedule a respawn.  Rapid
                        # crash loops (died before stable_after) double
                        # the delay; a worker that ran stably resets it.
                        handle.last_exit = proc.returncode
                        uptime = now - handle.started_at
                        if uptime >= self.stable_after:
                            handle.backoff = 0.0
                        handle.backoff = _next_backoff(handle.backoff)
                        delay = (
                            0.0 if uptime >= self.stable_after
                            else handle.backoff
                        )
                        handle.proc = None
                        handle.respawn_at = now + delay
                        get_event_bus().emit(
                            "fleet.worker_exit",
                            shard=handle.spec.shard,
                            exit_code=handle.last_exit,
                            uptime=uptime,
                            respawn_in=delay,
                        )
                    if handle.respawn_at is not None and now >= handle.respawn_at:
                        try:
                            self._spawn(handle)
                        except OSError:
                            handle.backoff = _next_backoff(handle.backoff)
                            handle.respawn_at = now + handle.backoff
                            continue
                        handle.restarts += 1
                        _M_RESTARTS.inc()
                        get_event_bus().emit(
                            "fleet.worker_respawn",
                            shard=handle.spec.shard,
                            restarts=handle.restarts,
                        )

    def stop(self, graceful_timeout: float = 10.0) -> None:
        """Rolling shutdown: drain workers one at a time, then escalate.

        Each worker gets SIGTERM and up to ``graceful_timeout`` seconds
        to checkpoint and exit before SIGKILL.  Rolling (instead of
        signalling all at once) keeps shutdown I/O serialized — N
        simultaneous checkpoint storms on one disk help nobody.
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self._handles:
            with self._lock:
                handle.stopped = True
                handle.respawn_at = None
                proc = handle.proc
            if proc is None or proc.poll() is not None:
                continue
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=graceful_timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
            Path(handle.spec.socket_path).unlink(missing_ok=True)

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # chaos hooks (the deterministic fault suite drives these)
    # ------------------------------------------------------------------
    def _handle(self, shard: int) -> _Handle:
        for handle in self._handles:
            if handle.spec.shard == shard:
                return handle
        raise KeyError(f"no worker for shard {shard}")

    def kill(self, shard: int) -> None:
        """SIGKILL a worker outright (the monitor will respawn it)."""
        proc = self._handle(shard).proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGKILL)

    def stall(self, shard: int) -> None:
        """SIGSTOP a worker — alive but unresponsive (breaker fodder)."""
        proc = self._handle(shard).proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGSTOP)

    def resume(self, shard: int) -> None:
        """SIGCONT a stalled worker."""
        proc = self._handle(shard).proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGCONT)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def shards(self) -> List[int]:
        return [handle.spec.shard for handle in self._handles]

    def info(self, shard: int) -> Dict[str, object]:
        """One shard's process state (merged into fleet status answers)."""
        handle = self._handle(shard)
        with self._lock:
            proc = handle.proc
            alive = proc is not None and proc.poll() is None
            return {
                "pid": proc.pid if proc is not None else None,
                "alive": alive,
                "restarts": handle.restarts,
                "last_exit_code": handle.last_exit,
                "uptime": (
                    time.monotonic() - handle.started_at if alive else 0.0
                ),
            }

    def restarts(self) -> int:
        with self._lock:
            return sum(handle.restarts for handle in self._handles)
