"""Process hygiene, /proc accounting and the closed-loop driver.

Everything the ledger starts lives in a :class:`Session`: one temp root
(removed at exit) and a registry of server process groups (killed on
every exit path).  The session changes directory into its temp root so
every Unix-socket path the servers and the client see is short and
relative, wherever the checkout happens to live.
"""

from __future__ import annotations

import contextlib
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median  # noqa: F401  (the ledger's one median)
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
DATA = REPO / "data"
OUT_DIR = REPO / ".ledger"

#: Readiness is the harness's own ping poll, not the client's 5-attempt
#: connect retry (which gave up during slow start-ups while sizing).
READY_DEADLINE_S = 30.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # comm may hold spaces and parentheses; the fields follow the last ')'.
    return raw.rsplit(")", 1)[1].split()


def group_pids(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid``."""
    pids = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None and int(fields[2]) == pgid:
                pids.append(int(name))
    return pids


def cpu_seconds(pids: Sequence[int]) -> float:
    """On-CPU time (user + system) summed over every thread of ``pids``.

    Read from ``schedstat``, which counts nanoseconds; ``stat`` counts
    10 ms ticks, too coarse for a slice of a round.
    """
    total_ns = 0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue  # exited
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                    total_ns += int(handle.read().split()[0])
            except OSError:
                pass
    return total_ns / 1e9


def hwm_mb(pids: Sequence[int]) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def machine_probe_ms() -> float:
    """A fixed pure-Python spin, run before each round.

    Informational only: a round whose probe is more than 10 % off the
    session's best is flagged in the output, not rerun, and no reported
    value is scaled by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (time.perf_counter() - t0) * 1e3


@contextlib.contextmanager
def one_cpu():
    """Run the caller, and every process it starts meanwhile, on one CPU.

    For the workloads with one client and one single-process server.
    Left to the scheduler, the pair is co-located for minutes (11k
    predict/s) and then split across the two vCPUs for minutes (5k
    predict/s, every request paying two cross-CPU wake-ups); a spell
    outlasts a whole invocation, so no median over rounds absorbs it.
    The pair takes turns, so one CPU costs it nothing.  ``fleet_mixed``
    is not run under this: its workers do run in parallel.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def fingerprint() -> Dict[str, Any]:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cores": os.cpu_count(),
        # The CPUs the session may use; each workload's result carries
        # the ``cpus`` its rounds ran on (see ``one_cpu``).
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(sorted_values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank percentile, or None with < 10 samples beyond it.

    The rule makes p99 need 1,000 samples and p50 need 20; a metric that
    cannot meet it is omitted, never reported from fewer samples.
    """
    n = len(sorted_values)
    if n * (1.0 - p) < 10.0:
        return None
    return sorted_values[min(n - 1, int(n * p))]


# ----------------------------------------------------------------------
# session and servers
# ----------------------------------------------------------------------
class Session:
    """One temp root plus every process group started under it."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.root = OUT_DIR / f"tmp-{os.getpid()}"
        self._servers: List["Server"] = []
        self._cwd = os.getcwd()

    def __enter__(self) -> "Session":
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        os.chdir(self.root)
        # SIGTERM must unwind through the finally blocks like Ctrl-C does.
        signal.signal(signal.SIGTERM, _raise_interrupt)
        return self

    def __exit__(self, *exc_info) -> None:
        for server in list(self._servers):
            server.kill()
        os.chdir(self._cwd)
        shutil.rmtree(self.root, ignore_errors=True)

    def spawn(self, argv: Sequence[str], address: Optional[str], log: str,
              pipes: bool = False) -> "Server":
        """Start ``python <argv>`` in its own process group, tracked."""
        server = Server(self, [sys.executable, *argv], address, log, pipes)
        self._servers.append(server)
        return server

    def forget(self, server: "Server") -> None:
        if server in self._servers:
            self._servers.remove(server)


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


class Server:
    """One server process in its own process group."""

    def __init__(self, session: Session, command: Sequence[str],
                 address: Optional[str], log: str, pipes: bool) -> None:
        self.session = session
        self.address = address
        self.log = log
        with open(log, "ab") as stderr:
            self.proc = subprocess.Popen(
                list(command), env=child_env(), stderr=stderr,
                stdin=subprocess.PIPE if pipes else subprocess.DEVNULL,
                stdout=subprocess.PIPE if pipes else subprocess.DEVNULL,
                start_new_session=True,
            )
        self.pgid = self.proc.pid

    def wait_ready(self):
        """Poll ``ping`` until it answers; returns a connected client."""
        from repro.wire import FrameError

        deadline = time.monotonic() + READY_DEADLINE_S
        while True:
            client = connect(self.address)
            try:
                if client.request({"op": "ping", "v": 1}).get("ok"):
                    return client
            except (OSError, ConnectionError, FrameError):
                pass
            client.close()
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} before "
                    f"readiness; log tail: {self.log_tail()}")
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"server at {self.address} not ready within "
                    f"{READY_DEADLINE_S:.0f}s; log tail: {self.log_tail()}")
            time.sleep(0.005)

    def log_tail(self, lines: int = 5) -> str:
        try:
            text = Path(self.log).read_text(errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])

    def pids(self) -> List[int]:
        return group_pids(self.pgid)

    def kill(self) -> None:
        """SIGKILL the whole group and reap the leader."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        self.session.forget(self)

    def terminate(self, timeout: float = 30.0) -> float:
        """SIGTERM the leader, wait for a clean exit; returns the seconds."""
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"server ignored SIGTERM for {timeout}s")
        elapsed = time.perf_counter() - t0
        self.kill()  # stragglers in the group, if any
        if code != 0:
            raise RuntimeError(
                f"server exited with code {code} on SIGTERM; "
                f"log tail: {self.log_tail()}")
        return elapsed


def connect(address: str):
    """A binary client that fails fast instead of retrying the connect."""
    from repro.client import ServiceClient
    from repro.resilience import RetryPolicy

    return ServiceClient(address, binary=True, timeout=30.0,
                         retry=RetryPolicy(max_attempts=1))


def status(address: str) -> Dict[str, Any]:
    """The public ``status`` op, on a connection of its own.

    A server connection reuses one response buffer that cannot grow once
    an earlier (smaller) response has been sent on it, so an answer
    larger than anything the connection has carried kills the serving
    thread (BufferError in ``FrameWriter._ensure``).  ``status`` is the
    one large answer the ledger asks for; a fresh connection, where the
    buffer may still grow, keeps it off the measured connection.
    """
    with connect(address) as client:
        response = client.request({"op": "status", "v": 1})
    if not response.get("ok"):
        raise RuntimeError(f"status on {address} failed: {response}")
    return response


def find_pid(pgid: int, *needles: str) -> int:
    """The one process of the group whose command line holds every needle."""
    matches = []
    for pid in group_pids(pgid):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().decode("utf-8", "replace").split("\0")
        except OSError:
            continue
        if all(needle in argv for needle in needles):
            matches.append(pid)
    if len(matches) != 1:
        raise RuntimeError(f"expected one process with {needles}, found {matches}")
    return matches[0]


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def dir_stats(root: Path) -> Dict[str, int]:
    """Byte and file counts under a state dir, split by file kind."""
    stats = {"bytes": 0, "files": 0, "wal_bytes": 0, "segment_bytes": 0,
             "checkpoint_bytes": 0, "link_dirs": 0}
    for directory, _, files in os.walk(root):
        if Path(directory).parent.name == "links":
            stats["link_dirs"] += 1
        for name in files:
            if name.endswith(".sock"):
                continue
            size = os.stat(os.path.join(directory, name)).st_size
            stats["bytes"] += size
            stats["files"] += 1
            if name == "tail.wal":
                stats["wal_bytes"] += size
            elif name.endswith(".npz"):
                stats["segment_bytes"] += size
            elif name == "checkpoint.bin":
                stats["checkpoint_bytes"] += size
    return stats


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
def drive(client, requests: Sequence[Dict[str, Any]]
          ) -> Tuple[List[Dict[str, Any]], List[int], List[int]]:
    """Send every request, each after the previous reply.

    One client, one connection, one request in flight: the callers are
    replica brokers and monitor sidecars that wait for their answer.
    Returns ``(responses, send ns, reply ns)``, one entry per request.
    """
    send = client.request
    clock = time.perf_counter_ns
    n = len(requests)
    responses: List[Any] = [None] * n
    starts = [0] * n
    ends = [0] * n
    for i, req in enumerate(requests):
        starts[i] = clock()
        responses[i] = send(req)
        ends[i] = clock()
    return responses, starts, ends


def loop_overhead_us(samples: int = 20_000) -> float:
    """Cost of the timing loop itself around a no-op request."""
    class _Null:
        @staticmethod
        def request(req):
            return req

    _, starts, ends = drive(_Null, [{}] * samples)
    return (ends[-1] - starts[0]) / samples / 1e3
