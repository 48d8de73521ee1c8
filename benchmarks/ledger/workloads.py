"""The five workloads: inputs from a seed, one measured round at a time.

Every input — ULM logs, seed observations, the request stream — is made
here from ``--seed`` with the stdlib ``random`` module, so the program
under test receives only generated inputs and a later commit cannot
change what is asked of it.  Requests are built before the clock starts.

A round is: byte-identical copy of the prepared input -> fresh server ->
readiness -> first verified answer (``setup_s``) -> warm-up (5 % of the
ops, untimed) -> the measured closed loop -> verification against the
oracle -> for state-dir workloads SIGKILL, recovery, graceful stop.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import oracle

MB = 1_000_000
#: Eight of the paper's thirteen campaign sizes, two per size class.
SIZES = (1 * MB, 10 * MB, 50 * MB, 100 * MB, 250 * MB, 500 * MB, 750 * MB,
         1000 * MB)
#: Eight battery specs: plain and windowed mean/median/last, two
#: classified, one temporal mean, one AR (the only one the oracle skips).
SPECS = ("AVG", "LV", "AVG15", "MED5", "C-AVG15", "C-MED15", "AVG15hr", "AR5d")
T0 = 1.0e9

#: ``--seconds`` that corresponds to the full-size op counts below
#: (five rounds of about 7 s on the 2-core reference box).
FULL_SECONDS = 35.0
WARMUP_SHARE = 0.05
#: A round's measured phase is cut into this many equal slices;
#: throughput and CPU cost are medians over the slices, so a stall
#: shorter than half a round does not move them.
SLICES = 20
RECOVER_LINK_CAP = 256
SHIPPED_LOGS = ("aug-LBL-ANL", "aug-ISI-ANL", "dec-LBL-ANL", "dec-ISI-ANL")

Request = Dict[str, Any]


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"ledger:{seed}:{name}")


def _scaled(full: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(full * scale)))


def _mix(rng: random.Random, counts: Dict[str, int]) -> List[str]:
    """The warm-up's and then the measured phase's request kinds: exact
    counts in a seeded order, so the items per request, the observations
    stored and ``attempted`` are the same for every seed."""
    kinds: List[str] = []
    for share in (WARMUP_SHARE, 1.0):
        part = [kind for kind, n in counts.items()
                for _ in range(int(round(n * share)))]
        rng.shuffle(part)
        kinds += part
    return kinds


# ----------------------------------------------------------------------
# generated data
# ----------------------------------------------------------------------
def _history(rng: random.Random, n: int) -> List[Tuple[int, float, float, float]]:
    """``n`` transfers ``(size, start, end, bandwidth)`` in end-time order."""
    t = T0
    rows = []
    for _ in range(n):
        t += rng.uniform(600.0, 7200.0)
        size = rng.choice(SIZES)
        duration = rng.uniform(1.0, 60.0)
        rows.append((size, t - duration, t, size / duration))
    return rows


def _ulm_line(row: Tuple[int, float, float, float]) -> str:
    size, start, end, bandwidth = row
    return (
        f"DATE={end!r} HOST=ledger.example.org PROG=gridftp LVL=INFO "
        f"GFTP.SRC=10.0.0.1 GFTP.FILE=/data/f{size} GFTP.NBYTES={size} "
        f"GFTP.VOLUME=/data GFTP.START={start!r} GFTP.END={end!r} "
        f"GFTP.BW={bandwidth!r} GFTP.OP=read GFTP.STREAMS=8 GFTP.BUFFER=1000000"
    )


def _observation(link: str, row: Tuple[int, float, float, float]) -> Request:
    """One observation in the shape the struct codec carries."""
    size, start, end, bandwidth = row
    return {"link": link, "size": size, "start": start, "end": end,
            "bandwidth": bandwidth, "operation": "read", "streams": 8,
            "tcp_buffer": 1_000_000}


class _Stream:
    """A global clock past every seed record, so each generated
    observation lands in end-time order on whichever link it goes to."""

    def __init__(self, rng: random.Random, histories: Dict[str, list]) -> None:
        self.rng = rng
        self.clock = max(rows[-1][2] for rows in histories.values()) + 60.0

    def observation(self, link: str) -> Request:
        self.clock += self.rng.uniform(1.0, 5.0)
        size = self.rng.choice(SIZES)
        duration = self.rng.uniform(0.2, 0.9)
        return _observation(
            link, (size, self.clock - duration, self.clock, size / duration))

    def predict(self, link: str, index: int) -> Request:
        return {"op": "predict", "v": 1, "link": link,
                "size": SIZES[index % len(SIZES)],
                "spec": SPECS[index % len(SPECS)], "now": self.clock + 1.0}


def _model_histories(histories: Dict[str, list]) -> Dict[str, List[oracle.Record]]:
    return {link: [(r[0], r[2], r[3]) for r in rows]
            for link, rows in histories.items()}


# ----------------------------------------------------------------------
# round bookkeeping
# ----------------------------------------------------------------------
def _latency_metrics(prefix: str, latencies_ns: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(latencies_ns)
    out = {}
    for label, p in (("p50", 0.50), ("p99", 0.99)):
        value = harness.percentile(ordered, p)
        if value is not None:
            out[f"{prefix}_{label}_us"] = value / 1e3
    return out


def _counters(status: Dict) -> Dict[str, int]:
    """The counters the ledger reads from one ``status`` answer."""
    store = status.get("store") or {}
    return {
        "predicts": int(status["predicts"]),
        "ingested": int(status["ingested"]),
        "cache_hits": int(status["cache"]["hits"]),
        "cache_misses": int(status["cache"]["misses"]),
        "streamed": int(status["streaming"]["streamed"]),
        "recomputed": int(status["streaming"]["recomputed"]),
        "evictions": int(store.get("evictions", 0)),
        "revivals": int(store.get("revivals", 0)),
        "group_commits": int(store.get("group_commits", 0)),
        "fsyncs": int(store.get("fsyncs", 0)),
    }


class Workload:
    """Shared shape: ``prepare`` once, then ``run_round`` per round."""

    name = ""
    why = ""

    def __init__(self, seed: int, scale: float, smoke: bool) -> None:
        self.seed = seed
        self.scale = scale
        self.smoke = smoke
        self.gen_s = 0.0
        self.seed_s = 0.0

    def prepare(self, session: harness.Session) -> None:
        raise NotImplementedError

    def run_round(self, session: harness.Session, tag: str,
                  tracer=None) -> Dict[str, Any]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# server workloads
# ----------------------------------------------------------------------
class ServerWorkload(Workload):
    """A workload driven over a socket against ``repro serve``/``fleet``."""

    write_op: Optional[str] = None
    has_state = False
    max_resident: Optional[int] = None
    #: Where a round's processes may run: anywhere, unless overridden.
    placement = staticmethod(contextlib.nullcontext)

    def __init__(self, seed: int, scale: float, smoke: bool) -> None:
        super().__init__(seed, scale, smoke)
        self.prep = Path(f"{self.name}-prep")
        self.histories: Dict[str, list] = {}
        self.requests: List[Request] = []
        self.warmup = 0

    # -- hooks ----------------------------------------------------------
    def generate(self) -> None:
        """Fill ``self.histories``, ``self.requests`` and ``self.warmup``."""
        raise NotImplementedError

    def write_inputs(self, session: harness.Session) -> None:
        """Materialise the prepared input under ``self.prep``."""
        raise NotImplementedError

    def command(self, rdir: Path) -> Tuple[List[str], str]:
        """``(python argv, client address)`` for a server over ``rdir``."""
        raise NotImplementedError

    def crash(self, session: harness.Session, server: harness.Server, client):
        """SIGKILL what the workload kills; returns the ``(server, client)``
        to verify recovery through."""
        raise NotImplementedError

    def status(self, rdir: Path, address: str) -> Dict[str, int]:
        """Counters of the public ``status`` op, summed over the servers."""
        return _counters(harness.status(address))

    def live_probes(self, client, rdir: Path) -> Dict[str, float]:
        """Traced round only: per-layer values that need the live server."""
        return {}

    def inprocess_service(self, root: Path):
        """``(service, close)``: a PredictionService in this process,
        built from the same input the servers were given."""
        from repro.service import PredictionService
        from repro.service.server import handle_request
        from repro.store import LinkStore

        store = LinkStore(root / "state") if self.has_state else None
        service = PredictionService(store=store, max_resident=self.max_resident)
        items = self.seed_items()
        for lo in range(0, len(items), 1000):
            handle_request(service, {"op": "observe_batch", "v": 1,
                                     "items": items[lo:lo + 1000]})
        return service, (store.close if store is not None else lambda: None)

    # -- prepare --------------------------------------------------------
    def seed_items(self) -> List[Request]:
        """Every seed record as an observation, link by link, in time order."""
        return [_observation(link, row)
                for link, rows in self.histories.items() for row in rows]

    def prepare(self, session: harness.Session) -> None:
        t0 = time.perf_counter()
        self.generate()
        self.gen_s = time.perf_counter() - t0
        self.prep.mkdir()
        self.write_inputs(session)

    def seed_through_server(self, session: harness.Session) -> None:
        """Seed the state dir through the program's own ``observe_batch``,
        so the on-disk format is whatever the commit under test writes."""
        t0 = time.perf_counter()
        argv, address = self.command(self.prep)
        server = session.spawn(argv, address, f"{self.name}-seed.log")
        client = server.wait_ready()
        items = self.seed_items()
        # Small chunks: see harness.status() on why answers stay small.
        for lo in range(0, len(items), 128):
            chunk = items[lo:lo + 128]
            resp = client.request({"op": "observe_batch", "v": 1, "items": chunk})
            if not (resp.get("ok") and all(r.get("ok") for r in resp["results"])):
                raise RuntimeError(f"seeding {self.name} failed: {resp}")
        client.close()
        server.terminate()
        self.seed_s = time.perf_counter() - t0
        # Evicted links keep their seed rows in the tail; only growth counts.
        self.seed_wal_bytes = harness.dir_stats(self.prep / "state")["wal_bytes"]

    # -- one round ------------------------------------------------------
    def first_request(self) -> Request:
        link = next(iter(self.histories))
        rows = self.histories[link]
        return {"op": "predict", "v": 1, "link": link, "size": SIZES[3],
                "spec": "AVG15", "now": rows[-1][2] + 60.0}

    def run_round(self, session: harness.Session, tag: str,
                  tracer=None) -> Dict[str, Any]:
        with self.placement():
            return self._round(session, tag, tracer)

    def _round(self, session: harness.Session, tag: str,
               tracer=None) -> Dict[str, Any]:
        rdir = Path(f"{self.name}-{tag}")
        shutil.copytree(self.prep, rdir)
        model = oracle.Model(_model_histories(self.histories))
        probe_ms = harness.machine_probe_ms()
        argv, address = self.command(rdir)

        t_spawn = time.perf_counter()
        server = session.spawn(argv, address, f"{self.name}-{tag}.log")
        client = server.wait_ready()
        first = self.first_request()
        failed = model.apply(-1, first, client.request(first), force=True)
        setup_s = time.perf_counter() - t_spawn
        attempted = 1

        extras: Dict[str, Any] = {}
        if tracer is not None:
            _, sent, got = harness.drive(client, [{"op": "ping", "v": 1}] * 1000)
            extras["ping_ns"] = [b - a for a, b in zip(sent, got)]

        warm, measured = self.requests[:self.warmup], self.requests[self.warmup:]
        warm_responses = harness.drive(client, warm)[0]

        pids = server.pids()
        before = self.status(rdir, address)
        responses, starts, ends, slices = self._measure(client, pids, measured)
        rss_mb = harness.hwm_mb(pids)
        after = self.status(rdir, address)

        for i, (req, resp) in enumerate(zip(warm, warm_responses)):
            failed += model.apply(i, req, resp)
        for i, (req, resp) in enumerate(zip(measured, responses), len(warm)):
            failed += model.apply(i, req, resp)
        ops = sum(oracle.items_of(req) for req in measured)
        attempted += ops + sum(oracle.items_of(req) for req in warm)

        metrics = self._timings(measured, starts, ends, slices)
        metrics["setup_s"] = setup_s
        metrics["rss_mb"] = rss_mb
        counts = {key: after[key] - before[key] for key in before}
        counts["ops"] = ops
        counts["oracle_checked"] = model.checked
        errors = [r["error"].get("code") for r in responses
                  if not r.get("ok") and isinstance(r.get("error"), dict)]
        extras["shed"] = errors.count("overloaded")
        extras["unavailable"] = errors.count("unavailable")

        if tracer is not None:
            tracer.socket_pass(self, measured, starts, ends)
            extras["live"] = self.live_probes(client, rdir)

        if self.has_state:
            state = rdir / "state"
            counts["wal_bytes_written"] = (
                harness.dir_stats(state)["wal_bytes"] - self.seed_wal_bytes)
            counts["observations_written"] = sum(
                oracle.items_of(req) for req in self.requests
                if req["op"] in ("observe", "observe_batch"))
            written = self._written_links(measured)
            recovered = self._recover(session, server, client, model, written)
            server, metrics["recover_s"], recover_failed = recovered
            failed += recover_failed
            attempted += len(written)
            extras["shutdown_s"] = server.terminate()
            disk = harness.dir_stats(state)
            stored = sum(len(records) for records in model.links.values())
            metrics["disk_bytes_per_obs"] = disk["bytes"] / stored
            counts.update({
                "disk_bytes": disk["bytes"], "disk_files": disk["files"],
                "segment_bytes": disk["segment_bytes"],
                "checkpoint_bytes": disk["checkpoint_bytes"],
                "link_dirs": disk["link_dirs"], "observations_stored": stored,
            })
        else:
            client.close()
            extras["shutdown_s"] = server.terminate()
        shutil.rmtree(rdir)
        return {"metrics": metrics, "counts": counts, "probe_ms": probe_ms,
                "cpus": sorted(os.sched_getaffinity(0)),
                "attempted": attempted, "failed": failed,
                "failures": model.failures, "extras": extras,
                "seconds": (ends[-1] - starts[0]) / 1e9}

    @staticmethod
    def _measure(client, pids: Sequence[int], measured: Sequence[Request]):
        """The measured phase, in SLICES slices with the CPU clocks read
        between them.  Returns ``(responses, send ns, reply ns, slices)``;
        a slice holds its bounds, its ops and its CPU seconds."""
        responses: List[Request] = []
        starts: List[int] = []
        ends: List[int] = []
        slices: List[Dict[str, Any]] = []
        edges = [len(measured) * k // SLICES for k in range(SLICES + 1)]
        for lo, hi in zip(edges, edges[1:]):
            cpu0 = harness.cpu_seconds(pids) + time.process_time()
            part = harness.drive(client, measured[lo:hi])
            cpu1 = harness.cpu_seconds(pids) + time.process_time()
            slices.append({
                "lo": lo, "hi": hi, "cpu_s": cpu1 - cpu0,
                "ops": sum(oracle.items_of(req) for req in measured[lo:hi]),
            })
            responses += part[0]
            starts += part[1]
            ends += part[2]
        return responses, starts, ends, slices

    def _timings(self, measured, starts, ends, slices) -> Dict[str, float]:
        """Throughput, CPU cost and latency percentiles of one round,
        as the clocks read them."""
        rates, cpu_costs = [], []
        by_op: Dict[str, List[int]] = {}
        for piece in slices:
            lo, hi = piece["lo"], piece["hi"]
            rates.append(piece["ops"] / ((ends[hi - 1] - starts[lo]) / 1e9))
            cpu_costs.append(piece["cpu_s"] * 1e3 / (piece["ops"] / 1e3))
        for req, t0, t1 in zip(measured, starts, ends):
            by_op.setdefault(req["op"], []).append(t1 - t0)
        metrics = {"ops_per_s": harness.median(rates),
                   "cpu_ms_per_kop": harness.median(cpu_costs)}
        metrics.update(_latency_metrics("read", by_op.get("predict", [])))
        if self.write_op:
            metrics.update(_latency_metrics("write", by_op.get(self.write_op, [])))
        return metrics

    @staticmethod
    def _written_links(requests: Sequence[Request]) -> List[str]:
        seen: Dict[str, None] = {}
        for req in requests:
            if req["op"] == "observe":
                seen.setdefault(req["link"])
            elif req["op"] == "observe_batch":
                for item in req["items"]:
                    seen.setdefault(item["link"])
        return list(seen)[:RECOVER_LINK_CAP]

    def _recover(self, session, server, client, model: oracle.Model,
                 links: Sequence[str]):
        """SIGKILL, come back, and see every written link at its last
        acked version.  Returns ``(server to stop, seconds, failures)``."""
        from repro.wire import FrameError

        t_kill = time.perf_counter()
        server, client = self.crash(session, server, client)
        deadline = time.monotonic() + harness.READY_DEADLINE_S
        failed = 0
        for link in links:
            records = model.links[link]
            req = {"op": "predict", "v": 1, "link": link, "size": SIZES[3],
                   "spec": "AVG", "now": records[-1][1] + 1.0}
            while True:
                try:
                    resp = client.request(req)
                except (OSError, ConnectionError, FrameError):
                    resp = {"ok": False, "error": {"code": "unavailable"}}
                error = resp.get("error")
                transient = (not resp.get("ok") and isinstance(error, dict)
                             and error.get("code") in ("unavailable", "overloaded"))
                if not transient or time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            failed += model.apply(-2, req, resp, force=True)
        recover_s = time.perf_counter() - t_kill
        client.close()
        return server, recover_s, failed


class _ServeWorkload(ServerWorkload):
    """``repro serve`` on a Unix socket; a crash is SIGKILL + respawn.
    One client and one server process that take turns: one CPU."""

    placement = staticmethod(harness.one_cpu)

    def logs(self, rdir: Path) -> List[str]:
        return [str(rdir / "stub.ulm")]

    def command(self, rdir: Path) -> Tuple[List[str], str]:
        sock = str(rdir / "s.sock")
        argv = ["-m", "repro.cli", "serve", "--socket", sock]
        if self.has_state:
            argv += ["--state-dir", str(rdir / "state")]
        if self.max_resident is not None:
            argv += ["--max-resident", str(self.max_resident)]
        return argv + self.logs(rdir), sock

    def write_inputs(self, session: harness.Session) -> None:
        # `serve` wants at least one log; an empty one adds no link.
        (self.prep / "stub.ulm").write_text("")
        self.seed_through_server(session)

    def crash(self, session, server, client):
        rdir = Path(server.address).parent
        client.close()
        server.kill()
        argv, address = self.command(rdir)
        server = session.spawn(argv, address, server.log)
        return server, server.wait_ready()


class PredictHot(_ServeWorkload):
    name = "predict_hot"
    why = ("Broker read path: client, wire, server loop, service and "
           "core.streaming.answer do all the work; store and fleet do none.")

    def generate(self) -> None:
        rng = _rng(self.seed, self.name)
        links = 20 if self.smoke else 200
        self.histories = {f"L{i:03d}": _history(rng, 400) for i in range(links)}
        names = list(self.histories)
        # `now` is fixed per link, so a temporal spec is one cache key per
        # link: about 2.8k keys in all against the 2,048-entry cache.
        now = {link: rows[-1][2] + 60.0 for link, rows in self.histories.items()}
        total = _scaled(60_000, self.scale, floor=1200)
        self.warmup = int(total * WARMUP_SHARE)
        self.requests = []
        for _ in range(self.warmup + total):
            link = rng.choice(names)
            self.requests.append({
                "op": "predict", "v": 1, "link": link, "size": rng.choice(SIZES),
                "spec": rng.choice(SPECS), "now": now[link]})

    def logs(self, rdir: Path) -> List[str]:
        return [str(rdir / f"{link}.ulm") for link in self.histories]

    def write_inputs(self, session: harness.Session) -> None:
        for link, rows in self.histories.items():
            (self.prep / f"{link}.ulm").write_text(
                "\n".join(_ulm_line(row) for row in rows) + "\n")

    def inprocess_service(self, root: Path):
        from repro.service import PredictionService

        service = PredictionService()
        for path in self.logs(self.prep):
            service.ingest_ulm(path, cache=False)
        return service, lambda: None


class IngestStream(_ServeWorkload):
    name = "ingest_stream"
    why = ("Monitor write path: batch decode, StreamingBank.extend, WAL "
           "append, group commit and recovery, with reads on the links "
           "being written.")
    write_op = "observe_batch"
    has_state = True

    def generate(self) -> None:
        rng = _rng(self.seed, self.name)
        records = 50 if self.smoke else 200
        self.histories = {f"M{i:02d}": _history(rng, records) for i in range(32)}
        names = list(self.histories)
        stream = _Stream(rng, self.histories)
        batches = _scaled(2_400, self.scale, floor=60)
        warm_batches = int(batches * WARMUP_SHARE)
        self.requests = []
        for j in range(warm_batches + batches):
            pair = (names[(2 * j) % 32], names[(2 * j + 1) % 32])
            # Two contiguous in-order 16-record runs, one per link.
            items = [stream.observation(link) for link in pair for _ in range(16)]
            self.requests.append({"op": "observe_batch", "v": 1, "items": items})
            # The link's version just moved, so this read misses the cache.
            self.requests.append(stream.predict(pair[0], j))
        self.warmup = 2 * warm_batches


class ColdRevive(_ServeWorkload):
    name = "cold_revive"
    why = ("Working set 16x the resident tier: checkpoint read/write, "
           "load_columns and eviction dominate; wire and cache barely matter.")
    write_op = "observe"
    has_state = True
    max_resident = 64

    def generate(self) -> None:
        rng = _rng(self.seed, self.name)
        links = 200 if self.smoke else 1000
        self.histories = {f"C{i:04d}": _history(rng, 30) for i in range(links)}
        names = list(self.histories)
        stream = _Stream(rng, self.histories)
        counts = {"predict": _scaled(2_500, self.scale, floor=125),
                  "observe": _scaled(1_000, self.scale, floor=50)}
        kinds = _mix(rng, counts)
        self.warmup = len(kinds) - sum(counts.values())
        self.requests = []
        for index, kind in enumerate(kinds):
            link = rng.choice(names)
            if kind == "observe":
                self.requests.append(
                    {"op": "observe", "v": 1, **stream.observation(link)})
            else:
                self.requests.append(stream.predict(link, index))


class FleetMixed(ServerWorkload):
    name = "fleet_mixed"
    why = ("The only workload through fleet.front: route, hop, fan-out, "
           "merge; against predict_hot it isolates the front's cost.")
    write_op = "observe"
    has_state = True

    def __init__(self, seed: int, scale: float, smoke: bool) -> None:
        super().__init__(seed, scale, smoke)
        self.port = 0

    def generate(self) -> None:
        rng = _rng(self.seed, self.name)
        records = 50 if self.smoke else 200
        self.histories = {f"F{i:02d}": _history(rng, records) for i in range(64)}
        names = list(self.histories)
        stream = _Stream(rng, self.histories)
        total = _scaled(7_000, self.scale, floor=350)
        counts = {"observe": int(round(0.15 * total)),
                  "predict_batch": int(round(0.15 * total)),
                  "rank": int(round(0.10 * total))}
        counts["predict"] = total - sum(counts.values())
        kinds = _mix(rng, counts)
        self.warmup = len(kinds) - total
        self.requests = []
        for index, kind in enumerate(kinds):
            if kind == "predict":
                self.requests.append(stream.predict(rng.choice(names), index))
            elif kind == "observe":
                self.requests.append(
                    {"op": "observe", "v": 1,
                     **stream.observation(rng.choice(names))})
            elif kind == "predict_batch":
                # 16 uniform links of 64 span both shards (all on one
                # shard has probability about 2**-15).
                items = []
                for k in range(16):
                    item = stream.predict(rng.choice(names), index + k)
                    items.append({key: item[key]
                                  for key in ("link", "size", "spec", "now")})
                self.requests.append(
                    {"op": "predict_batch", "v": 1, "items": items})
            else:
                self.requests.append({
                    "op": "rank", "v": 1, "candidates": rng.sample(names, 4),
                    "size": rng.choice(SIZES), "spec": SPECS[index % len(SPECS)],
                    "now": stream.clock + 1.0})
        self.final_now = stream.clock + 1.0

    def command(self, rdir: Path) -> Tuple[List[str], str]:
        # A fresh port per server: the previous round's may sit in TIME_WAIT.
        self.port = harness.free_port()
        address = f"127.0.0.1:{self.port}"
        return (["-m", "repro.cli", "fleet", "--workers", "2", "--state-dir",
                 str(rdir / "state"), "--listen", address], address)

    def write_inputs(self, session: harness.Session) -> None:
        self.seed_through_server(session)

    def crash(self, session, server, client):
        """SIGKILL worker 0; the fleet's own supervisor respawns it."""
        os.kill(harness.find_pid(server.pgid, "repro.fleet.worker", "--shard", "0"),
                signal.SIGKILL)
        return server, client

    def live_probes(self, client, rdir: Path) -> Dict[str, float]:
        """The front's own cost: the same reads through the front and
        straight to the owning worker, and 16-item batches that stay on
        one shard against batches split 8 + 8 over both."""
        from repro.fleet.hashing import ShardRing

        ring = ShardRing(2)
        names = list(self.histories)

        def predict(link: str, k: int) -> Request:
            return {"op": "predict", "v": 1, "link": link,
                    "size": SIZES[k % len(SIZES)], "spec": SPECS[k % len(SPECS)],
                    "now": self.final_now}

        def p50_us(requests: Sequence[Request], through) -> float:
            _, sent, got = harness.drive(through, requests)
            return harness.median([b - a for a, b in zip(sent, got)]) / 1e3

        reads = [predict(names[k % len(names)], k) for k in range(600)]
        via_front = p50_us(reads, client)
        direct = []
        for shard in range(2):
            own = [req for req in reads if ring.shard_of(req["link"]) == shard]
            with harness.connect(str(rdir / "state" / f"w{shard}.sock")) as worker:
                _, sent, got = harness.drive(worker, own)
            direct += [b - a for a, b in zip(sent, got)]
        on = {shard: [n for n in names if ring.shard_of(n) == shard]
              for shard in range(2)}

        def batch(links: Sequence[str], k: int) -> Request:
            return {"op": "predict_batch", "v": 1, "items": [
                {key: value for key, value in predict(link, k + j).items()
                 if key not in ("op", "v")} for j, link in enumerate(links)]}

        one = [batch([on[k % 2][(k + j) % len(on[k % 2])] for j in range(16)], k)
               for k in range(100)]
        two = [batch([on[j % 2][(k + j) % len(on[j % 2])] for j in range(16)], k)
               for k in range(100)]
        return {
            "fleet.front.hop_us": via_front - harness.median(direct) / 1e3,
            "fleet.front.fanout_us_per_shard": p50_us(two, client) - p50_us(one, client),
        }

    def status(self, rdir: Path, address: str) -> Dict[str, int]:
        # Straight from each worker's socket: the front's merged answer
        # asks the workers over its pooled connections, which cannot carry
        # an answer that large (see harness.status()).
        total: Dict[str, int] = {}
        for shard in range(2):
            worker = _counters(harness.status(str(rdir / "state" / f"w{shard}.sock")))
            for key, value in worker.items():
                total[key] = total.get(key, 0) + value
        return total


# ----------------------------------------------------------------------
# replay_eval
# ----------------------------------------------------------------------
class ReplayEval(Workload):
    name = "replay_eval"
    why = ("The paper's Section 6 experiment and the only user of "
           "core.fast, core.engine and data.ingest.")

    def prepare(self, session: harness.Session) -> None:
        # Five passes are 20 evaluate(frame) calls, what a p50 needs.
        self.passes = _scaled(20, self.scale, floor=5)
        self.logs = [str(harness.DATA / f"{name}.ulm") for name in SHIPPED_LOGS]
        # The oracle walks one shipped log, chosen by the seed.
        self.check_log = SHIPPED_LOGS[self.seed % len(SHIPPED_LOGS)]
        t0 = time.perf_counter()
        text = (harness.DATA / f"{self.check_log}.ulm").read_text()
        self.check_specs = [
            prefix + base for prefix in ("", "C-")
            for base in ("AVG", "LV", "AVG5", "AVG15", "AVG25", "MED", "MED5",
                         "MED15", "MED25", "AVG5hr", "AVG15hr", "AVG25hr")]
        self.expected = oracle.walk_mape(oracle.parse_ulm(text), self.check_specs)
        self.gen_s = time.perf_counter() - t0

    def _mape_failures(self, tables: Dict[str, Dict[str, float]]) -> List[str]:
        got = tables[self.check_log]
        return [f"MAPE {spec} on {self.check_log}: oracle "
                f"{self.expected[spec]!r}, program {got[spec]!r}"
                for spec in self.check_specs
                if not oracle.close(self.expected[spec], got[spec])]

    def run_round(self, session: harness.Session, tag: str,
                  tracer=None) -> Dict[str, Any]:
        probe_ms = harness.machine_probe_ms()
        script = str(Path(__file__).with_name("replay_child.py"))
        t_spawn = time.perf_counter()
        child = session.spawn([script, *self.logs], None,
                              f"{self.name}-{tag}.log", pipes=True)
        try:
            first = json.loads(child.proc.stdout.readline())
            failures = self._mape_failures(first["mape"])
            setup_s = time.perf_counter() - t_spawn
            # One slice per log (see SLICES).
            units = []
            for _ in range(self.passes * len(self.logs)):
                child.proc.stdin.write(b"go\n")
                child.proc.stdin.flush()
                units.append(json.loads(child.proc.stdout.readline()))
            child.proc.stdin.write(b"done\n")
            child.proc.stdin.flush()
            done = json.loads(child.proc.stdout.readline())
            if child.proc.wait(timeout=30.0) != 0:
                raise RuntimeError(f"replay child failed: {child.log_tail()}")
        except (ValueError, KeyError) as exc:
            raise RuntimeError(
                f"replay child protocol error ({exc}): {child.log_tail()}")
        finally:
            child.kill()
        tables = {unit["log"]: unit["mape"] for unit in units[-len(self.logs):]}
        failures += self._mape_failures(tables)
        ops = sum(unit["ops"] for unit in units)
        cells = [value for table in tables.values() for value in table.values()]
        metrics = self._timings(units)
        metrics["setup_s"] = setup_s
        metrics["rss_mb"] = done["hwm_mb"]
        metrics["mape_pct"] = sum(cells) / len(cells)
        counts = {"ops": ops, "mape_cells": len(cells),
                  "oracle_checked": 2 * len(self.check_specs)}
        if tracer is not None:
            tracer.replay_pass(self, units)
        return {"metrics": metrics, "counts": counts, "probe_ms": probe_ms,
                "cpus": sorted(os.sched_getaffinity(0)),
                "attempted": ops + len(self.check_specs),
                "failed": len(failures), "failures": failures[:20],
                "extras": {},
                "seconds": sum(unit["wall_ns"] for unit in units) / 1e9}

    @staticmethod
    def _timings(units) -> Dict[str, float]:
        rates, cpu_costs, calls = [], [], []
        for unit in units:
            rates.append(unit["ops"] / (unit["wall_ns"] / 1e9))
            cpu_costs.append(unit["cpu_s"] * 1e3 / (unit["ops"] / 1e3))
            calls.append(unit["evaluate_ns"])
        metrics = {"ops_per_s": harness.median(rates),
                   "cpu_ms_per_kop": harness.median(cpu_costs)}
        # An evaluate call reports its p50 only (20 calls suffice for it).
        p50 = harness.percentile(sorted(calls), 0.50)
        if p50 is not None:
            metrics["read_p50_us"] = p50 / 1e3
        return metrics


WORKLOADS = (PredictHot, IngestStream, ColdRevive, FleetMixed, ReplayEval)
