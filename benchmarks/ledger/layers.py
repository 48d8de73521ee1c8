"""The traced pass: per-layer numbers measured from outside the program.

Nothing under ``src/`` is instrumented.  A layer is measured by timing
calls into its public functions from here, and by deltas of the public
``status`` op.  Three sources feed the per-layer metrics:

* the **traced round** of a workload — its socket pass (one root span
  ``e2e.<op>`` per request), its ``status`` deltas and state-dir sizes,
  and for ``fleet_mixed`` the front-versus-worker sub-passes;
* the **in-process pass** — the first requests of the same input pushed
  through encode -> decode -> dispatch -> encode -> decode in this
  process, one root ``inproc.<op>`` with a child span per call;
* the **layer probes** — standalone calls into ``StreamingBank``,
  ``LinkStore``, ``wal`` and the hash ring on inputs made from the seed.
  A probe runs once per session and is reported under the workloads
  whose end-to-end numbers it should move (``PROBE_OWNERS``), nowhere
  else.

A workload reports only the metrics of layers on its path; the others
are omitted for it.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import harness
import workloads as wl
from oracle import items_of as oracle_items

INPROC_REQUESTS = 2000
MIN_COVERAGE = 0.90

#: name -> unit, in print order.  ``better`` is "lower" for every one
#: except ``HIGHER_IS_BETTER``.
#:
#: ``e2e.<name>`` are the end-to-end timings that BENCHMARK.json lists
#: among its per-layer metrics: on this box none of them repeats within
#: 0.10 from one 20-second invocation to the next (README, "What the
#: contract gates"), so the contract reports them without a bound.  The
#: values are the untraced rounds' medians.  ``write_p99_us`` is not
#: among them: no round at the contract's size holds the 1,000 writes it
#: needs, so the name would never carry a value there.
PER_LAYER: Dict[str, str] = {
    "e2e.ops_per_s": "1/s",
    "e2e.read_p50_us": "us",
    "e2e.read_p99_us": "us",
    "e2e.write_p50_us": "us",
    "e2e.cpu_ms_per_kop": "ms",
    "e2e.recover_s": "s",
    "wire.encode_request_us": "us",
    "wire.decode_request_us": "us",
    "wire.encode_response_us": "us",
    "wire.decode_response_us": "us",
    "wire.bytes_per_req": "B",
    "wire.bytes_per_resp": "B",
    "wire.batch_decode_us_per_item": "us",
    "service.server.ping_p50_us": "us",
    "service.server.residual_us": "us",
    "service.service.predict_hit_us": "us",
    "service.service.predict_miss_us": "us",
    "service.service.cache_hit_ratio": "ratio",
    "service.service.streamed_ratio": "ratio",
    "service.service.observe_us": "us",
    "service.service.observe_batch_us_per_item": "us",
    "service.service.predict_batch_us_per_item": "us",
    "service.service.rank_us": "us",
    "core.streaming.add_us": "us",
    "core.streaming.extend_us_per_item": "us",
    "core.streaming.answer_us": "us",
    "core.streaming.rebuild_us_per_record": "us",
    "core.streaming.state_bytes": "B",
    "core.fast.evaluate_us_per_kpred": "us",
    "core.engine.generic_us_per_kpred": "us",
    "data.ingest.parse_us_per_record": "us",
    "store.append_rows_us_per_row": "us",
    "store.wal_bytes_per_obs": "B",
    "store.group_commits_per_kobs": "count",
    "store.fsyncs_per_kobs": "count",
    "store.group_commit_us": "us",
    "store.checkpoint_write_us": "us",
    "store.checkpoint_read_us": "us",
    "store.checkpoint_bytes": "B",
    "store.load_columns_us_per_row": "us",
    "store.evictions_per_kop": "count",
    "store.revivals_per_kop": "count",
    "store.seal_us_per_row": "us",
    "store.segment_bytes_per_obs": "B",
    "store.files_per_link": "count",
    "store.wal_scan_us_per_row": "us",
    "store.shutdown_s": "s",
    "fleet.hashing.shard_of_us": "us",
    "fleet.front.hop_us": "us",
    "fleet.front.fanout_us_per_shard": "us",
    "fleet.front.predict_batch_p50_us": "us",
    "fleet.front.rank_p50_us": "us",
    "fleet.front.shed_count": "count",
    "fleet.front.unavailable_count": "count",
    "obs.quality.overhead_ratio": "ratio",
    "harness.seed_s": "s",
    "harness.gen_s": "s",
    "harness.loop_overhead_us": "us",
    "harness.machine_probe_ms": "ms",
    "harness.round_spread": "ratio",
    "harness.trace_overhead_ratio": "ratio",
}
HIGHER_IS_BETTER = ("e2e.ops_per_s", "service.service.cache_hit_ratio",
                    "service.service.streamed_ratio")

_SERVERS = ("predict_hot", "ingest_stream", "cold_revive", "fleet_mixed")
#: probe metric -> the workloads whose end-to-end numbers it should move.
PROBE_OWNERS: Dict[str, Tuple[str, ...]] = {
    "harness.loop_overhead_us": _SERVERS,
    "core.streaming.answer_us": ("predict_hot",),
    "core.streaming.add_us": ("ingest_stream",),
    "core.streaming.extend_us_per_item": ("ingest_stream",),
    "core.streaming.rebuild_us_per_record": ("cold_revive",),
    "core.streaming.state_bytes": ("cold_revive",),
    "store.append_rows_us_per_row": ("ingest_stream",),
    "store.wal_scan_us_per_row": ("ingest_stream",),
    "store.seal_us_per_row": ("ingest_stream",),
    "store.fsyncs_per_kobs": ("ingest_stream",),
    "store.group_commit_us": ("ingest_stream",),
    "store.checkpoint_write_us": ("cold_revive",),
    "store.checkpoint_read_us": ("cold_revive",),
    "store.checkpoint_bytes": ("cold_revive",),
    "store.load_columns_us_per_row": ("cold_revive",),
    "fleet.hashing.shard_of_us": ("fleet_mixed",),
    "obs.quality.overhead_ratio": ("fleet_mixed",),
}

_STAGES = ("wire.FrameWriter.encode_request", "wire.decode_request",
           "service.server.handle_request", "wire.FrameWriter.encode_response",
           "wire.decode_response")


def _p50_us(durations_ns: Sequence[int]) -> float:
    return harness.median(durations_ns) / 1e3


class Tracer:
    """Spans in memory, written out at exit; per-layer values by name."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: (id, parent, name, start_ns, end_ns, workload, request index)
        self.spans: List[Tuple[int, Optional[int], str, int, int, str, int]] = []
        self.probes: Dict[str, float] = {}
        self.by_workload: Dict[str, Dict[str, float]] = {}
        #: Harness-level failures of the traced pass; any one fails the run.
        self.problems: List[str] = []
        self._socket: Dict[str, Dict[str, Any]] = {}
        self._replay: List[Dict[str, Any]] = []

    # -- spans ----------------------------------------------------------
    def span(self, name: str, start: int, end: int, workload: str,
             index: int = -1, parent: Optional[int] = None) -> int:
        span_id = len(self.spans)
        self.spans.append((span_id, parent, name, start, end, workload, index))
        return span_id

    def micro(self, name: str, calls: Iterable[Callable[[], Any]]) -> List[int]:
        """Time each call as one standalone span; returns the durations."""
        clock = time.perf_counter_ns
        durations = []
        for index, call in enumerate(calls):
            t0 = clock()
            call()
            t1 = clock()
            self.span(name, t0, t1, "probe", index)
            durations.append(t1 - t0)
        return durations

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "workload", "index")
        with open(path, "w") as handle:
            for row in self.spans:
                handle.write(json.dumps(dict(zip(keys, row))) + "\n")

    def self_times(self) -> Dict[int, int]:
        """A span's duration minus the part its children cover."""
        covered: Dict[int, int] = {}
        for _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + (end - start)
        return {row[0]: (row[4] - row[3]) - covered.get(row[0], 0)
                for row in self.spans}

    def check_coverage(self) -> None:
        """Children must cover >= 90 % of every ``inproc.<op>`` root."""
        self_ns = self.self_times()
        thin: Dict[str, int] = {}
        for span_id, parent, name, start, end, workload, _ in self.spans:
            if (parent is None and name.startswith("inproc.")
                    and self_ns[span_id] > (1.0 - MIN_COVERAGE) * (end - start)):
                thin[workload] = thin.get(workload, 0) + 1
        for workload, count in thin.items():
            self.problems.append(
                f"{workload}: {count} inproc roots have children covering "
                f"< {MIN_COVERAGE:.0%} of them")

    # -- the traced round's hooks ----------------------------------------
    def socket_pass(self, workload, measured, starts, ends) -> None:
        by_op: Dict[str, List[int]] = {}
        for index, (req, t0, t1) in enumerate(zip(measured, starts, ends)):
            self.span(f"e2e.{req['op']}", t0, t1, workload.name, index)
            by_op.setdefault(req["op"], []).append(t1 - t0)
        head = [t1 - t0 for req, t0, t1 in
                zip(measured[:INPROC_REQUESTS], starts, ends)
                if req["op"] == "predict"]
        self._socket[workload.name] = {"by_op": by_op, "head_predict": head}

    def replay_pass(self, workload, stages: Sequence[Dict[str, Any]]) -> None:
        self._replay = list(stages)
        for index, stage in enumerate(stages):
            t = stage["t0"]
            root = self.span("inproc.replay", t, t + stage["wall_ns"],
                             workload.name, index)
            for name, key in (("data.ingest.parse_ulm_text", "parse_ns"),
                              ("core.engine.evaluate[battery]", "evaluate_ns"),
                              ("EvaluationResult.mape_table", "mape_ns"),
                              ("core.engine.evaluate[SIZE]", "generic_ns")):
                self.span(name, t, t + stage[key], workload.name, index, root)
                t += stage[key]

    # -- the in-process pass ----------------------------------------------
    def inprocess_pass(self, workload, label: str) -> Dict[str, Any]:
        """Push the first measured requests through each layer's public
        function in turn; returns durations per (op, stage)."""
        from repro import wire
        from repro.service.server import handle_request

        root_dir = Path(f"inproc-{label}")
        service, close = workload.inprocess_service(root_dir)
        try:
            for req in workload.requests[:workload.warmup]:
                handle_request(service, req)
            requests = workload.requests[workload.warmup:][:INPROC_REQUESTS]
            req_writer, resp_writer = wire.FrameWriter(), wire.FrameWriter()
            header = wire.HEADER.size
            clock = time.perf_counter_ns
            rows = []
            for req in requests:
                t0 = clock()
                frame = req_writer.encode_request(req)
                t1 = clock()
                op = frame[3]
                decoded = wire.decode_request(op, bytes(frame[header:]))
                t2 = clock()
                response = handle_request(service, decoded)
                t3 = clock()
                out = resp_writer.encode_response(op, response)
                t4 = clock()
                answer = wire.decode_response(out[3], bytes(out[header:]))
                t5 = clock()
                rows.append(((t0, t1, t2, t3, t4, t5), len(frame), len(out),
                             answer))
                # A writer cannot grow its buffer under a live view of it.
                frame.release()
                out.release()
        finally:
            close()
            shutil.rmtree(root_dir, ignore_errors=True)

        stage_ns: Dict[Tuple[str, str], List[int]] = {}
        roots: Dict[str, List[int]] = {}
        sizes: Dict[str, List[Tuple[int, int]]] = {}
        cached: Dict[bool, List[int]] = {True: [], False: []}
        for index, (req, (stamps, n_req, n_resp, answer)) in enumerate(
                zip(requests, rows)):
            op = req["op"]
            root = self.span(f"inproc.{op}", stamps[0], stamps[5], label, index)
            for stage, t_a, t_b in zip(_STAGES, stamps, stamps[1:]):
                self.span(stage, t_a, t_b, label, index, root)
                stage_ns.setdefault((op, stage), []).append(t_b - t_a)
            roots.setdefault(op, []).append(stamps[5] - stamps[0])
            sizes.setdefault(op, []).append((n_req, n_resp))
            if op == "predict":
                cached[bool(answer.get("cached"))].append(stamps[3] - stamps[2])
            if not answer.get("ok"):
                self.problems.append(f"{label}: in-process {op} #{index} "
                                     f"answered {answer.get('error')}")
        return {"stage_ns": stage_ns, "roots": roots, "sizes": sizes,
                "cached": cached}

    # -- per-workload values ----------------------------------------------
    def finish_workload(self, workload, traced: Dict[str, Any],
                        aggregate: Dict[str, Any]) -> None:
        """Per-layer values of one workload: only layers on its path."""
        name = workload.name
        counts, extras = traced["counts"], traced["extras"]
        values: Dict[str, float] = {
            key: aggregate["metrics"][key[4:]]["value"] for key in PER_LAYER
            if key.startswith("e2e.") and key[4:] in aggregate["metrics"]}
        values["harness.gen_s"] = workload.gen_s
        values["harness.machine_probe_ms"] = harness.median(aggregate["probe_ms"])
        values["harness.round_spread"] = aggregate["round_spread"]
        values["harness.trace_overhead_ratio"] = (
            aggregate["metrics"]["ops_per_s"]["value"]
            / traced["metrics"]["ops_per_s"])
        self.problems.extend(f"{name} traced round: {failure}"
                             for failure in traced["failures"])

        if isinstance(workload, wl.ServerWorkload):
            values.update(self._server_values(workload, counts, extras))
        else:
            stages = self._replay
            values["core.fast.evaluate_us_per_kpred"] = harness.median(
                [s["evaluate_ns"] / s["battery_ops"] for s in stages])
            values["core.engine.generic_us_per_kpred"] = harness.median(
                [s["generic_ns"] / s["generic_ops"] for s in stages])
            values["data.ingest.parse_us_per_record"] = harness.median(
                [s["parse_ns"] / 1e3 / s["records"] for s in stages])
        self.by_workload[name] = values

    def _server_values(self, workload, counts, extras) -> Dict[str, float]:
        """From the workload's own traced round and its own in-process
        pass: the ops it does not send give it no value."""
        name = workload.name
        sock = self._socket[name]
        inproc = self.inprocess_pass(workload, name)

        def stage(op: str, index: int) -> Optional[float]:
            durations = inproc["stage_ns"].get((op, _STAGES[index]))
            return _p50_us(durations) if durations else None

        items = {req["op"]: oracle_items(req) for req in workload.requests}
        predict_sizes = inproc["sizes"]["predict"]
        values: Dict[str, Optional[float]] = {
            "wire.encode_request_us": stage("predict", 0),
            "wire.decode_request_us": stage("predict", 1),
            "wire.encode_response_us": stage("predict", 3),
            "wire.decode_response_us": stage("predict", 4),
            "wire.bytes_per_req":
                sum(n for n, _ in predict_sizes) / len(predict_sizes),
            "wire.bytes_per_resp":
                sum(n for _, n in predict_sizes) / len(predict_sizes),
            "service.server.ping_p50_us": _p50_us(extras["ping_ns"]),
            "service.server.residual_us":
                _p50_us(sock["head_predict"]) - _p50_us(inproc["roots"]["predict"]),
            "service.service.observe_us": stage("observe", 2),
            "service.service.rank_us": stage("rank", 2),
        }
        for flag, metric in ((True, "service.service.predict_hit_us"),
                             (False, "service.service.predict_miss_us")):
            if inproc["cached"][flag]:
                values[metric] = _p50_us(inproc["cached"][flag])
        if "observe_batch" in items:
            per = items["observe_batch"]
            values["wire.batch_decode_us_per_item"] = stage("observe_batch", 1) / per
            values["service.service.observe_batch_us_per_item"] = (
                stage("observe_batch", 2) / per)
        if "predict_batch" in items:
            values["service.service.predict_batch_us_per_item"] = (
                stage("predict_batch", 2) / items["predict_batch"])
        lookups = counts["cache_hits"] + counts["cache_misses"]
        if lookups:
            values["service.service.cache_hit_ratio"] = counts["cache_hits"] / lookups
        if counts["cache_misses"]:
            values["service.service.streamed_ratio"] = (
                counts["streamed"] / counts["cache_misses"])
        if name == "fleet_mixed":
            values.update(extras["live"])
            values["fleet.front.predict_batch_p50_us"] = _p50_us(
                sock["by_op"]["predict_batch"])
            values["fleet.front.rank_p50_us"] = _p50_us(sock["by_op"]["rank"])
            values["fleet.front.shed_count"] = extras["shed"]
            values["fleet.front.unavailable_count"] = extras["unavailable"]
        if workload.has_state:
            values["harness.seed_s"] = workload.seed_s
            values["store.shutdown_s"] = extras["shutdown_s"]
            values["store.wal_bytes_per_obs"] = (
                counts["wal_bytes_written"] / counts["observations_written"])
            values["store.group_commits_per_kobs"] = (
                counts["group_commits"] * 1e3 / counts["ingested"])
            values["store.evictions_per_kop"] = counts["evictions"] * 1e3 / counts["ops"]
            values["store.revivals_per_kop"] = counts["revivals"] * 1e3 / counts["ops"]
            values["store.segment_bytes_per_obs"] = (
                counts["segment_bytes"] / counts["observations_stored"])
            values["store.files_per_link"] = counts["disk_files"] / counts["link_dirs"]
        return {key: value for key, value in values.items() if value is not None}

    def per_layer(self, name: str) -> Dict[str, Dict[str, Any]]:
        values = dict(self.by_workload[name])
        values.update({metric: self.probes[metric]
                       for metric, owners in PROBE_OWNERS.items()
                       if name in owners and metric in self.probes})
        return {metric: {"value": values[metric], "unit": unit}
                for metric, unit in PER_LAYER.items() if metric in values}

    # -- the layer probes --------------------------------------------------
    def run_probes(self, names: Sequence[str]) -> None:
        """Each probe once per session, and only if a selected workload
        owns one of its metrics."""
        wanted = {metric for metric, owners in PROBE_OWNERS.items()
                  if set(owners) & set(names)}
        if "harness.loop_overhead_us" in wanted:
            self.probes["harness.loop_overhead_us"] = harness.loop_overhead_us()
        for prefix, probe in (("core.streaming.", self._probe_streaming),
                              ("store.", self._probe_store),
                              ("fleet.hashing.", self._probe_hashing),
                              ("obs.quality.", self._probe_quality)):
            if any(metric.startswith(prefix) for metric in wanted):
                probe()

    def _probe_streaming(self) -> None:
        import numpy as np

        from repro.core.classification import paper_classification
        from repro.core.predictors import resolve
        from repro.core.streaming import StreamingBank
        from repro.store import checkpoint

        rng = wl._rng(self.seed, "probe.streaming")
        rows = wl._history(rng, 400 + 200 * 16)
        times = np.array([r[2] for r in rows], dtype=np.float64)
        values = np.array([r[3] for r in rows], dtype=np.float64)
        sizes = np.array([r[0] for r in rows], dtype=np.int64)
        ops = np.zeros(len(rows), dtype=np.int8)
        classification = paper_classification()
        bank = StreamingBank(classification)
        adds = self.micro("StreamingBank.add", (
            (lambda i=i: bank.add(float(times[i]), float(values[i]),
                                  int(sizes[i]), 0))
            for i in range(400)))
        extends = self.micro("StreamingBank.extend", (
            (lambda lo=lo: bank.extend(times[lo:lo + 16], values[lo:lo + 16],
                                       sizes[lo:lo + 16], ops[lo:lo + 16]))
            for lo in range(400, len(rows), 16)))
        predictors = [resolve(spec, classification=classification)
                      for spec in wl.SPECS]
        now = float(times[-1]) + 60.0
        answers = self.micro("StreamingBank.answer", (
            (lambda k=k: bank.answer(predictors[k % len(predictors)],
                                     wl.SIZES[k % len(wl.SIZES)], now))
            for k in range(800)))
        fresh = StreamingBank(classification)
        rebuilds = self.micro("StreamingBank.rebuild", (
            (lambda: fresh.rebuild(times[:400], values[:400], sizes[:400],
                                   ops[:400]))
            for _ in range(20)))
        p = self.probes
        p["core.streaming.add_us"] = _p50_us(adds)
        p["core.streaming.extend_us_per_item"] = _p50_us(extends) / 16
        p["core.streaming.answer_us"] = _p50_us(answers)
        p["core.streaming.rebuild_us_per_record"] = _p50_us(rebuilds) / 400
        p["core.streaming.state_bytes"] = float(len(checkpoint.dumps(fresh.state())))

    def _probe_store(self) -> None:
        import numpy as np

        from repro.core.classification import paper_classification
        from repro.core.streaming import StreamingBank
        from repro.service.server import handle_request
        from repro.service import PredictionService
        from repro.store import LinkStore, wal

        rng = wl._rng(self.seed, "probe.store")
        rows = wl._history(rng, 400)
        times = np.array([r[2] for r in rows], dtype=np.float64)
        values = np.array([r[3] for r in rows], dtype=np.float64)
        sizes = np.array([r[0] for r in rows], dtype=np.int64)
        ops = np.zeros(len(rows), dtype=np.int8)
        root = Path("probe-store")
        p = self.probes
        try:
            store = LinkStore(root / "a")
            appends = self.micro("LinkStore.append_rows", (
                (lambda lo=lo: store.append_rows(
                    "probe", times[lo:lo + 16], values[lo:lo + 16],
                    sizes[lo:lo + 16], ops[lo:lo + 16], sync=False))
                for lo in range(0, 400, 16)))
            p["store.append_rows_us_per_row"] = _p50_us(appends) / 16
            tail = (root / "a" / "links" / "probe" / "tail.wal").read_bytes()
            scans = self.micro("wal.scan", (
                (lambda: wal.scan(tail)) for _ in range(20)))
            p["store.wal_scan_us_per_row"] = _p50_us(scans) / 400
            loads = self.micro("LinkStore.load_columns", (
                (lambda: store.load_columns("probe")) for _ in range(20)))
            p["store.load_columns_us_per_row"] = _p50_us(loads) / 400
            bank = StreamingBank(paper_classification())
            bank.rebuild(times, values, sizes, ops)
            payload = {"meta": {"link": "probe", "version": 400, "n": 400},
                       "bank": bank.state()}
            writes = self.micro("LinkStore.write_checkpoint", (
                (lambda: store.write_checkpoint("probe", payload))
                for _ in range(20)))
            reads = self.micro("LinkStore.read_checkpoint", (
                (lambda: store.read_checkpoint("probe")) for _ in range(20)))
            p["store.checkpoint_write_us"] = _p50_us(writes)
            p["store.checkpoint_read_us"] = _p50_us(reads)
            p["store.checkpoint_bytes"] = float(
                (root / "a" / "links" / "probe" / "checkpoint.bin").stat().st_size)
            seals = []
            for k in range(5):
                link = f"seal{k}"
                store.append_rows(link, times, values, sizes, ops, sync=False)
                seals += self.micro("LinkStore.seal",
                                    [lambda link=link: store.seal(link)])
            p["store.seal_us_per_row"] = _p50_us(seals) / 400
            store.close()

            # The fsync path: an exact count from replaying the first
            # batches of the batched-write input on an fsync store, and
            # the (device-dependent) time of one group commit.
            batched = wl.IngestStream(self.seed, 200 / 2_400, True)
            batched.generate()
            synced = LinkStore(root / "b", fsync=True)
            service = PredictionService(store=synced)
            observed = 0
            for req in batched.requests:
                if req["op"] == "observe_batch":
                    handle_request(service, req)
                    observed += len(req["items"])
            p["store.fsyncs_per_kobs"] = synced.tail_fsyncs * 1e3 / observed
            links = list(batched.histories)[:2]
            commits = []
            for lo in range(0, 20 * 16, 16):
                for link in links:
                    synced.append_rows(link, times[lo:lo + 16], values[lo:lo + 16],
                                       sizes[lo:lo + 16], ops[lo:lo + 16],
                                       sync=False)
                commits += self.micro(
                    "LinkStore.group_commit", [lambda: synced.group_commit(links)])
            p["store.group_commit_us"] = _p50_us(commits)
            synced.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _probe_hashing(self) -> None:
        from repro.fleet.hashing import ShardRing

        ring = ShardRing(2)
        names = [f"F{i:04d}" for i in range(1000)]
        self.probes["fleet.hashing.shard_of_us"] = _p50_us(self.micro(
            "ShardRing.shard_of",
            ((lambda n=n: ring.shard_of(n)) for n in names)))

    def _probe_quality(self) -> None:
        """The predict+observe loop with the accuracy tracker on, against
        off, in ABBA order."""
        from repro.service import PredictionService
        from repro.service.server import handle_request

        source = wl.ColdRevive(self.seed, 1.0, True)
        source.generate()
        requests = source.requests[:3200]
        seed_items = source.seed_items()

        def build(quality: bool) -> PredictionService:
            service = PredictionService(quality=quality)
            handle_request(service, {"op": "observe_batch", "v": 1,
                                     "items": seed_items})
            return service

        on, off = build(True), build(False)
        quarter = len(requests) // 4
        spent = {True: 0, False: 0}
        for k, (service, flag) in enumerate(((on, True), (off, False),
                                             (off, False), (on, True))):
            # Both services see blocks 0..3 in order: A gets 0 and 3, B 1 and 2,
            # after an untimed catch-up so each holds the same history.
            block = requests[k * quarter:(k + 1) * quarter]
            other = off if service is on else on
            t0 = time.perf_counter_ns()
            for req in block:
                handle_request(service, req)
            spent[flag] += time.perf_counter_ns() - t0
            self.span(f"probe.quality[{'on' if flag else 'off'}]", t0,
                      time.perf_counter_ns(), "probe", k)
            for req in block:
                handle_request(other, req)
        self.probes["obs.quality.overhead_ratio"] = spent[True] / spent[False]
