"""The perf ledger: one command, five workloads, interleaved rounds.

    python benchmarks/ledger/run.py --seed 1             # the whole ledger
    python benchmarks/ledger/run.py --seed 1 --trace     # + per-layer pass
    python benchmarks/ledger/run.py --smoke              # 1/20 size
    python benchmarks/ledger/run.py --workload predict_hot --seed 7 \\
        --seconds 4 --trace 0                            # one workload

Every workload is measured in five rounds, interleaved across the
selected workloads (A1 B1 C1 ... A2 B2 ...), each round on a fresh
server over a byte-identical copy of the prepared input; every
end-to-end metric is the median of its per-round values, as the clocks
read them, and every count must repeat exactly across the rounds.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

#: Five, not the minimum of three: a server process keeps one speed for
#: its whole life and the next one may run 25 % slower (README, "Sizing
#: measurements"), so the median needs more processes, not longer ones.
ROUNDS = 5
SMOKE_ROUNDS = 3
DEFAULT_SECONDS = 15.0
SMOKE_SCALE = 1.0 / 20.0

#: name -> (unit, better, bound).  The bound is the relative worsening
#: that counts as a regression; compare.py applies it.  None exceeds 0.10.
END_TO_END = {
    "setup_s": ("s", "lower", 0.10),
    "ops_per_s": ("1/s", "higher", 0.08),
    "read_p50_us": ("us", "lower", 0.08),
    "read_p99_us": ("us", "lower", 0.10),
    "write_p50_us": ("us", "lower", 0.08),
    "write_p99_us": ("us", "lower", 0.10),
    "cpu_ms_per_kop": ("ms", "lower", 0.08),
    "rss_mb": ("MB", "lower", 0.05),
    # Not 0.001: the same code stores 0.16 % more or fewer bytes per
    # observation from one seed to the next (fleet_mixed).
    "disk_bytes_per_obs": ("B", "lower", 0.01),
    "recover_s": ("s", "lower", 0.10),
    "mape_pct": ("%", "lower", 0.001),
    "ok_ratio": ("ratio", "higher", 0.0),
}

#: Where BENCHMARK.json's bound is not the ledger's own.
CONTRACT_BOUNDS = {
    # compare.py is fed alternating pairs, so a slow spell of the box
    # lands on both sides.  The driver takes two sets of ten invocations
    # one after the other, and this box's spells outlast a set: between
    # two such sets of unchanged code the median setup_s moved 18.9 %
    # (ingest_stream) and 8.8 % (cold_revive), whichever of the five
    # set-ups per invocation is reported.  The contract wants setup_s
    # among the bounded metrics, so it cannot be demoted like the other
    # timings; it gets the bound the contract allows its noisiest metric.
    "setup_s": 0.25,
    # The contract's bound is a positive share.  Any miss also fails the
    # run through ``correct`` and ``failed``.
    "ok_ratio": 0.001,
}

#: The driver's contract wants every metric BENCHMARK.json lists from
#: every workload.  On the contract's last line only, an end-to-end
#: metric that does not apply to the workload reads this, and a
#: per-layer metric off the workload's path reads 0.  The ledger's own
#: table and result JSON omit both.
NOT_APPLICABLE = 1.0


def _warm_imports() -> None:
    """A throwaway child, so no workload pays cold page-cache imports."""
    subprocess.run(
        [sys.executable, "-c",
         "import numpy, repro.cli, repro.service, repro.store, repro.fleet, "
         "repro.fleet.worker, repro.core, repro.data.ingest"],
        env=harness.child_env(), check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )


def _aggregate(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over the rounds, and the checks that fail a run."""
    problems: List[str] = []
    counts = rounds[0]["counts"]
    for index, result in enumerate(rounds[1:], 2):
        if result["counts"] != counts:
            diff = {key: (counts.get(key), result["counts"].get(key))
                    for key in set(counts) | set(result["counts"])
                    if counts.get(key) != result["counts"].get(key)}
            problems.append(f"round {index} counts differ from round 1: {diff}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for result in rounds:
        problems.extend(result["failures"])
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric, (unit, _, _) in END_TO_END.items():
        values = [r["metrics"].get(metric) for r in rounds]
        if any(value is None for value in values):
            continue  # does not apply to this workload: omitted, never zero
        metrics[metric] = {"value": harness.median(values), "unit": unit,
                           "rounds": values}
    metrics["ok_ratio"] = {"value": (attempted - failed) / attempted,
                           "unit": "ratio", "rounds": [
                               (r["attempted"] - r["failed"]) / r["attempted"]
                               for r in rounds]}
    rates = metrics["ops_per_s"]["rounds"]
    return {
        "metrics": metrics, "counts": counts, "attempted": attempted,
        "failed": failed, "problems": problems,
        "probe_ms": [r["probe_ms"] for r in rounds],
        "cpus": rounds[0]["cpus"],
        "round_spread": max(rates) / min(rates),
        "round_seconds": [r["seconds"] for r in rounds],
    }


def _flag_slow_rounds(results: Dict[str, Dict[str, Any]]) -> None:
    """Mark rounds whose machine probe is > 10 % off the session's best."""
    best = min(p for r in results.values() for p in r["probe_ms"])
    for result in results.values():
        result["flagged_rounds"] = [
            index for index, probe in enumerate(result["probe_ms"], 1)
            if probe > 1.10 * best]


def _print_table(results: Dict[str, Dict[str, Any]],
                 per_layer: Optional[Dict[str, Dict[str, Any]]]) -> None:
    for name, result in results.items():
        print(f"== {name}")
        for metric, entry in result["metrics"].items():
            rounds = " ".join(f"{v:.6g}" for v in entry["rounds"])
            print(f"  {metric:<20} {entry['value']:>14.6g} {entry['unit']:<6}"
                  f" rounds: {rounds}")
        probes = " ".join(f"{p:.2f}" for p in result["probe_ms"])
        flagged = (f"  slow rounds: {result['flagged_rounds']}"
                   if result["flagged_rounds"] else "")
        print(f"  harness.machine_probe_ms rounds: {probes}{flagged}")
        for problem in result["problems"]:
            print(f"  PROBLEM: {problem}")
        if per_layer is not None:
            for metric, entry in per_layer[name].items():
                print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")


def _contract_line(spec: Dict[str, Any], result: Dict[str, Any],
                   layer: Optional[Dict[str, Dict[str, Any]]],
                   correct: bool) -> str:
    """The one JSON object the driver reads: every listed metric, by name."""
    if layer is None:
        source, absent = result["metrics"], NOT_APPLICABLE
        wanted = spec["end_to_end"]
    else:
        source, absent = layer, 0.0
        wanted = spec["per_layer"]
    return json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": source.get(m["name"], {}).get(
                                    "value", absent),
                                "unit": m["unit"]} for m in wanted},
    })


def main(argv: Optional[List[str]] = None) -> int:
    import workloads as wl

    names = [cls.name for cls in wl.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=names, default=None,
                        help="measure one workload (default: all five, "
                             "rounds interleaved)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload over its five "
                             "rounds on the reference box; op counts scale "
                             f"with it (full size is {wl.FULL_SECONDS:g})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add one traced round per workload and the "
                             "layer probes; writes trace.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, small inputs, "
                             "three rounds")
    parser.add_argument("--out", default=None,
                        help="write the full result JSON here")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro").is_dir() or not harness.DATA.is_dir():
        print(f"run.py: no program to measure: {harness.SRC}/repro and "
              f"{harness.DATA} must exist", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(harness.SRC))

    scale = SMOKE_SCALE if args.smoke else args.seconds / wl.FULL_SECONDS
    selected = [cls(args.seed, scale, args.smoke) for cls in wl.WORKLOADS
                if args.workload in (None, cls.name)]
    out = Path(args.out).resolve() if args.out else None
    t_begin = time.perf_counter()

    with harness.Session() as session:
        _warm_imports()
        for workload in selected:
            workload.prepare(session)
        rounds: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in selected}
        for index in range(1, (SMOKE_ROUNDS if args.smoke else ROUNDS) + 1):
            for workload in selected:
                rounds[workload.name].append(
                    workload.run_round(session, f"r{index}"))
        results = {name: _aggregate(rs) for name, rs in rounds.items()}
        _flag_slow_rounds(results)

        per_layer = None
        if args.trace:
            import layers

            tracer = layers.Tracer(args.seed)
            for workload in selected:
                traced = workload.run_round(session, "traced", tracer)
                tracer.finish_workload(workload, traced, results[workload.name])
            tracer.run_probes([w.name for w in selected])
            per_layer = {w.name: tracer.per_layer(w.name) for w in selected}
            tracer.check_coverage()
            tracer.write(harness.OUT_DIR / "trace.jsonl")
            for result in results.values():
                result["problems"].extend(tracer.problems)

    _print_table(results, per_layer)
    correct = all(not r["problems"] and r["failed"] == 0
                  for r in results.values())
    document = {
        "fingerprint": harness.fingerprint(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "correct": correct,
        "wall_s": time.perf_counter() - t_begin,
        "workloads": results, "per_layer": per_layer,
        "harness": {w.name: {"gen_s": w.gen_s, "seed_s": w.seed_s}
                    for w in selected},
    }
    if out is not None:
        out.write_text(json.dumps(document, indent=1))
    print(f"ledger: {'ok' if correct else 'FAILED'} in "
          f"{document['wall_s']:.1f}s")

    if args.workload is not None:
        spec = json.loads((harness.REPO / "BENCHMARK.json").read_text())
        print(_contract_line(spec, results[args.workload],
                             per_layer[args.workload] if args.trace else None,
                             correct))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
