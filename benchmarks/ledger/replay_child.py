"""The ``replay_eval`` workload body, run as a child process.

A child so that its CPU and peak RSS are its own.  The parent paces it
over stdin and reads one JSON object per line from stdout:

1. after one untimed pass over the shipped logs (the warm-up, and the
   workload's "first verified answer") the child prints
   ``{"event": "first", "mape": ...}``;
2. for every ``go`` line it runs the timed work of the next log in
   rotation and prints ``{"event": "log", ...}``, one slice of the round;
3. on ``done`` it prints ``{"event": "done", "hwm_mb": ..., "mape": ...}``
   and exits.

A pass is every shipped log once; per log: ``parse_ulm_text`` -> ``evaluate(frame)`` on the
full 30-predictor battery (auto -> fast engine) -> MAPE table, plus one
``evaluate(frame, ["SIZE"])`` on the generic engine.  An op is one
walk-forward prediction.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path


def one_log(name, text):
    """The timed work on one log; returns its stage timings and tables."""
    from repro.core import evaluate
    from repro.data.ingest import parse_ulm_text

    clock = time.perf_counter_ns
    cpu0 = time.process_time()
    t0 = clock()
    frame = parse_ulm_text(text)
    t1 = clock()
    result = evaluate(frame)
    t2 = clock()
    table = result.mape_table()
    t3 = clock()
    sized = evaluate(frame, ["SIZE"])
    t4 = clock()
    battery_ops = sum(len(t) + t.abstentions for t in result.traces.values())
    generic_ops = sum(len(t) + t.abstentions for t in sized.traces.values())
    return {
        "event": "log", "log": name, "records": len(frame), "t0": t0,
        "parse_ns": t1 - t0, "evaluate_ns": t2 - t1, "mape_ns": t3 - t2,
        "generic_ns": t4 - t3, "wall_ns": t4 - t0,
        "cpu_s": time.process_time() - cpu0,
        "battery_ops": battery_ops, "generic_ops": generic_ops,
        "ops": battery_ops + generic_ops, "mape": table,
    }


def _hwm_mb() -> float:
    with open("/proc/self/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv) -> int:
    texts = {Path(p).stem: Path(p).read_text() for p in argv}
    tables = {name: one_log(name, text)["mape"] for name, text in texts.items()}
    print(json.dumps({"event": "first", "mape": tables}), flush=True)
    rotation = itertools.cycle(texts.items())
    for line in sys.stdin:
        if line.strip() != "go":
            break
        print(json.dumps(one_log(*next(rotation))), flush=True)
    print(json.dumps({"event": "done", "hwm_mb": _hwm_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
