"""Compare two sets of ledger results: A/A, or parent against change.

    python benchmarks/ledger/compare.py DIR_A DIR_B

Each directory holds result JSONs written by ``run.py --out`` (one per
run).  For every (workload, end-to-end metric) the table gives each
side's median and quartiles, the relative difference of the medians
(positive = B is worse), the metric's bound, and a verdict:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is, and the runs resolve it;
* ``unresolved``  the spread between one side's own runs (the wider of
                  the two) is wider than the bound and the two sides'
                  runs overlap, so the bound cannot be judged either
                  way from these runs;
* ``missing``     one side reports the (workload, metric) and the other
                  does not, e.g. a p99 that fell under the 1,000-sample
                  rule: a change may not lose a metric.

Exit status is 1 if any row is ``worse`` or ``missing``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END  # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]


def load(directory: str) -> Samples:
    samples: Samples = {}
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        raise SystemExit(f"compare.py: no result JSONs in {directory}")
    for path in files:
        document = json.loads(path.read_text())
        for workload, result in document["workloads"].items():
            for metric, entry in result["metrics"].items():
                samples.setdefault((workload, metric), []).append(entry["value"])
    return samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[float, str]:
    """``(relative worsening of B's median, verdict)``."""
    a_q1, med_a, a_q3 = quartiles(a)
    b_q1, med_b, b_q3 = quartiles(b)
    if med_a == 0:
        return 0.0, "ok" if med_b == 0 else "worse"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a)
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(med_a)
    overlap = min(b) <= max(a) and max(b) >= min(a)
    if spread > bound and overlap:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    side_a, side_b = load(argv[0]), load(argv[1])
    print(f"{'workload':<14} {'metric':<19} {'A q1':>11} {'A med':>11} "
          f"{'A q3':>11} {'B q1':>11} {'B med':>11} {'B q3':>11} "
          f"{'diff':>8} {'bound':>6}  verdict")
    worse = missing = 0
    for key in sorted(set(side_a) | set(side_b)):
        workload, metric = key
        _, better, bound = END_TO_END[metric]
        if key not in side_a or key not in side_b:
            missing += 1
            print(f"{workload:<14} {metric:<19} only in "
                  f"{'A' if key in side_a else 'B'}".ljust(117) + "missing")
            continue
        a, b = side_a[key], side_b[key]
        diff, word = verdict(a, b, better, bound)
        worse += word == "worse"
        qa, qb = quartiles(a), quartiles(b)
        print(f"{workload:<14} {metric:<19} "
              + " ".join(f"{v:>11.6g}" for v in (*qa, *qb))
              + f" {diff:>+8.2%} {bound:>6.3f}  {word}")
    print(f"{len(side_a[next(iter(side_a))])} runs in A, "
          f"{len(side_b[next(iter(side_b))])} in B; {worse} worse, "
          f"{missing} missing")
    return 1 if worse or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
