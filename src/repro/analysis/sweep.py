"""Seed sweeps: is the reproduction a lucky draw?

The paper had one testbed and two datasets; a simulator can rerun the
whole evaluation under many independent load/workload draws.  This module
sweeps seeds (and optionally months) and aggregates the quantities behind
the Section 6.2 claims, reporting mean ± spread so the headline numbers
carry error bars.

Built on the vectorized evaluator, a full (seed, month, both links)
evaluation costs well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.workload import AUG_2001, run_month

from repro.analysis.errors import compute_class_errors
from repro.analysis.summary import SummaryClaims, check_summary_claims

__all__ = ["SweepResult", "sweep_claims"]


@dataclass(frozen=True)
class SweepResult:
    """Per-configuration claims plus aggregate statistics."""

    claims: Dict[Tuple[int, str], SummaryClaims]  # (seed, link) -> claims

    def metric(self, extract) -> np.ndarray:
        return np.array([extract(c) for c in self.claims.values()])

    def aggregate(self) -> Dict[str, Tuple[float, float]]:
        """Metric name -> (mean, std) across configurations."""
        extractors = {
            "best MAPE, >=100MB classes (%)": lambda c: c.best_large_class_error,
            "median MAPE, >=100MB classes (%)": lambda c: c.median_large_class_error,
            "worst MAPE, >=100MB classes (%)": lambda c: c.worst_large_class_error,
            "classification gain, large (pp)": lambda c: c.mean_classification_gain_large,
            "classification gain, overall (pp)": lambda c: c.mean_classification_gain,
            "10MB-class mean MAPE (%)": lambda c: list(c.class_mean_errors.values())[0],
            "AR minus simple (pp)": lambda c: c.ar_mean_error - c.simple_mean_error,
        }
        out = {}
        for name, extract in extractors.items():
            values = self.metric(extract)
            out[name] = (float(values.mean()), float(values.std()))
        return out


def sweep_claims(
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    start_epoch: float = AUG_2001,
    days: int = 14,
) -> SweepResult:
    """Run the full evaluation for every seed and collect the claims."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    claims: Dict[Tuple[int, str], SummaryClaims] = {}
    for seed in seeds:
        outputs = run_month(start_epoch=start_epoch, seed=seed, days=days)
        for link, output in outputs.items():
            errors = compute_class_errors(link, output.log.to_frame())
            claims[(seed, link)] = check_summary_claims(errors)
    return SweepResult(claims=claims)
