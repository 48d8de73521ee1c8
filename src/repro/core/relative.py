"""Relative performance of predictors (Figures 14–21).

For every predicted transfer, determine which predictor came closest to the
measured bandwidth (the *best*) and which was farthest (the *worst*), then
report per-predictor percentages.  The paper's headline observation —
"predictors that had high best percentage also performed poorly more
often" — is checked by the corresponding benchmark.

A predictor that abstained on a transfer does not compete on it; a
transfer enters the tally only when at least two predictors competed.
Ties go to the earlier predictor in battery order (deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.classification import Classification
from repro.core.evaluation import EvaluationResult

__all__ = ["RelativePerformance", "relative_performance"]


@dataclass(frozen=True)
class RelativePerformance:
    """Best/worst tallies over a set of compared transfers."""

    best_counts: Dict[str, int]
    worst_counts: Dict[str, int]
    compared: int  # number of transfers with >= 2 competitors

    def best_pct(self, name: str) -> float:
        """Percent of compared transfers where ``name`` was the most accurate."""
        if self.compared == 0:
            return float("nan")
        return 100.0 * self.best_counts.get(name, 0) / self.compared

    def worst_pct(self, name: str) -> float:
        """Percent of compared transfers where ``name`` was the least accurate."""
        if self.compared == 0:
            return float("nan")
        return 100.0 * self.worst_counts.get(name, 0) / self.compared


def relative_performance(
    result: EvaluationResult,
    classification: Optional[Classification] = None,
    label: Optional[str] = None,
) -> RelativePerformance:
    """Tally best/worst per predictor, optionally within one size class."""
    names: List[str] = result.names()

    # Align traces on log-record index: index -> {name: pct_error}.
    per_index: Dict[int, Dict[str, float]] = {}
    for name in names:
        trace = result[name]
        mask = np.ones(len(trace), dtype=bool)
        if classification is not None and label is not None:
            mask = trace.class_mask(classification, label)
        errors = trace.pct_errors
        for idx, err, keep in zip(trace.indices, errors, mask):
            if keep:
                per_index.setdefault(int(idx), {})[name] = float(err)

    best_counts = {name: 0 for name in names}
    worst_counts = {name: 0 for name in names}
    compared = 0
    for idx in sorted(per_index):
        competitors = per_index[idx]
        if len(competitors) < 2:
            continue
        compared += 1
        # Deterministic tie-break: battery order.
        ordered = [(name, competitors[name]) for name in names if name in competitors]
        best_name = min(ordered, key=lambda item: item[1])[0]
        worst_name = max(ordered, key=lambda item: item[1])[0]
        best_counts[best_name] += 1
        worst_counts[worst_name] += 1

    return RelativePerformance(
        best_counts=best_counts, worst_counts=worst_counts, compared=compared
    )
