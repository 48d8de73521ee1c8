"""Figures 14–21: relative performance (best/worst %) per predictor.

One figure per (link, file-size class): for each classified predictor, the
percentage of transfers on which it was the most / least accurate of the
battery.  The paper's observation — predictors with a high "best"
percentage also tend to have a high "worst" percentage (aggressive
predictors win big and lose big), with median-based ones more variable —
is what the corresponding benchmark checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.classification import paper_classification
from repro.core.evaluation import EvaluationResult
from repro.core.relative import RelativePerformance, relative_performance

from repro.analysis.report import render_table

__all__ = ["RelativeTable", "compute_relative_table", "render_relative_table"]

#: Figure numbers in the paper: (link, class) -> figure.
FIGURE_NUMBERS = {
    ("ISI-ANL", "10MB"): 14,
    ("ISI-ANL", "100MB"): 15,
    ("ISI-ANL", "500MB"): 16,
    ("ISI-ANL", "1GB"): 17,
    ("LBL-ANL", "10MB"): 18,
    ("LBL-ANL", "100MB"): 19,
    ("LBL-ANL", "500MB"): 20,
    ("LBL-ANL", "1GB"): 21,
}


@dataclass(frozen=True)
class RelativeTable:
    """Best/worst percentages per class for one link."""

    link: str
    per_class: Dict[str, RelativePerformance]
    predictor_names: tuple

    def best_pct(self, label: str, name: str) -> float:
        return self.per_class[label].best_pct(name)

    def worst_pct(self, label: str, name: str) -> float:
        return self.per_class[label].worst_pct(name)


def compute_relative_table(
    link: str,
    result: EvaluationResult,
    predictor_names: Optional[tuple] = None,
) -> RelativeTable:
    """Tally best/worst per class from an evaluation.

    ``predictor_names`` restricts the competition (the paper's figures
    compare the 15 classified predictors among themselves); defaults to
    every trace in the result.
    """
    cls = paper_classification()
    names = predictor_names or tuple(result.names())
    restricted = EvaluationResult(
        traces={n: result[n] for n in names},
        training=result.training,
        n_records=result.n_records,
    )
    per_class = {
        label: relative_performance(restricted, cls, label) for label in cls.labels
    }
    return RelativeTable(link=link, per_class=per_class, predictor_names=tuple(names))


def render_relative_table(table: RelativeTable, label: str) -> str:
    figure = FIGURE_NUMBERS.get((table.link, label))
    head = f"Figure {figure} analogue" if figure else "Relative performance"
    perf = table.per_class[label]
    rows: List[List[object]] = []
    for name in table.predictor_names:
        rows.append([name, perf.best_pct(name), perf.worst_pct(name)])
    out = render_table(
        ["predictor", "best %", "worst %"],
        rows,
        title=f"{head} — {table.link}, {label} range ({perf.compared} transfers)",
    )
    return out
