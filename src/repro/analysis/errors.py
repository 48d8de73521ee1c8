"""Figures 8–11: per-class percent error of the predictor battery.

For one link, one walk-forward evaluation produces — per file-size class —
the mean absolute percentage error of each of the 15 predictors, in both
the classified and unclassified modes.  Figures 8/9/10/11 correspond to
the 10 MB / 100 MB / 500 MB / 1 GB classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.classification import Classification, paper_classification
from repro.core.engine import evaluate, evaluate_dataset
from repro.core.evaluation import EvaluationData, EvaluationResult
from repro.core.predictors.registry import PAPER_PREDICTOR_NAMES

from repro.analysis.report import render_table

__all__ = [
    "ClassErrors",
    "compute_class_errors",
    "compute_class_errors_dataset",
    "render_class_errors",
]


@dataclass(frozen=True)
class ClassErrors:
    """MAPE by (class label, predictor, mode) for one link."""

    link: str
    classified: Dict[str, Dict[str, float]]    # label -> predictor -> MAPE
    unclassified: Dict[str, Dict[str, float]]  # same, context-insensitive mode
    result: EvaluationResult

    def worst(self, label: str) -> float:
        """Worst classified predictor MAPE within a class (NaN entries
        ignored)."""
        finite = [v for v in self.classified[label].values() if v == v]
        return max(finite) if finite else float("nan")

    def best(self, label: str) -> float:
        finite = [v for v in self.classified[label].values() if v == v]
        return min(finite) if finite else float("nan")


def _bucket(link: str, result: EvaluationResult, cls: Classification) -> ClassErrors:
    classified: Dict[str, Dict[str, float]] = {}
    unclassified: Dict[str, Dict[str, float]] = {}
    for label in cls.labels:
        table = result.mape_table(cls, label)
        classified[label] = {n: table[f"C-{n}"] for n in PAPER_PREDICTOR_NAMES}
        unclassified[label] = {n: table[n] for n in PAPER_PREDICTOR_NAMES}
    return ClassErrors(
        link=link, classified=classified, unclassified=unclassified, result=result
    )


def compute_class_errors(
    link: str,
    records: EvaluationData,
    classification: Optional[Classification] = None,
    training: int = 15,
) -> ClassErrors:
    """Run the 30-predictor evaluation and bucket errors by size class.

    ``records`` is anything the evaluators accept — a record sequence or
    a columnar :class:`~repro.data.frame.TransferFrame`.  Goes through the
    :func:`repro.core.engine.evaluate` facade, which routes the full
    battery to the vectorized engine (proved trace-identical to the
    generic walk by the parity tests).
    """
    cls = classification or paper_classification()
    result = evaluate(records, training=training, classification=cls)
    return _bucket(link, result, cls)


def compute_class_errors_dataset(
    dataset: Mapping[str, EvaluationData],
) -> Dict[str, ClassErrors]:
    """Class-error tables for every link of a dataset.

    One :func:`repro.core.engine.evaluate_dataset` call walks all links;
    each link's table is identical to a standalone
    :func:`compute_class_errors` run.
    """
    cls = paper_classification()
    results = evaluate_dataset(dataset, classification=cls)
    return {link: _bucket(link, result, cls) for link, result in results.items()}


def render_class_errors(errors: ClassErrors, label: str) -> str:
    """One figure's table: predictors x {classified, unclassified} MAPE."""
    rows: List[List[object]] = []
    for name in PAPER_PREDICTOR_NAMES:
        rows.append(
            [
                name,
                errors.classified[label][name],
                errors.unclassified[label][name],
            ]
        )
    figure = {"10MB": 8, "100MB": 9, "500MB": 10, "1GB": 11}.get(label)
    head = f"Figure {figure} analogue" if figure else "Class errors"
    return render_table(
        ["predictor", "classified %err", "unclassified %err"],
        rows,
        title=f"{head} — {errors.link}, {label} range",
    )
