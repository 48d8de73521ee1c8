"""One evaluation facade over the generic and vectorized engines.

The repo has two walk-forward evaluators: the generic
:func:`repro.core.evaluation.evaluate` (any predictor, one Python call
per record) and the vectorized :func:`repro.core.fast.fast_evaluate`
(the fixed 30-predictor battery, NumPy kernels, typically >10x faster —
trace-identical by the parity tests).

:func:`evaluate` here is the single entry point: it accepts predictor
*specs* (strings understood by :func:`repro.core.predictors.resolve`) or
a prebuilt name -> predictor mapping, and :func:`select_engine` picks
the engine from the request alone: the vectorized path when every
requested predictor is spec-addressed and has a kernel (one of the 30
battery names with default parameters), the generic walk otherwise.  A
prebuilt mapping always takes the generic path: arbitrary predictor
instances cannot be proven kernel-equivalent, and a battery with
class-miss fallback is one such mapping
(``resolve_battery(specs, fallback=True)``).  There is no
switch to force one; a caller that wants an engine by name (the parity
suite, ``tests/integration/test_fast_evaluate_parity.py``) calls
``fast_evaluate`` or the generic ``evaluate`` directly.

The CLI, the analysis layer, and the benchmarks all call this facade.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.core.classification import Classification
from repro.core.evaluation import DEFAULT_TRAINING, EvaluationData, EvaluationResult
from repro.core.evaluation import evaluate as generic_evaluate
from repro.core.fast import fast_evaluate
from repro.core.predictors.base import Predictor
from repro.core.predictors.registry import (
    ALL_PREDICTOR_NAMES,
    KERNEL_SPECS,
    resolve_battery,
)
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as _span

__all__ = ["evaluate", "evaluate_dataset", "select_engine"]

# Process-wide evaluation instrumentation (see docs/observability.md).
_REG = get_registry()
_H_EVALUATE = _REG.histogram(
    "evaluate_seconds", "one evaluate() walk, labeled by engine")
_H_LINK = _REG.histogram(
    "evaluate_link_seconds", "per-link walk latency inside evaluate_dataset")
_M_LINKS = _REG.counter(
    "evaluate_links", "links walked by evaluate_dataset")

PredictorRequest = Union[None, str, Sequence[str], Mapping[str, Predictor]]


def _as_specs(predictors: PredictorRequest) -> Optional[Sequence[str]]:
    """Normalize the request to a spec list, or ``None`` for a mapping."""
    if predictors is None:
        return list(ALL_PREDICTOR_NAMES)
    if isinstance(predictors, str):
        return [s.strip() for s in predictors.split(",") if s.strip()]
    if isinstance(predictors, Mapping):
        return None
    return [str(s).strip() for s in predictors]


def select_engine(predictors: PredictorRequest = None) -> str:
    """The engine :func:`evaluate` runs for this request: ``"fast"`` when
    every spec has a kernel, ``"generic"`` otherwise."""
    specs = _as_specs(predictors)  # None for a mapping, maybe empty
    if specs and all(spec in KERNEL_SPECS for spec in specs):
        return "fast"
    return "generic"


def evaluate(
    data: EvaluationData,
    predictors: PredictorRequest = None,
    training: int = DEFAULT_TRAINING,
    classification: Optional[Classification] = None,
) -> EvaluationResult:
    """Walk predictors forward over a log, picking the best engine.

    Parameters
    ----------
    data:
        Transfer records, a :class:`~repro.data.frame.TransferFrame`, or
        a bare :class:`History` (same semantics as the generic
        evaluator).
    predictors:
        What to evaluate — one of:

        * ``None``: the full 30-predictor Figure 4 battery;
        * a comma-joined spec string (``"C-AVG15,AVG,SIZE"``);
        * a sequence of spec strings;
        * a prebuilt name -> :class:`Predictor` mapping (generic engine).
    training:
        Leading records assumed present before the first prediction.
    classification:
        Size classes for ``C-`` specs (both engines honor it).
    """
    chosen = select_engine(predictors)
    specs = _as_specs(predictors)
    t0 = time.perf_counter()

    with _span("evaluate", engine=chosen) as sp:
        if chosen == "fast":
            assert specs is not None
            classified = any(spec.startswith("C-") for spec in specs)
            full = fast_evaluate(
                data,
                training=training,
                classification=classification,
                classified=classified,
            )
            traces = {spec: full[spec] for spec in dict.fromkeys(specs)}
            result = EvaluationResult(
                traces=traces, training=full.training, n_records=full.n_records
            )
        else:
            if specs is None:
                battery = dict(predictors)  # type: ignore[arg-type]
            else:
                battery = resolve_battery(specs, classification=classification)
            result = generic_evaluate(data, battery, training=training)
        elapsed = time.perf_counter() - t0
        # Parent series totals across engines; children split per engine.
        _H_EVALUATE.observe(elapsed)
        _H_EVALUATE.labels(engine=chosen).observe(elapsed)
        sp.set_attribute("n_records", result.n_records)
    return result


def evaluate_dataset(
    dataset: Mapping[str, EvaluationData],
    predictors: PredictorRequest = None,
    training: int = DEFAULT_TRAINING,
    classification: Optional[Classification] = None,
) -> Dict[str, EvaluationResult]:
    """Walk the predictor battery over every link of a dataset.

    Accepts any link -> data mapping — most usefully a
    :class:`repro.data.dataset.Dataset` of columnar frames — and runs
    :func:`evaluate` per link, one after the other (on links of the
    paper's size a thread pool costs more than it overlaps).  Results
    keep the dataset's link order; per-link results are those of
    standalone :func:`evaluate` calls.
    """
    results: Dict[str, EvaluationResult] = {}
    for link in dataset:
        started = time.perf_counter()
        with _span("evaluate.link", link=link):
            results[link] = evaluate(
                dataset[link],
                predictors,
                training=training,
                classification=classification,
            )
        _M_LINKS.inc()
        _H_LINK.observe(time.perf_counter() - started)
    return results
