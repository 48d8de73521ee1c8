"""Walk-forward evaluation of predictors (Section 6).

The paper's protocol: assume a 15-value training prefix exists in the log,
then for every subsequent transfer ask each predictor for an estimate using
only strictly earlier records, and score it with the absolute percentage
error

    ``(|measured - predicted| / measured) * 100``.

:func:`evaluate` runs the walk for a battery of predictors and returns an
:class:`EvaluationResult` holding one :class:`PredictionTrace` per
predictor: aligned arrays of (record index, prediction, actual, size,
time).  Abstentions (``predict`` returning ``None``) are counted but do
not enter error statistics.

All mask-based statistics (per-file-size-class errors for Figures 8–11,
classification-impact comparisons for Figures 12–13) are vectorized over
the trace arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.classification import Classification
from repro.core.history import History
from repro.core.predictors.base import Predictor
from repro.data.frame import TransferFrame
from repro.logs.record import TransferRecord
from repro.obs.metrics import get_registry

#: Cumulative predict() time per predictor over one walk, one labeled
#: child per predictor name (observed once per walk, not per record).
_H_PREDICTOR = get_registry().histogram(
    "evaluate_predictor_seconds",
    "per-predictor cumulative predict() time over one generic walk",
)

__all__ = [
    "percentage_error",
    "resolve_history",
    "EvaluationData",
    "PredictionTrace",
    "EvaluationResult",
    "evaluate",
]

DEFAULT_TRAINING = 15

#: What the evaluators accept as "a log": records, a columnar frame, or
#: a bare observation history.
EvaluationData = Union[Sequence[TransferRecord], TransferFrame, History]


def resolve_history(data: EvaluationData):
    """``(history, anchors)`` for any supported log representation.

    Records and frames anchor each prediction at the transfer's *start*
    time — the moment a replica decision would be made; a bare history
    anchors at observation times (all it has).
    """
    if isinstance(data, History):
        return data, data.times
    if isinstance(data, TransferFrame):
        return data.history(), data.start_times
    records = list(data)
    history = History.from_records(records)
    anchors = np.fromiter(
        (r.start_time for r in records), dtype=np.float64, count=len(records)
    )
    return history, anchors


def percentage_error(measured: float, predicted: float) -> float:
    """The paper's accuracy metric: absolute percentage error."""
    if measured <= 0:
        raise ValueError(f"measured value must be positive, got {measured}")
    return abs(measured - predicted) / measured * 100.0


@dataclass(frozen=True)
class PredictionTrace:
    """All predictions one predictor made during a walk."""

    name: str
    indices: np.ndarray    # log-record index of each prediction
    predicted: np.ndarray  # bytes/s
    actual: np.ndarray     # bytes/s
    sizes: np.ndarray      # bytes
    times: np.ndarray      # prediction times (epoch seconds)
    abstentions: int       # times the predictor returned None

    def __post_init__(self) -> None:
        n = len(self.indices)
        if not all(len(a) == n for a in (self.predicted, self.actual, self.sizes, self.times)):
            raise ValueError("trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def pct_errors(self) -> np.ndarray:
        """Absolute percentage error of each prediction."""
        return np.abs(self.actual - self.predicted) / self.actual * 100.0

    def class_mask(self, classification: Classification, label: str) -> np.ndarray:
        """Boolean mask of predictions whose target size is in the class."""
        lo, hi = classification.bounds(label)
        return (self.sizes >= lo) & (self.sizes < hi)

    def mean_abs_pct_error(self, mask: Optional[np.ndarray] = None) -> float:
        """Mean absolute percentage error, optionally over a mask.

        Returns NaN when no predictions match — a class can be empty early
        in a log, and the caller must see that rather than a silent zero.
        """
        errors = self.pct_errors
        if mask is not None:
            errors = errors[mask]
        if len(errors) == 0:
            return float("nan")
        return float(errors.mean())


@dataclass(frozen=True)
class EvaluationResult:
    """Traces of every predictor over one log walk."""

    traces: Dict[str, PredictionTrace]
    training: int
    n_records: int

    def names(self) -> List[str]:
        return list(self.traces)

    def __getitem__(self, name: str) -> PredictionTrace:
        return self.traces[name]

    def mape_table(
        self,
        classification: Optional[Classification] = None,
        label: Optional[str] = None,
    ) -> Dict[str, float]:
        """Predictor -> MAPE, optionally restricted to one size class."""
        out: Dict[str, float] = {}
        for name, trace in self.traces.items():
            mask = None
            if classification is not None and label is not None:
                mask = trace.class_mask(classification, label)
            out[name] = trace.mean_abs_pct_error(mask)
        return out

    def errors_by_class(
        self, classification: Classification
    ) -> Dict[str, Dict[str, float]]:
        """Class label -> (predictor -> MAPE); the data behind Figures 8–11."""
        return {
            label: self.mape_table(classification, label)
            for label in classification.labels
        }


def evaluate(
    data: EvaluationData,
    predictors: Mapping[str, Predictor],
    training: int = DEFAULT_TRAINING,
) -> EvaluationResult:
    """Walk each predictor forward over a log.

    Parameters
    ----------
    data:
        Transfer records or a :class:`~repro.data.frame.TransferFrame`
        (predictions are anchored at each record's *start* time — the
        moment a replica decision would be made), or a bare
        :class:`History` (anchored at observation times).
    predictors:
        Name -> predictor mapping; names key the result traces.
    training:
        Number of leading records assumed present before the first
        prediction (the paper uses 15 — over the *whole* log, not per
        class).
    """
    if training < 1:
        raise ValueError(f"training must be >= 1, got {training}")
    if not predictors:
        raise ValueError("no predictors supplied")

    history, anchors = resolve_history(data)

    n = len(history)
    collected: Dict[str, Dict[str, list]] = {
        name: {"i": [], "p": [], "a": [], "s": [], "t": []} for name in predictors
    }
    abstentions = {name: 0 for name in predictors}

    spent = {name: 0.0 for name in predictors}

    for i in range(training, n):
        prefix = history.prefix(i)
        actual = float(history.values[i])
        size = int(history.sizes[i])
        now = float(anchors[i])
        for name, predictor in predictors.items():
            t0 = time.perf_counter()
            predicted = predictor.predict(prefix, target_size=size, now=now)
            spent[name] += time.perf_counter() - t0
            if predicted is None:
                abstentions[name] += 1
                continue
            bucket = collected[name]
            bucket["i"].append(i)
            bucket["p"].append(predicted)
            bucket["a"].append(actual)
            bucket["s"].append(size)
            bucket["t"].append(now)

    if n > training:
        for name, seconds in spent.items():
            _H_PREDICTOR.labels(predictor=name).observe(seconds)

    traces = {
        name: PredictionTrace(
            name=name,
            indices=np.asarray(bucket["i"], dtype=np.int64),
            predicted=np.asarray(bucket["p"], dtype=np.float64),
            actual=np.asarray(bucket["a"], dtype=np.float64),
            sizes=np.asarray(bucket["s"], dtype=np.int64),
            times=np.asarray(bucket["t"], dtype=np.float64),
            abstentions=abstentions[name],
        )
        for name, bucket in collected.items()
    }
    return EvaluationResult(traces=traces, training=training, n_records=n)
