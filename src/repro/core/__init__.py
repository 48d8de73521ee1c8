"""The paper's primary contribution: GridFTP throughput prediction.

Layout:

* :mod:`repro.core.classification` — file-size classes (Section 4.3): the
  context-sensitive filter, default bins 0–50 MB, 50–250 MB, 250–750 MB,
  >750 MB labelled by their representative sizes 10 MB/100 MB/500 MB/1 GB.
* :mod:`repro.core.history` — the observation history predictors consume:
  parallel NumPy arrays of (time, bandwidth, size) with window/class views.
* :mod:`repro.core.predictors` — the predictor battery of Figure 4
  (means, medians, last value, temporal windows, AR models), the
  classified wrappers, and the extensions (dynamic selection, NWS hybrid).
* :mod:`repro.core.evaluation` — walk-forward evaluation with a training
  prefix and percentage-error accounting (Section 6.2).
* :mod:`repro.core.engine` — the :func:`evaluate` facade that routes a
  request to the generic walk or the vectorized kernels of
  :mod:`repro.core.fast`.
* :mod:`repro.core.relative` — best/worst relative-performance tallies
  (Figures 14–21).
* :mod:`repro.core.selection` — the replica-selection broker that the
  predictions exist to serve (Section 1).
* :mod:`repro.core.streaming` — incremental sufficient statistics that
  answer the battery in O(1)/O(log n) per query for the live serving
  path (no history walk).
"""

from repro._lazy import lazy_exports

# Resolved on first access: the serving path reads the streaming bank and
# never loads the evaluation engines; a replay never loads the broker.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.classification": ("Classification", "paper_classification"),
    "repro.core.history": ("History", "Observation"),
    "repro.core.evaluation": ("EvaluationResult", "PredictionTrace"),
    "repro.core.engine": (
        "evaluate",
        "evaluate_dataset",
        "select_engine",
    ),
    "repro.core.relative": ("RelativePerformance", "relative_performance"),
    "repro.core.selection": ("RankedReplica", "ReplicaBroker"),
    "repro.core.accuracy": (
        "RiskAdjustedRanking",
        "RiskAssessedReplica",
        "backtest_error",
    ),
    "repro.core.fast": ("fast_evaluate",),
    "repro.core.streaming": ("StreamingBank", "StreamingUnavailable"),
})
