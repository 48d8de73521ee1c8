"""Vectorized walk-forward evaluation.

The generic evaluator (:func:`repro.core.evaluation.evaluate`) calls each
predictor once per record — clear, general, and fast enough for one log.
Parameter sweeps (seeds × months × partitions) want more: this module
computes the *entire* prediction trace of each Figure 4 predictor with
NumPy array operations, one O(n)–O(n·w) pass per predictor instead of n
Python calls:

* ``AVG`` — prefix sums;
* ``LV`` — a shift;
* ``AVG{n}`` — differences of prefix sums;
* ``MED{n}`` — a strided sliding-window view, one
  :func:`repro.logs.stats.median` a row;
* ``MED`` — an insertion-sorted running list (O(n·k) C-speed memmoves);
* ``AVG{h}hr`` — prefix sums with window starts from ``searchsorted``;
* ``AR``/``AR{d}d`` — closed-form least squares over lag pairs from five
  prefix-sum arrays, window starts from ``searchsorted``, the floor's
  window minimum from a sparse table.

Classified variants run the same kernels on each class's subseries and
scatter the results back to global indices.

Semantics match the generic path exactly — the parity tests assert
bitwise-close equality for every predictor on real campaign logs, and
``tests/integration/test_trace_digests.py`` pins every trace on the
shipped logs bit for bit.  The ledger's ``replay_eval`` measures the
cost (``core.fast.evaluate_us_per_kpred``).
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional

import numpy as np

from repro.core.classification import Classification, paper_classification
from repro.core.evaluation import (
    EvaluationData,
    EvaluationResult,
    PredictionTrace,
    resolve_history,
)
from repro.core.predictors.registry import PAPER_PREDICTOR_NAMES
from repro.logs.stats import median
from repro.units import DAY, HOUR

__all__ = ["fast_evaluate"]


# ----------------------------------------------------------------------
# kernels: given values v[0..n), produce prediction[i] from v[0..i)
# ----------------------------------------------------------------------
def _running_mean(values: np.ndarray) -> np.ndarray:
    """prediction[i] = mean(v[:i]); prediction[0] is NaN."""
    n = len(values)
    out = np.full(n, np.nan)
    if n > 1:
        csum = np.cumsum(values)
        out[1:] = csum[:-1] / np.arange(1, n)
    return out


def _last_value(values: np.ndarray) -> np.ndarray:
    n = len(values)
    out = np.full(n, np.nan)
    if n > 1:
        out[1:] = values[:-1]
    return out


def _windowed_mean(values: np.ndarray, window: int) -> np.ndarray:
    """prediction[i] = mean(v[max(0, i-window):i])."""
    n = len(values)
    out = np.full(n, np.nan)
    if n <= 1:
        return out
    csum = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(1, n)
    lo = np.maximum(0, idx - window)
    out[1:] = (csum[idx] - csum[lo]) / (idx - lo)
    return out


def _windowed_median(values: np.ndarray, window: int) -> np.ndarray:
    """prediction[i] = median(v[max(0, i-window):i])."""
    n = len(values)
    out = np.full(n, np.nan)
    # Short prefixes (< window) one by one; full windows vectorized.
    for i in range(1, min(window, n)):
        out[i] = median(values[:i])
    if n > window:
        windows = np.lib.stride_tricks.sliding_window_view(values, window)
        # windows[j] = v[j : j+window] predicts index j+window.
        out[window:] = median(windows[: n - window])
    return out


def _running_median(values: np.ndarray) -> np.ndarray:
    """prediction[i] = median(v[:i]) via an insertion-sorted list."""
    n = len(values)
    out = np.full(n, np.nan)
    ordered: list = []
    for i in range(n):
        k = len(ordered)
        if k:
            mid = k // 2
            if k % 2:
                out[i] = ordered[mid]
            else:
                out[i] = 0.5 * (ordered[mid - 1] + ordered[mid])
        bisect.insort(ordered, values[i])
    return out


def _temporal_mean(
    values: np.ndarray, times: np.ndarray, anchors: np.ndarray, seconds: float
) -> np.ndarray:
    """prediction[i] = mean(v[j:i]) for j = first obs with time >= anchor-sec."""
    n = len(values)
    out = np.full(n, np.nan)
    if n <= 1:
        return out
    csum = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(1, n)
    lo = np.searchsorted(times, anchors[1:] - seconds, side="left")
    lo = np.minimum(lo, idx)  # window never reaches past the prefix
    counts = idx - lo
    with np.errstate(invalid="ignore"):
        means = (csum[idx] - csum[lo]) / counts
    out[1:] = np.where(counts > 0, means, np.nan)
    return out


def _range_min(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``values[lo[k]:hi[k]].min()`` for every k, NaN where the range is empty.

    A sparse table: row p holds the minimum of every run of ``2**p``
    values, so a range of length L is the minimum of two runs of length
    ``2**floor(log2 L)``, one from each end.  O(n log n) to build and
    O(1) a range, for any bounds: AR's window starts come from start-time
    anchors and are not monotone.  A minimum picks one of its operands,
    so the result is ``.min()``'s bit for bit.
    """
    n = len(values)
    levels = max(n, 1).bit_length()
    # Column n is NaN: an empty range reads it from both ends.
    table = np.full((levels, n + 1), np.nan)
    table[0, :n] = values
    for p in range(1, levels):
        half, width = 1 << (p - 1), n - (1 << p) + 1
        np.minimum(table[p - 1, :width], table[p - 1, half:half + width],
                   out=table[p, :width])
    lengths = hi - lo
    live = lengths > 0
    # floor(log2 L), exactly: L = m * 2**e with 0.5 <= m < 1.
    p = np.frexp(np.where(live, lengths, 1))[1] - 1
    left = np.where(live, lo, n)
    right = np.where(live, hi - (1 << p), n)
    return np.minimum(table[p, left], table[p, right])


def _ar_model(
    values: np.ndarray,
    times: np.ndarray,
    anchors: np.ndarray,
    window_seconds: Optional[float],
) -> np.ndarray:
    """Vectorized :class:`~repro.core.predictors.arima.ArModel` at its
    default parameters.

    For each i, the model fits ``y = a + b x`` over the lag pairs of the
    (optionally time-windowed) prefix and predicts ``a + b * v[last]``,
    falling back to the window mean below 3 observations or on a
    singular fit, flooring at ``0.1 * window_min``.
    """
    n = len(values)
    out = np.full(n, np.nan)
    if n <= 1:
        return out
    idx = np.arange(1, n)
    if window_seconds is None:
        lo = np.zeros(n - 1, dtype=np.int64)
    else:
        lo = np.searchsorted(times, anchors[1:] - window_seconds, side="left")
        lo = np.minimum(lo, idx)
    counts = idx - lo  # observations in the window

    # Prefix sums run in extended precision: differencing two large
    # prefix totals to recover a small window sum cancels catastrophically
    # in float64 when value magnitudes are mixed (the generic path's
    # two-pass centered formula does not), and the parity property test
    # reaches such histories.  80-bit longdouble buys ~11 extra mantissa
    # bits, keeping the engines within each other's tolerance; platforms
    # where longdouble is float64 just keep the old behavior.
    wide = np.asarray(values, dtype=np.longdouble)

    # Value prefix sums for the mean fallback and the min floor.
    vsum = np.concatenate([[0.0], np.cumsum(wide)])
    with np.errstate(invalid="ignore"):
        window_mean = ((vsum[idx] - vsum[lo]) / counts).astype(np.float64)

    # The floor's window minimum, two sparse-table lookups a window.
    window_min = _range_min(values, lo, idx)

    # Lag-pair prefix sums: pair p = (x=v[p], y=v[p+1]) for p in [0, n-1).
    x = wide[:-1]
    y = wide[1:]
    p1 = np.concatenate([[0.0], np.cumsum(np.ones_like(x))])
    px = np.concatenate([[0.0], np.cumsum(x)])
    py = np.concatenate([[0.0], np.cumsum(y)])
    pxx = np.concatenate([[0.0], np.cumsum(x * x)])
    pxy = np.concatenate([[0.0], np.cumsum(x * y)])

    # Pairs wholly inside window [j, i): pair indices [j, i-1).
    pair_lo = lo
    pair_hi = idx - 1
    m = np.maximum(p1[pair_hi] - p1[pair_lo], 0.0)          # pair count
    sx = px[pair_hi] - px[pair_lo]
    sy = py[pair_hi] - py[pair_lo]
    sxx = pxx[pair_hi] - pxx[pair_lo]
    sxy = pxy[pair_hi] - pxy[pair_lo]

    # arima.fit_ar1_sums over arrays: the same expressions and the same
    # singular rule (var not positive and finite -> the window mean).
    with np.errstate(invalid="ignore", divide="ignore"):
        var = sxx - sx * sx / np.where(m > 0, m, 1.0)
        cov = sxy - sx * sy / np.where(m > 0, m, 1.0)
        b = cov / var
        a = (sy - b * sx) / np.where(m > 0, m, 1.0)
        prediction = a + b * values[idx - 1]
        floor = 0.1 * window_min
        prediction = np.maximum(prediction, floor)

    fittable = (counts >= 3) & (var > 0) & np.isfinite(var)
    out[1:] = np.where(fittable, prediction, window_mean)
    out[1:] = np.where(counts > 0, out[1:], np.nan)
    return out


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def _predictor_matrix(
    values: np.ndarray, times: np.ndarray, anchors: np.ndarray
) -> Dict[str, np.ndarray]:
    """All 15 context-insensitive traces for one series."""
    out: Dict[str, np.ndarray] = {
        "AVG": _running_mean(values),
        "LV": _last_value(values),
        "MED": _running_median(values),
    }
    for w in (5, 15, 25):
        out[f"AVG{w}"] = _windowed_mean(values, w)
        out[f"MED{w}"] = _windowed_median(values, w)
    for h in (5, 15, 25):
        out[f"AVG{h}hr"] = _temporal_mean(values, times, anchors, h * HOUR)
    out["AR"] = _ar_model(values, times, anchors, None)
    for d in (5, 10):
        out[f"AR{d}d"] = _ar_model(values, times, anchors, d * DAY)
    return out


def fast_evaluate(
    data: EvaluationData,
    training: int = 15,
    classification: Optional[Classification] = None,
    classified: bool = True,
) -> EvaluationResult:
    """Vectorized equivalent of ``evaluate(data, paper battery, training)``.

    Produces the same :class:`EvaluationResult` (same traces, same
    abstention counts) as the generic evaluator run with
    ``{**paper_predictors(), **classified_predictors()}`` — asserted by
    the parity tests.  Set ``classified=False`` to skip the ``C-``
    variants.
    """
    if training < 1:
        raise ValueError(f"training must be >= 1, got {training}")
    history, anchors = resolve_history(data)
    cls = classification or paper_classification()
    n = len(history)

    # Context-insensitive traces over the full series.
    matrix = _predictor_matrix(history.values, history.times, anchors)

    if classified:
        # Per-class kernels on each subseries, scattered back.
        for name in PAPER_PREDICTOR_NAMES:
            matrix[f"C-{name}"] = np.full(n, np.nan)
        labels = np.array([cls.classify(int(s)) for s in history.sizes])
        for label in cls.labels:
            indices = np.flatnonzero(labels == label)
            if len(indices) == 0:
                continue
            sub = _predictor_matrix(
                history.values[indices], history.times[indices], anchors[indices]
            )
            for name in PAPER_PREDICTOR_NAMES:
                matrix[f"C-{name}"][indices] = sub[name]

    # Fold into PredictionTraces, respecting the training prefix.
    walk = np.arange(training, n)
    traces: Dict[str, PredictionTrace] = {}
    for name, predicted in matrix.items():
        tail = predicted[walk]
        valid = np.isfinite(tail)
        keep = walk[valid]
        traces[name] = PredictionTrace(
            name=name,
            indices=keep.astype(np.int64),
            predicted=tail[valid],
            actual=history.values[keep],
            sizes=history.sizes[keep],
            times=anchors[keep],
            abstentions=int((~valid).sum()),
        )
    return EvaluationResult(traces=traces, training=training, n_records=n)
