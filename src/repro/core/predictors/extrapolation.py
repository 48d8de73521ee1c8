"""Cross-pair extrapolation: predicting where no history exists.

Section 7: "we plan to experiment with techniques that will let us
extrapolate data when there is no previous transfer data between two
sites [13]" (Faerman et al.'s adaptive regression).  This module
implements a log-bilinear site-factor model over the *observed* pair
matrix:

    ``log bw(src, dst) ≈ mu + a_src + b_dst``

``mu`` is the grid-wide level, ``a_s`` how good site ``s`` is as a
source, ``b_d`` how good ``d`` is as a sink.  Factors are fit by least
squares over all observed pairs (each pair summarized by a robust
statistic of its recent, optionally size-class-filtered, bandwidths),
with the standard identifiability constraint ``sum a = sum b = 0``.
An unobserved pair's bandwidth is then ``exp(mu + a_src + b_dst)``.

With two sites on a path crossing a shared bottleneck this is exact;
with heterogeneous paths it degrades gracefully toward the grid mean.
``tests/unit/test_predictors_extrapolation.py::
test_extrapolates_an_unseen_pair_of_the_testbed`` measures it on a
genuinely held-out pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.classification import Classification
from repro.core.history import History

__all__ = ["PairKey", "SiteFactorModel"]

PairKey = Tuple[str, str]  # (source site, destination site)


@dataclass(frozen=True)
class _Fit:
    mu: float
    source_factors: Dict[str, float]
    sink_factors: Dict[str, float]
    n_pairs: int


class SiteFactorModel:
    """Log-bilinear site-factor extrapolator.

    Parameters
    ----------
    window:
        Recent observations per pair used for that pair's summary.
    classification / label:
        Optional size-class filter applied to every pair's history before
        summarizing, so the extrapolation is class-consistent (predicting
        a 1 GB transfer from 1 GB-class evidence).
    min_pairs:
        Minimum observed pairs required to fit (below it, predictions
        abstain).
    """

    def __init__(
        self,
        window: int = 25,
        classification: Optional[Classification] = None,
        label: Optional[str] = None,
        min_pairs: int = 2,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if (classification is None) != (label is None):
            raise ValueError("classification and label must be given together")
        if min_pairs < 2:
            raise ValueError(f"min_pairs must be >= 2, got {min_pairs}")
        self.window = window
        self.classification = classification
        self.label = label
        self.min_pairs = min_pairs

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def _summarize(self, history: History) -> Optional[float]:
        if self.classification is not None and self.label is not None:
            history = history.of_class(self.classification, self.label)
        if len(history) == 0:
            return None
        values = history.last(self.window).values
        return float(np.median(values))

    def fit(self, pair_histories: Mapping[PairKey, History]) -> Optional[_Fit]:
        """Least-squares site factors from the observed pair summaries.

        Returns ``None`` when fewer than ``min_pairs`` pairs have usable
        history.
        """
        observations: List[Tuple[str, str, float]] = []
        for (src, dst), history in pair_histories.items():
            if src == dst:
                raise ValueError(f"degenerate pair {src!r}->{dst!r}")
            summary = self._summarize(history)
            if summary is not None and summary > 0:
                observations.append((src, dst, float(np.log(summary))))
        if len(observations) < self.min_pairs:
            return None

        sources = sorted({src for src, _, _ in observations})
        sinks = sorted({dst for _, dst, _ in observations})
        n = len(observations)
        # Design: [1 | source one-hots | sink one-hots], solved with
        # lstsq (rank-deficient by construction; minimum-norm solution
        # implements the sum-to-zero gauge up to numerical symmetry).
        design = np.zeros((n, 1 + len(sources) + len(sinks)))
        target = np.zeros(n)
        for i, (src, dst, logbw) in enumerate(observations):
            design[i, 0] = 1.0
            design[i, 1 + sources.index(src)] = 1.0
            design[i, 1 + len(sources) + sinks.index(dst)] = 1.0
            target[i] = logbw
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)

        a = {s: float(coef[1 + i]) for i, s in enumerate(sources)}
        b = {d: float(coef[1 + len(sources) + i]) for i, d in enumerate(sinks)}
        # Re-gauge explicitly: shift factor means into mu.
        a_mean = float(np.mean(list(a.values())))
        b_mean = float(np.mean(list(b.values())))
        mu = float(coef[0]) + a_mean + b_mean
        a = {s: v - a_mean for s, v in a.items()}
        b = {d: v - b_mean for d, v in b.items()}
        return _Fit(mu=mu, source_factors=a, sink_factors=b, n_pairs=len(observations))

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_pair(
        self,
        pair_histories: Mapping[PairKey, History],
        src: str,
        dst: str,
    ) -> Optional[float]:
        """Predicted bandwidth for ``src -> dst`` (bytes/s), or ``None``.

        Unknown sites (never seen as that role in any observed pair)
        contribute a zero factor — the prediction degrades toward the
        grid-wide level rather than abstaining, matching the use case of
        ranking a brand-new replica site.
        """
        fit = self.fit(pair_histories)
        if fit is None:
            return None
        a = fit.source_factors.get(src, 0.0)
        b = fit.sink_factors.get(dst, 0.0)
        return float(np.exp(fit.mu + a + b))
