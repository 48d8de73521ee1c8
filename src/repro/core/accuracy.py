"""Prediction-uncertainty estimation (backtesting).

A prediction without an error bar is hard to act on: a broker choosing
between "8 MB/s ± 10 %" and "9 MB/s ± 60 %" may rationally take the
first.  The NWS publishes forecast error alongside forecasts; this
module brings the same idea to the GridFTP predictors.

:func:`backtest_error` replays the predictor over the tail of the very
history it is about to predict from — predict observation *i* from the
prefix before it, score against the truth — and returns the mean
absolute fractional error.  That is an honest, assumption-free
uncertainty estimate: it measures this predictor on this link's recent,
same-class data.

:class:`RiskAdjustedRanking` applies it to replica selection: candidates
are ranked by ``predicted * (1 - risk_aversion * error)``, a certainty-
discounted bandwidth.  ``risk_aversion = 0`` reproduces the plain
broker; ``1`` treats a 30 %-error prediction as worth 30 % less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.history import History
from repro.core.predictors.base import Predictor
from repro.core.selection import RankedReplica, ReplicaBroker
from repro.wire import rank_key

__all__ = ["backtest_error", "RiskAssessedReplica", "RiskAdjustedRanking"]


#: Fewest scored observations a backtest reports an error from.
_MIN_SCORED = 3

#: Recent observations a backtest scores.
LOOKBACK = 10

#: The error a site whose backtest abstains is discounted by: the
#: unknown is treated as risky, not as safe.
DEFAULT_ERROR = 0.5


def backtest_error(
    predictor: Predictor,
    history: History,
    target_size: Optional[int] = None,
) -> Optional[float]:
    """Mean absolute fractional error of ``predictor`` on recent history.

    For each of the last :data:`LOOKBACK` observations, predict it from the
    strictly-earlier prefix and score ``|actual - predicted| / actual``.
    Returns ``None`` if fewer than ``_MIN_SCORED`` observations could be
    scored (the predictor abstained or the history is too short) —
    an uncertainty estimate that is itself too uncertain to report.
    """
    n = len(history)
    errors: List[float] = []
    for i in range(max(1, n - LOOKBACK), n):
        prefix = history.prefix(i)
        actual = float(history.values[i])
        predicted = predictor.predict(
            prefix,
            target_size=target_size if target_size is not None else int(history.sizes[i]),
            now=float(history.times[i]),
        )
        if predicted is not None and actual > 0:
            errors.append(abs(actual - predicted) / actual)
    if len(errors) < _MIN_SCORED:
        return None
    return sum(errors) / len(errors)


@dataclass(frozen=True)
class RiskAssessedReplica(RankedReplica):
    """A ranked candidate with its backtested uncertainty."""

    error: Optional[float] = None               # mean absolute fractional error
    adjusted_bandwidth: Optional[float] = None  # what the ranking sorts on


class RiskAdjustedRanking:
    """Replica ranking discounted by backtested prediction error.

    Wraps a :class:`~repro.core.selection.ReplicaBroker`: predictions and
    candidate discovery are the broker's; this class adds the per-site
    backtest and re-ranks by the certainty-discounted bandwidth.  A site
    whose error cannot be estimated is discounted by :data:`DEFAULT_ERROR`.
    """

    def __init__(
        self,
        broker: ReplicaBroker,
        risk_aversion: float = 1.0,
    ):
        if not (0.0 <= risk_aversion <= 1.0):
            raise ValueError(f"risk_aversion must be in [0, 1], got {risk_aversion}")
        self.broker = broker
        self.risk_aversion = risk_aversion

    def _assess(
        self, ranked: RankedReplica, logical_name: str, client_address: str, now: float
    ) -> RiskAssessedReplica:
        if ranked.predicted_bandwidth is None:
            return RiskAssessedReplica(**vars(ranked))
        history = self.broker._history_for(ranked.site, client_address)
        size = self.broker.catalog.size_of(logical_name)
        error = backtest_error(self.broker.predictor, history, target_size=size)
        effective_error = min(error if error is not None else DEFAULT_ERROR, 1.0)
        adjusted = ranked.predicted_bandwidth * (
            1.0 - self.risk_aversion * effective_error
        )
        return RiskAssessedReplica(**vars(ranked), error=error, adjusted_bandwidth=adjusted)

    def rank(
        self, logical_name: str, client_address: str, now: float
    ) -> List[RiskAssessedReplica]:
        """Candidates ordered by certainty-discounted bandwidth."""
        return sorted(
            (self._assess(r, logical_name, client_address, now)
             for r in self.broker._predictions(logical_name, client_address, now)),
            key=lambda r: rank_key(r.adjusted_bandwidth),
        )

    def select(
        self, logical_name: str, client_address: str, now: float
    ) -> RiskAssessedReplica:
        return self.rank(logical_name, client_address, now)[0]
