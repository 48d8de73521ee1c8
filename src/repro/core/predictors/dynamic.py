"""Dynamic predictor selection (NWS-style; the paper's Section 4.4/7 idea).

Rather than committing to one technique, evaluate a battery on the history
seen so far and forecast with whichever member currently has the lowest
mean absolute percentage error.  This is the strategy the NWS applies to
its probe series, which the paper names as future work for GridFTP logs.

The selector is referentially transparent: its output depends only on the
``(history, target_size, now)`` arguments.  Because walk-forward
evaluation feeds growing prefixes of one log, scoring work is memoized
incrementally — each new observation is scored once per member — keeping
the walk O(n · members · predict_cost) instead of O(n² · ...).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.predictors.base import Predictor, PredictorError

__all__ = ["DynamicSelector"]


class DynamicSelector(Predictor):
    """Predict with the battery member that has the lowest running MAPE.

    Parameters
    ----------
    members:
        Candidate predictors (must have unique names).
    warmup:
        Observations to score before trusting the ranking; until every
        member has been scored at least once, the first member acts as
        the default.
    """

    def __init__(self, members: Sequence[Predictor], warmup: int = 3):
        if not members:
            raise PredictorError("DynamicSelector needs at least one member")
        names = [m.name for m in members]
        if len(set(names)) != len(names):
            raise PredictorError(f"duplicate member names: {names}")
        if warmup < 1:
            raise PredictorError(f"warmup must be >= 1, got {warmup}")
        self.members: List[Predictor] = list(members)
        self.warmup = warmup
        self.name = "DYN(" + ",".join(names) + ")"
        self._reset_cache()

    # ------------------------------------------------------------------
    # scoring cache
    # ------------------------------------------------------------------
    def _reset_cache(self) -> None:
        self._scored_upto = 1  # first observation has no history to predict from
        self._fingerprint: Optional[Tuple[float, float]] = None
        self._abs_pct: Dict[str, float] = {m.name: 0.0 for m in self.members}
        self._counts: Dict[str, int] = {m.name: 0 for m in self.members}

    def _check_same_log(self, history: History) -> None:
        """Detect a different log (fingerprint = first observation)."""
        if len(history) == 0:
            return
        fp = (float(history.times[0]), float(history.values[0]))
        if self._fingerprint is None:
            self._fingerprint = fp
        elif self._fingerprint != fp:
            self._reset_cache()
            self._fingerprint = fp

    def _score_new(self, history: History) -> None:
        """Score members on observations not yet accounted for."""
        for i in range(self._scored_upto, len(history)):
            prefix = history.prefix(i)
            actual = float(history.values[i])
            when = float(history.times[i])
            size = int(history.sizes[i])
            for member in self.members:
                predicted = member.predict(prefix, target_size=size, now=when)
                if predicted is None:
                    continue
                self._abs_pct[member.name] += abs(actual - predicted) / actual
                self._counts[member.name] += 1
        self._scored_upto = max(self._scored_upto, len(history))

    def _mape(self, member: Predictor) -> float:
        n = self._counts[member.name]
        if n == 0:
            return float("inf")
        return self._abs_pct[member.name] / n

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def best_member(self, history: History) -> Predictor:
        """Member currently preferred for this history."""
        self._check_same_log(history)
        self._score_new(history)
        if all(self._counts[m.name] < self.warmup for m in self.members):
            return self.members[0]
        return min(self.members, key=self._mape)

    def predict(
        self,
        history: History,
        target_size: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        if len(history) == 0:
            return None
        member = self.best_member(history)
        return member.predict(history, target_size=target_size, now=now)

    def mape_table(self) -> Dict[str, float]:
        """Per-member running MAPE, for diagnostics (the experiment is
        ``tests/integration/test_prediction_pipeline.py::TestDynamicSelection``)."""
        return {m.name: self._mape(m) for m in self.members}
