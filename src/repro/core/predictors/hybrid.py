"""Hybrid GridFTP + NWS predictor (the paper's Section 7 proposal).

GridFTP observations are accurate but *sporadic*; NWS probes are biased
(small transfers underestimate tuned parallel throughput) but *regular*.
The proposed combination: learn the relationship between the two series
from moments where both exist, then use the fresh NWS signal to scale the
prediction between GridFTP transfers.

Concretely, for recent GridFTP observations ``(t_i, bw_i)`` we take the
NWS probe value ``p_i`` nearest-before ``t_i`` and form ratios
``r_i = bw_i / p_i``.  The prediction at time ``now`` is
``median(r_i) * p(now)``.  The median resists the occasional probe that
landed inside a load burst.  When there is no probe data (or no overlap),
the predictor abstains — callers typically pair it with a log-only
predictor as fallback.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.history import History
from repro.core.predictors.base import Predictor, PredictorError
from repro.logs.stats import median
from repro.nws.series import TimeSeries

__all__ = ["HybridPredictor"]


class HybridPredictor(Predictor):
    """Scale the latest NWS probe by the learned GridFTP/probe ratio.

    Parameters
    ----------
    probes:
        The NWS measurement series for the same path.
    window:
        Number of recent GridFTP observations used to estimate the ratio.
    min_pairs:
        Minimum (observation, probe) pairs required before predicting.
    max_probe_age:
        Abstain if the freshest probe is older than this many seconds;
        a stale probe carries no current information.
    """

    name = "HYBRID"

    def __init__(
        self,
        probes: TimeSeries,
        window: int = 25,
        min_pairs: int = 3,
        max_probe_age: float = 3600.0,
    ):
        if window <= 0 or min_pairs <= 0:
            raise PredictorError("window and min_pairs must be positive")
        if min_pairs > window:
            raise PredictorError("min_pairs cannot exceed window")
        if max_probe_age <= 0:
            raise PredictorError("max_probe_age must be positive")
        self.probes = probes
        self.window = window
        self.min_pairs = min_pairs
        self.max_probe_age = max_probe_age

    def predict(
        self,
        history: History,
        target_size: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        if len(history) == 0 or len(self.probes) == 0:
            return None
        anchor = self._now(history, now)

        last_probe = self.probes.last()
        assert last_probe is not None
        probe_time, _ = last_probe
        current_probe = self.probes.value_at(anchor)
        if current_probe is None or current_probe <= 0:
            return None
        if anchor - min(probe_time, anchor) > self.max_probe_age and (
            anchor - probe_time > self.max_probe_age
        ):
            return None

        recent = history.last(self.window)
        ratios = []
        for t, bw in zip(recent.times, recent.values):
            probe = self.probes.value_at(float(t))
            if probe is not None and probe > 0:
                ratios.append(float(bw) / probe)
        if len(ratios) < self.min_pairs:
            return None
        ratio = median(np.asarray(ratios))
        return ratio * current_probe
