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
from repro.core.predictors.base import Predictor
from repro.logs.stats import median
from repro.nws.series import TimeSeries

__all__ = ["HybridPredictor"]

#: Recent GridFTP observations the ratio is estimated from.
WINDOW = 25

#: (observation, probe) pairs needed before the predictor answers.
MIN_PAIRS = 3

#: Seconds after which the freshest probe is stale: it carries no current
#: information, and the predictor abstains.
MAX_PROBE_AGE = 3600.0


class HybridPredictor(Predictor):
    """Scale the latest NWS probe by the learned GridFTP/probe ratio.

    Parameters
    ----------
    probes:
        The NWS measurement series for the same path.

    The ratio is the median over the last :data:`WINDOW` observations; the
    predictor abstains below :data:`MIN_PAIRS` pairs or when the freshest
    probe is older than :data:`MAX_PROBE_AGE`.
    """

    name = "HYBRID"

    def __init__(self, probes: TimeSeries):
        self.probes = probes

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
        if anchor - min(probe_time, anchor) > MAX_PROBE_AGE and (
            anchor - probe_time > MAX_PROBE_AGE
        ):
            return None

        recent = history.last(WINDOW)
        ratios = []
        for t, bw in zip(recent.times, recent.values):
            probe = self.probes.value_at(float(t))
            if probe is not None and probe > 0:
                ratios.append(float(bw) / probe)
        if len(ratios) < MIN_PAIRS:
            return None
        ratio = median(np.asarray(ratios))
        return ratio * current_probe
