"""Hybrid GridFTP + NWS predictor."""

import numpy as np
import pytest

from repro.core import History
from repro.core.predictors import HybridPredictor
from repro.nws import TimeSeries
from repro.units import HOUR


def make_probes(values, spacing=300.0):
    s = TimeSeries()
    for i, v in enumerate(values):
        s.append(i * spacing, v)
    return s


def make_history(times, bandwidths):
    return History(
        times=np.asarray(times, dtype=float),
        values=np.asarray(bandwidths, dtype=float),
        sizes=np.asarray([100] * len(times)),
    )


def test_scales_probe_by_learned_ratio():
    # Probes at a steady 0.2; GridFTP consistently 10x the probe.
    probes = make_probes([0.2] * 20)
    history = make_history([600.0, 1200.0, 1800.0], [2.0, 2.0, 2.0])
    p = HybridPredictor(probes)
    assert p.predict(history, now=2000.0) == pytest.approx(2.0)


def test_tracks_probe_movement():
    # Ratio learned at 10x; the latest probe halves -> prediction halves.
    probe_values = [0.2] * 10 + [0.1] * 2
    probes = make_probes(probe_values)
    history = make_history([600.0, 1200.0, 1800.0], [2.0, 2.0, 2.0])
    p = HybridPredictor(probes)
    predicted = p.predict(history, now=probes.times[-1] + 1.0)
    assert predicted == pytest.approx(1.0)


def test_median_ratio_resists_probe_outlier():
    probes = make_probes([0.2, 0.2, 0.001, 0.2, 0.2, 0.2])
    # One observation landed right after the bogus probe.
    history = make_history([650.0, 950.0, 1250.0, 1550.0], [2.0, 2.0, 2.0, 2.0])
    p = HybridPredictor(probes)
    predicted = p.predict(history, now=1600.0)
    assert predicted == pytest.approx(2.0, rel=0.01)


def test_abstains_without_probes():
    p = HybridPredictor(TimeSeries())
    assert p.predict(make_history([1.0], [2.0]), now=5.0) is None


def test_abstains_without_enough_pairs():
    probes = make_probes([0.2] * 5)
    history = make_history([600.0], [2.0])
    assert HybridPredictor(probes).predict(history, now=700.0) is None


def test_abstains_on_stale_probe():
    probes = make_probes([0.2] * 5)  # last probe at t=1200
    history = make_history([600.0, 700.0, 800.0], [2.0, 2.0, 2.0])
    p = HybridPredictor(probes)
    assert p.predict(history, now=1200.0 + 2 * HOUR) is None


def test_abstains_on_empty_history():
    p = HybridPredictor(make_probes([0.2] * 3))
    assert p.predict(History.empty(), now=100.0) is None

