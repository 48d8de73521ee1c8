"""Accuracy-tracker parity: the telemetry must never change an answer.

Three contracts, all on the shipped campaign logs:

* **on/off parity** — a service with the tracker enabled returns
  trace-identical predictions to one with it disabled;
* **offline agreement** — the live rolling MAPE/MSE after a full
  predict→observe replay matches :func:`repro.analysis.errors.
  compute_class_errors` on the same log to 1e-9;
* **pairing** — out-of-order appends and bulk :meth:`ingest_frame`
  score against exactly the records the version gate promises, and the
  statistics survive evict→revive and warm restart through the store.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.data import load_ulm
from repro.service import PredictionService
from repro.store import LinkStore
from repro.units import MB
from tests.conftest import make_record

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
LOG = DATA_DIR / "aug-LBL-ANL.ulm"
LINK = "aug-LBL-ANL"
TRAINING = 15


def _replay(service, frame, spec="C-AVG15"):
    """Predict-then-observe the whole frame, offline-evaluation style.

    Predictions start after the training prefix — exactly the rows the
    offline engine scores — so the live scored set and the offline
    evaluated set coincide.  Returns the predictions.
    """
    out = []
    for i in range(len(frame)):
        if i >= TRAINING:
            out.append(service.predict(
                LINK, int(frame.sizes[i]), spec,
                now=float(frame.start_times[i])))
        service.observe(LINK, make_record(
            start=float(frame.start_times[i]),
            duration=float(frame.end_times[i] - frame.start_times[i]),
            size=int(frame.sizes[i]),
            bandwidth=float(frame.bandwidths[i]),
        ))
    return out


@pytest.fixture(scope="module")
def frame():
    return load_ulm(LOG)


def test_tracker_on_and_off_answer_identically(frame):
    on = PredictionService(quality=True)
    off = PredictionService(quality=False)
    answered = _replay(on, frame)
    baseline = _replay(off, frame)
    assert len(answered) == len(frame) - TRAINING
    from dataclasses import replace

    for a, b in zip(answered, baseline):
        # Everything but the measured latency must match exactly.
        assert replace(a, latency_seconds=0.0) == \
            replace(b, latency_seconds=0.0)
    assert off.status()["accuracy"] == {"enabled": False}


def test_live_rolling_errors_match_offline_analysis(frame):
    from repro.analysis import compute_class_errors

    service = PredictionService(quality=True)
    _replay(service, frame)

    trace = compute_class_errors(LINK, frame).result.traces["C-AVG15"]
    predicted = np.asarray(trace.predicted, dtype=np.float64)
    actual = np.asarray(trace.actual, dtype=np.float64)
    scored = np.isfinite(predicted)

    stats = service.status()["accuracy"]["by_spec"]["C-AVG15"]
    assert stats["count"] == int(scored.sum())
    assert stats["abstentions"] == trace.abstentions

    frac = (predicted[scored] - actual[scored]) / actual[scored]
    assert stats["mape"] == pytest.approx(
        float(np.mean(np.abs(frac))) * 100.0, rel=1e-9)
    assert stats["mape"] == pytest.approx(
        trace.mean_abs_pct_error(), rel=1e-9)
    assert stats["mse"] == pytest.approx(
        float(np.mean((predicted[scored] - actual[scored]) ** 2)), rel=1e-9)
    assert stats["bias_pct"] == pytest.approx(
        float(np.mean(frac)) * 100.0, rel=1e-9)
    # The rolling window covers exactly the newest 128 scored pairs.
    assert len(frac) > 128
    assert stats["window"]["count"] == 128
    assert stats["window"]["mape"] == pytest.approx(
        float(np.mean(np.abs(frac[-128:]))) * 100.0, rel=1e-9)


def test_out_of_order_append_scores_against_the_next_observation():
    service = PredictionService(quality=True)
    service.ingest_records(LINK, [
        make_record(start=1000.0 + 100.0 * i, size=100 * MB) for i in range(20)
    ])
    p = service.predict(LINK, 100 * MB, now=10_000.0)
    assert p.value is not None
    # The next observed transfer pairs with it even though its start
    # time lands *before* existing history (pairing is by version, not
    # by timestamp).
    service.observe(LINK, make_record(
        start=1500.5, duration=2.0, size=100 * MB, bandwidth=2.0 * p.value))
    stats = service.status()["accuracy"]["by_spec"]["C-AVG15"]
    assert stats["count"] == 1
    assert stats["last_abs_pct"] == pytest.approx(50.0)


def test_bulk_ingest_scores_against_the_frames_earliest_record(frame):
    service = PredictionService(quality=True)
    half = len(frame) // 2
    tail = frame.view(np.arange(half, len(frame)))
    service.ingest_frame(LINK, frame.prefix(half))
    p = service.predict(LINK, 100 * MB, now=float(frame.end_times[half - 1]))
    service.ingest_frame(LINK, tail)

    stats = service.status()["accuracy"]["by_spec"]["C-AVG15"]
    assert stats["count"] == 1
    i = int(np.argmin(tail.end_times))
    actual = float(tail.bandwidths[i])
    expected = abs(p.value - actual) / actual * 100.0
    assert stats["last_abs_pct"] == pytest.approx(expected)


class TestPersistence:
    def _score_some(self, service):
        service.ingest_records(LINK, [
            make_record(start=1000.0 + 100.0 * i, size=100 * MB)
            for i in range(20)
        ])
        for i in range(5):
            p = service.predict(LINK, 100 * MB, now=10_000.0 + i)
            service.observe(LINK, make_record(
                start=10_000.0 + 100.0 * i, duration=1.0, size=100 * MB,
                bandwidth=1.1 * p.value))

    def test_accuracy_survives_evict_and_revive(self, tmp_path):
        store = LinkStore(tmp_path / "state")
        service = PredictionService(store=store, max_resident=1)
        self._score_some(service)
        before = service.status()["accuracy"]

        # Touching another link evicts the scored one; predicting on it
        # again revives it.  The live statistics must come through the
        # cycle unchanged — neither lost nor double-counted from the
        # checkpoint it left behind.
        service.ingest_records("other", [
            make_record(start=1000.0 + 100.0 * i, size=100 * MB)
            for i in range(20)
        ])
        service.predict("other", 100 * MB, now=10_000.0)
        service.predict(LINK, 100 * MB, now=20_000.0)
        after = service.status()["accuracy"]
        assert after["links"][LINK] == before["links"][LINK]
        assert after["scored"] == before["scored"]

    def test_accuracy_survives_warm_restart(self, tmp_path):
        store = LinkStore(tmp_path / "state")
        first = PredictionService(store=store)
        self._score_some(first)
        expected = first.status()["accuracy"]["links"][LINK]
        assert first.checkpoint_all(seal=True) == 1
        store.close()

        second = PredictionService(store=LinkStore(tmp_path / "state"))
        second.predict(LINK, 100 * MB, now=20_000.0)  # first touch revives
        restored = second.status()["accuracy"]
        assert restored["links"][LINK]["by_spec"] == expected["by_spec"]
        assert restored["links"][LINK]["overall"] == expected["overall"]
        assert restored["scored"] == expected["overall"]["count"]
