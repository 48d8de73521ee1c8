"""repro.obs.quality — streaming error statistics and pairing mechanics."""

import math

import numpy as np
import pytest

from repro.obs.quality import (
    CALIBRATION_EDGES,
    CALIBRATION_LABELS,
    DEFAULT_MAX_PENDING,
    SCORED_EVENT_BATCH,
    AccuracyTracker,
    ErrorStats,
    merge_stats,
)
from repro.store.checkpoint import dumps, loads


# ----------------------------------------------------------------------
# ErrorStats vs a numpy reference
# ----------------------------------------------------------------------
def test_error_stats_matches_numpy_reference():
    rng = np.random.default_rng(7)
    predicted = rng.uniform(1e5, 1e8, size=300)
    actual = rng.uniform(1e5, 1e8, size=300)
    stats = ErrorStats(window=64)
    for i, (p, a) in enumerate(zip(predicted, actual)):
        stats.add(float(p), float(a), when=float(i))

    err = predicted - actual
    frac = err / actual
    s = stats.summary()
    assert s["count"] == 300
    assert s["mape"] == pytest.approx(np.mean(np.abs(frac)) * 100.0, rel=1e-12)
    assert s["mse"] == pytest.approx(np.mean(err**2), rel=1e-12)
    assert s["rmse"] == pytest.approx(math.sqrt(np.mean(err**2)), rel=1e-12)
    assert s["bias_pct"] == pytest.approx(np.mean(frac) * 100.0, rel=1e-12)
    # The window covers exactly the newest 64 pairs.
    assert s["window"]["count"] == 64
    assert s["window"]["mape"] == pytest.approx(
        np.mean(np.abs(frac[-64:])) * 100.0, rel=1e-12)
    assert s["window"]["mse"] == pytest.approx(np.mean(err[-64:] ** 2), rel=1e-12)
    assert s["last_abs_pct"] == pytest.approx(abs(frac[-1]) * 100.0, rel=1e-12)
    assert sum(stats.buckets) == 300


def test_calibration_buckets_split_on_the_documented_edges():
    stats = ErrorStats(window=8)
    # One prediction per bucket: ratios straddling every edge.
    ratios = [0.1, 0.3, 0.6, 0.9, 1.0, 1.1, 1.5, 3.0, 5.0]
    assert len(ratios) == len(CALIBRATION_LABELS)
    for i, ratio in enumerate(ratios):
        stats.add(ratio * 100.0, 100.0, when=float(i))
    s = stats.summary()
    assert s["calibration"] == {label: 1 for label in CALIBRATION_LABELS}
    assert len(CALIBRATION_EDGES) + 1 == len(CALIBRATION_LABELS)


def test_empty_summary_is_all_none():
    s = ErrorStats(window=4).summary()
    assert s["count"] == 0
    assert s["mape"] is None and s["mse"] is None
    assert s["window"] == {"count": 0, "mape": None, "mse": None}
    assert s["calibration"] == {}


# ----------------------------------------------------------------------
# persistence through the real checkpoint codec
# ----------------------------------------------------------------------
def test_state_roundtrips_through_checkpoint_codec():
    stats = ErrorStats(window=16)
    for i in range(40):
        stats.add(100.0 + i, 90.0 + 2 * i, when=1000.0 + i)
    stats.abstentions += 1  # as the tracker's drain counts them
    stats.unscorable += 1

    part = loads(dumps({"accuracy": stats.state()}))["accuracy"]
    revived = ErrorStats.load_state(part)
    part.finish()  # one struct and the window, nothing over
    assert revived.summary() == stats.summary()
    assert isinstance(revived.count, int)
    assert all(isinstance(b, int) for b in revived.buckets)
    assert revived.window.maxlen == 16


def test_empty_state_roundtrips():
    empty = ErrorStats(window=8).state()
    revived = ErrorStats.load_state(loads(dumps({"accuracy": empty}))["accuracy"])
    assert revived.summary() == ErrorStats(window=8).summary()


# ----------------------------------------------------------------------
# merge_stats
# ----------------------------------------------------------------------
def test_merge_stats_is_exact_over_partitions():
    rng = np.random.default_rng(11)
    predicted = rng.uniform(1.0, 100.0, size=90)
    actual = rng.uniform(1.0, 100.0, size=90)
    whole = ErrorStats(window=32)
    parts = [ErrorStats(window=32) for _ in range(3)]
    for i, (p, a) in enumerate(zip(predicted, actual)):
        whole.add(float(p), float(a), when=float(i))
        parts[i % 3].add(float(p), float(a), when=float(i))
    merged = merge_stats(parts, window=32).summary()
    reference = whole.summary()
    for key in ("count", "mape", "mse", "bias_pct", "calibration"):
        assert merged[key] == pytest.approx(reference[key])
    # Merged window = newest 32 pairs by timestamp == whole's window.
    assert merged["window"]["count"] == 32
    assert merged["window"]["mape"] == pytest.approx(reference["window"]["mape"])


# ----------------------------------------------------------------------
# AccuracyTracker pairing
# ----------------------------------------------------------------------
def test_score_consumes_only_predictions_before_the_version():
    # drain() scores each observation at once; threshold=0.0 surfaces
    # every scored pair as bad-detail, which makes pairing observable.
    tracker = AccuracyTracker(threshold=0.0)
    tracker.record("L", "C-AVG15", 100.0, version=5, kind="streamed")
    tracker.record("L", "C-AVG15", 110.0, version=6, kind="streamed")
    # An observation producing version 6 pairs only with the version-5
    # prediction; the version-6 one waits for the next transfer.
    tracker.score("L", actual=100.0, when=1.0, version=6)
    pairs, worst, bad = tracker.drain()
    assert (pairs, worst) == (1, 0.0)
    assert [(ln, s, p, a) for ln, s, p, a, _, _ in bad] == \
        [("L", "C-AVG15", 100.0, 100.0)]
    assert tracker.pending_count() == 1
    tracker.score("L", actual=100.0, when=2.0, version=7)
    pairs, worst, bad = tracker.drain()
    assert (pairs, worst) == (1, pytest.approx(0.1))
    assert [(s, p) for _, s, p, _, _, _ in bad] == [("C-AVG15", 110.0)]
    assert tracker.pending_count() == 0
    assert tracker.scored == 2


def test_scoring_defers_until_the_batch_then_drains_exactly():
    # The batch counts *staged entries* — predictions and observations
    # both land on the shared staging deque.  Each record+observe
    # round stages two entries, so the drain comes on the observation
    # that brings the stage to SCORED_EVENT_BATCH.
    tracker = AccuracyTracker(threshold=0.0)
    rounds = SCORED_EVENT_BATCH // 2
    for v in range(rounds):
        tracker.record("L", "C-AVG15", 100.0, version=v, kind="streamed")
        deferred = tracker.score("L", actual=50.0, when=float(v), version=v + 1)
        if v < rounds - 1:
            # Deferred: nothing folded yet, stats untouched.
            assert deferred == (0, 0.0, [])
            assert tracker.scored == 0
        else:
            # The last observation completes the batch: the whole stage
            # replays in arrival order, exactly as immediate scoring
            # would have folded it.
            pairs, worst, bad = deferred
            assert pairs == rounds
            assert worst == pytest.approx(1.0)
            assert [p for _, _, p, _, _, _ in bad] == [100.0] * rounds
    assert tracker.scored == rounds
    # drain() scores a part batch at once.
    tracker.record("L", "C-AVG15", 75.0, version=rounds, kind="streamed")
    tracker.score("L", actual=50.0, when=float(rounds), version=rounds + 1)
    pairs, worst, _ = tracker.drain()
    assert (pairs, worst) == (1, pytest.approx(0.5))


def test_reads_drain_queued_observations_first():
    tracker = AccuracyTracker()  # drains at SCORED_EVENT_BATCH
    tracker.record("L", "C-AVG15", 120.0, version=1, kind="streamed")
    assert tracker.score("L", actual=100.0, when=1.0, version=2) == (0, 0.0, [])
    # status() must not show a stale zero while a drain is pending.
    status = tracker.status()
    assert status["scored"] == 1
    assert status["pending"] == 0
    assert status["by_spec"]["C-AVG15"]["mape"] == pytest.approx(20.0)


def test_abstentions_and_unscorable_actuals_are_counted_not_scored():
    tracker = AccuracyTracker()
    tracker.record("L", "C-AVG15", None, version=1, kind="streamed")
    tracker.score("L", actual=50.0, when=1.0, version=2)
    tracker.record("L", "C-AVG15", 10.0, version=2, kind="streamed")
    tracker.score("L", actual=0.0, when=2.0, version=3)  # unscorable
    status = tracker.status()
    spec = status["by_spec"]["C-AVG15"]
    assert spec["count"] == 0
    assert spec["abstentions"] == 1
    assert spec["unscorable"] == 1
    assert status["overall"]["mape"] is None


def test_degraded_answers_score_separately():
    tracker = AccuracyTracker()
    tracker.record("L", "C-AVG15", 200.0, version=1, kind="degraded")
    tracker.record("L", "C-AVG15", 100.0, version=1, kind="streamed")
    tracker.score("L", actual=100.0, when=1.0, version=2)
    status = tracker.status()
    assert status["by_spec"]["C-AVG15"]["count"] == 1
    assert status["by_spec"]["C-AVG15"]["mape"] == pytest.approx(0.0)
    assert status["degraded"]["count"] == 1
    assert status["degraded"]["mape"] == pytest.approx(100.0)


def test_pending_queue_is_bounded_and_drops_are_counted():
    tracker = AccuracyTracker(threshold=0.0)
    cap = DEFAULT_MAX_PENDING
    for i in range(cap + 6):
        tracker.record("L", "C-AVG15", float(i), version=1, kind="streamed")
    assert tracker.pending_count() == cap
    assert tracker.dropped == 6
    tracker.score("L", actual=1.0, when=1.0, version=2)
    pairs, _, bad = tracker.drain()
    # Only the newest cap predictions survived.
    assert pairs == cap
    assert [p for _, _, p, _, _, _ in bad] == [float(i) for i in range(6, cap + 6)]


def test_deferral_never_drops_pairs_the_cap_would_have_scored():
    # The drain replays staged entries in arrival order, so an
    # observation staged *before* the pending cap would overflow still
    # consumes its pairs first — deferral never evicts answers that
    # immediate scoring would have scored.
    tracker = AccuracyTracker()
    cap = DEFAULT_MAX_PENDING
    for version in range(1, cap + 1):
        tracker.record("L", "C-AVG15", 100.0, version=version, kind="streamed")
    tracker.score("L", actual=100.0, when=1.0, version=cap + 1)  # deferred
    tracker.record("L", "C-AVG15", 100.0, version=cap + 1, kind="streamed")
    status = tracker.status()
    assert status["dropped"] == 0
    assert status["scored"] == cap
    assert status["pending"] == 1


def test_tracker_link_state_roundtrips_and_ram_wins():
    tracker = AccuracyTracker()
    tracker.record("L", "C-AVG15", 120.0, version=1, kind="streamed")
    tracker.score("L", actual=100.0, when=1.0, version=2)
    tracker.record("L", "AVG", 80.0, version=2, kind="degraded")
    tracker.score("L", actual=100.0, when=2.0, version=3)
    payload = loads(dumps({"accuracy": tracker.link_state("L")}))["accuracy"]

    fresh = AccuracyTracker()
    assert fresh.load_link_state("L", payload)
    assert fresh.status()["links"]["L"] == tracker.status()["links"]["L"]
    assert fresh.scored == 2
    # A second load for a link already resident is a no-op (the live
    # in-RAM state is always at least as fresh as its checkpoint).
    fresh.record("L", "C-AVG15", 90.0, version=3, kind="streamed")
    fresh.score("L", actual=90.0, when=3.0, version=4)
    assert not fresh.load_link_state("L", payload)
    assert fresh.status()["links"]["L"]["overall"]["count"] == 2
