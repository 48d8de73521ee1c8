"""Unit tests for the incremental streaming summaries."""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.classification import paper_classification
from repro.core.history import History
from repro.core.predictors.registry import ALL_PREDICTOR_NAMES, resolve
from repro.core.streaming import (
    RING_CAPACITY,
    StreamingBank,
    StreamingUnavailable,
)
from repro.store import checkpoint
from repro.units import DAY, GB, HOUR, MB

CLS = paper_classification()


def make_bank(times, values, sizes=None):
    bank = StreamingBank(CLS)
    sizes = sizes if sizes is not None else [100 * MB] * len(times)
    for t, v, s in zip(times, values, sizes):
        bank.add(float(t), float(v), int(s), 0)
    return bank


def answer(bank, spec, size=100 * MB, now=None):
    return bank.answer(resolve(spec, classification=CLS), size, now)


class TestBasicSummaries:
    def test_empty_bank_abstains_on_every_battery_spec(self):
        bank = StreamingBank(CLS)
        for name in ALL_PREDICTOR_NAMES:
            assert answer(bank, name, now=1000.0) is None, name

    def test_total_average_and_last_value(self):
        bank = make_bank([1, 2, 3], [10.0, 20.0, 60.0])
        assert answer(bank, "AVG") == pytest.approx(30.0)
        assert answer(bank, "LV") == 60.0

    def test_windowed_mean_and_median_use_ring_tail(self):
        values = np.arange(1.0, 41.0)  # 1..40
        bank = make_bank(np.arange(40.0), values)
        assert answer(bank, "AVG5") == pytest.approx(values[-5:].mean())
        assert answer(bank, "MED5") == float(np.median(values[-5:]))
        assert answer(bank, "AVG25") == pytest.approx(values[-25:].mean())
        assert answer(bank, "MED25") == float(np.median(values[-25:]))

    def test_running_median_even_and_odd(self):
        bank = make_bank([1, 2, 3], [5.0, 1.0, 9.0])
        assert answer(bank, "MED") == 5.0
        bank.add(4.0, 7.0, 100 * MB, 0)
        assert answer(bank, "MED") == 6.0  # (5+7)/2

    def test_unbanked_spec_raises_unavailable(self):
        bank = make_bank([1, 2, 3], [1.0, 2.0, 3.0])
        with pytest.raises(StreamingUnavailable):
            answer(bank, "SIZE")
        with pytest.raises(StreamingUnavailable):
            bank.answer(resolve("AVG40"), 100 * MB, None)  # window > ring


class TestTemporalWindows:
    def test_temporal_mean_evicts_by_anchor(self):
        bank = make_bank([0.0, 1 * HOUR, 6 * HOUR], [10.0, 20.0, 40.0])
        # Anchored just after the last record: 5hr window spans (1hr, 6hr].
        assert answer(bank, "AVG5hr", now=6 * HOUR) == pytest.approx(
            (20.0 + 40.0) / 2
        )

    def test_window_boundary_is_inclusive(self):
        # history.since uses side="left": an observation exactly at the
        # cutoff is inside the window.
        bank = make_bank([0.0, 5 * HOUR], [10.0, 30.0])
        assert answer(bank, "AVG5hr", now=10 * HOUR) == 30.0
        bank2 = make_bank([0.0, 5 * HOUR], [10.0, 30.0])
        assert answer(bank2, "AVG5hr", now=5 * HOUR) == pytest.approx(20.0)

    def test_empty_window_abstains(self):
        bank = make_bank([0.0], [10.0])
        assert answer(bank, "AVG5hr", now=100 * HOUR) is None

    def test_regressed_anchor_raises_unavailable(self):
        bank = make_bank([0.0, 10 * HOUR], [10.0, 20.0])
        assert answer(bank, "AVG5hr", now=10 * HOUR) == 20.0  # expires t=0
        with pytest.raises(StreamingUnavailable):
            answer(bank, "AVG5hr", now=4 * HOUR)  # window starts before boundary

    def test_anchor_defaults_to_last_observation(self):
        bank = make_bank([0.0, 1 * HOUR, 2 * HOUR], [10.0, 20.0, 30.0])
        assert answer(bank, "AVG5hr", now=None) == pytest.approx(20.0)


class TestArSummaries:
    def test_matches_generic_ar_fit(self):
        from repro.core.history import History

        times = np.arange(10.0)
        values = np.array([5.0, 7.0, 6.0, 9.0, 8.0, 11.0, 10.0, 13.0, 12.0, 15.0])
        history = History(times=times, values=values,
                         sizes=np.full(10, 100 * MB, dtype=np.int64))
        bank = make_bank(times, values)
        for spec in ("AR", "AR5d", "AR10d"):
            expected = resolve(spec).predict(history, now=times[-1])
            got = answer(bank, spec, now=times[-1])
            assert got == pytest.approx(expected, rel=1e-9), spec

    def test_below_min_points_falls_back_to_mean(self):
        bank = make_bank([1.0, 2.0], [10.0, 30.0])
        assert answer(bank, "AR", now=2.0) == pytest.approx(20.0)

    def test_constant_series_is_singular_falls_back_to_mean(self):
        bank = make_bank(np.arange(6.0), [42.0] * 6)
        assert answer(bank, "AR", now=5.0) == pytest.approx(42.0)

    def test_windowed_ar_evicts_pairs_and_min(self):
        from repro.core.history import History
        from repro.units import DAY

        times = np.array([0.0, 1.0, 2.0, 4.9, 5.0, 5.1, 5.2]) * DAY
        values = np.array([1.0, 100.0, 2.0, 50.0, 60.0, 55.0, 65.0])
        history = History(times=times, values=values,
                         sizes=np.full(7, 100 * MB, dtype=np.int64))
        bank = make_bank(times, values)
        anchor = float(times[-1])
        expected = resolve("AR5d").predict(history, now=anchor)
        assert answer(bank, "AR5d", now=anchor) == pytest.approx(expected, rel=1e-9)


class TestClassifiedVariants:
    def test_per_class_series_are_independent(self):
        sizes = [10 * MB, 1 * GB, 10 * MB, 1 * GB]
        values = [10.0, 1000.0, 20.0, 2000.0]
        bank = make_bank(np.arange(4.0), values, sizes=sizes)
        assert answer(bank, "C-AVG", size=10 * MB) == pytest.approx(15.0)
        assert answer(bank, "C-AVG", size=1 * GB) == pytest.approx(1500.0)
        assert answer(bank, "AVG") == pytest.approx(757.5)

    def test_unseen_class_abstains_without_fallback(self):
        bank = make_bank([1.0], [10.0], sizes=[10 * MB])
        assert answer(bank, "C-AVG", size=1 * GB) is None

    def test_fallback_retries_unclassified(self):
        bank = make_bank([1.0, 2.0], [10.0, 30.0], sizes=[10 * MB, 10 * MB])
        predictor = resolve("C-AVG", classification=CLS, fallback=True)
        assert bank.answer(predictor, 1 * GB, None) == pytest.approx(20.0)

    def test_classification_mismatch_raises_unavailable(self):
        bank = make_bank([1.0], [10.0])
        foreign = resolve("C-AVG", classification=paper_classification())
        with pytest.raises(StreamingUnavailable):
            bank.answer(foreign, 100 * MB, None)


class TestRebuild:
    def test_rebuild_counts_and_reports_reason(self):
        reasons = []
        bank = StreamingBank(CLS, on_rebuild=reasons.append)
        bank.rebuild(np.array([1.0]), np.array([5.0]),
                     np.array([100 * MB]), np.array([0]), reason="out_of_order")
        assert bank.rebuilds == 1
        assert reasons == ["out_of_order"]

    def test_rebuilt_bank_resumes_incrementally(self):
        times = np.arange(50.0)
        values = np.linspace(1.0, 50.0, 50)
        sizes = np.full(50, 100 * MB, dtype=np.int64)
        ops = np.zeros(50, dtype=np.int8)

        rebuilt = StreamingBank(CLS)
        rebuilt.rebuild(times[:40], values[:40], sizes[:40], ops[:40])
        folded = make_bank(times[:40], values[:40])
        for t, v in zip(times[40:], values[40:]):
            rebuilt.add(t, v, 100 * MB, 0)
            folded.add(t, v, 100 * MB, 0)
        for spec in ("AVG", "LV", "AVG5", "MED", "MED25", "AR"):
            a = answer(rebuilt, spec, now=times[-1])
            b = answer(folded, spec, now=times[-1])
            assert a == pytest.approx(b, rel=1e-12), spec


class TestAnchorDefault:
    def test_all_data_ar_needs_no_anchor_after_windows_expired(self):
        times = np.arange(12.0) * HOUR
        values = np.array([5.0, 7.0, 6.0, 9.0, 8.0, 11.0,
                           10.0, 13.0, 12.0, 15.0, 14.0, 17.0])
        bank = make_bank(times, values)
        for spec in ("AVG5hr", "AVG15hr", "AVG25hr"):
            assert answer(bank, spec, now=1000 * HOUR) is None  # all expired
        history = History(times=times, values=values,
                          sizes=np.full(12, 100 * MB, dtype=np.int64))
        # Answered by the bank (no StreamingUnavailable -> no snapshot
        # recompute), and equal to the generic predictor.
        assert answer(bank, "AR", now=None) == pytest.approx(
            resolve("AR").predict(history, now=None), rel=1e-9)
        assert answer(bank, "AVG", now=None) == pytest.approx(values.mean())


# ----------------------------------------------------------------------
# the memory shape: one (time, value) column per series
# ----------------------------------------------------------------------
N_FEED = 10_000
FEED_TIMES = np.arange(N_FEED, dtype=np.float64) * HOUR
FEED_VALUES = 50.0 + 40.0 * np.sin(np.arange(N_FEED) * 0.37) \
    + (np.arange(N_FEED) % 7)
FEED_SIZES = np.array([10 * MB, 100 * MB, 500 * MB, 1 * GB] * (N_FEED // 4),
                      dtype=np.int64)
FEED_OPS = np.zeros(N_FEED, dtype=np.int8)
WINDOW_SPECS = ("AVG5hr", "AVG15hr", "AVG25hr", "AR5d", "AR10d")


def feed(bank, lo, hi):
    bank.extend(FEED_TIMES[lo:hi], FEED_VALUES[lo:hi],
                FEED_SIZES[lo:hi], FEED_OPS[lo:hi])


def all_series(bank):
    return [bank._global, *bank._classes.values()]


def arrays_in(node):
    if isinstance(node, np.ndarray):
        return [node]
    if isinstance(node, dict):
        return [a for child in node.values() for a in arrays_in(child)]
    return []


def exact_repr(state):
    """Every bit of a state dict as text (the codec sorts dict keys, so
    key order is not part of the state)."""
    def canonical(node):
        if isinstance(node, dict):
            return [(key, canonical(node[key])) for key in sorted(node)]
        return node

    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        return repr(canonical(state))


def roundtrip(bank):
    revived = StreamingBank(CLS)
    revived.load_state(checkpoint.loads(checkpoint.dumps(bank.state())))
    return revived


def queried_bank():
    """The feed with every window queried each 100 records, checked
    against the generic predictors and the column bound at every round."""
    bank = StreamingBank(CLS)
    sizes = [int(s) for s in FEED_SIZES[:4]]
    for hi in range(100, N_FEED + 1, 100):
        feed(bank, hi - 100, hi)
        now = float(FEED_TIMES[hi - 1]) + 60.0
        history = History(times=FEED_TIMES[:hi], values=FEED_VALUES[:hi],
                          sizes=FEED_SIZES[:hi])
        for spec in WINDOW_SPECS:
            for name, size in [(spec, sizes[0])] + [("C-" + spec, s) for s in sizes]:
                predictor = resolve(name, classification=CLS)
                expected = predictor.predict(history, target_size=size, now=now)
                assert bank.answer(predictor, size, now) == pytest.approx(
                    expected, rel=1e-9), (name, size, hi)
        for series in all_series(bank):
            live = series._times[:series._n]
            population = int((live >= now - 10 * DAY).sum())
            # Half-trimming keeps the column within twice what the
            # widest window and the count windows can still reach.
            assert series._n <= 2 * (population + RING_CAPACITY), hi
            assert all(0 <= c.start <= series._n for c in series._cursors)
    return bank


class TestMemoryShape:
    def test_unqueried_bank_holds_each_observation_once_per_series(self):
        bank = StreamingBank(CLS)
        feed(bank, 0, N_FEED)
        state = bank.state()
        # Format 3 measures 42.1 B/record here (56.8 raw: two (t, v)
        # copies and the median heaps; a sin feed's values barely deflate).
        assert len(checkpoint.dumps(state)) <= 48 * N_FEED
        # (t, v) once in the link series and once in its class series.
        assert sum(len(a) for a in arrays_in(state)) == 2 * 2 * N_FEED
        for series in all_series(bank):
            assert series._n == series.count

    def test_resident_bytes_per_record(self):
        # 400 records in 4 classes: the columns (43 B/record), the MED
        # heaps (65) and the fixed per-series part measure 141 in all; a
        # per-direction copy of every bandwidth beside them measured 181.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bank = StreamingBank(CLS)
            for i in range(400):
                bank.add(float(FEED_TIMES[i]), float(FEED_VALUES[i]),
                         int(FEED_SIZES[i]), 0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert bank.count == 400 and len(bank._classes) == 4
        assert held <= 160 * 400

    def test_queried_windows_trim_the_column_and_stay_exact(self):
        bank = queried_bank()
        for series in all_series(bank):
            assert series._n < series.count / 4  # the dead prefix is gone
        assert exact_repr(roundtrip(bank).state()) == exact_repr(bank.state())

    def test_state_roundtrip_is_repr_identical(self):
        bank = StreamingBank(CLS)
        feed(bank, 0, 400)
        for spec in WINDOW_SPECS:  # cursors mid-column, no trim yet
            answer(bank, spec, now=float(FEED_TIMES[399]))
        assert bank._global._n == 400
        assert min(c.start for c in bank._global._cursors) > 0
        revived = roundtrip(bank)
        assert exact_repr(revived.state()) == exact_repr(bank.state())
        # ... and the revived bank keeps folding and trimming identically.
        for b in (bank, revived):
            feed(b, 400, 1500)
            for spec in WINDOW_SPECS:
                answer(b, spec, now=float(FEED_TIMES[1499]))
        assert bank._global._n < 1500
        assert exact_repr(revived.state()) == exact_repr(bank.state())

    def test_state_with_an_earlier_builds_mds_keys_loads(self):
        """Checkpoints written before the MDS statistics left the bank
        carry four more keys; they load, and are not written back."""
        bank = StreamingBank(CLS)
        feed(bank, 0, 400)
        state = bank.state()
        earlier = dict(
            state, read_op=0, recent_reads=FEED_VALUES[336:400].tolist(),
            op_stats={"0": {"count": 400, "mean": 1.0, "m2": 2.0, "min": 0.5,
                            "max": 9.0, "lower": [-1.0], "upper": [2.0]}},
            class_read={"10MB": {"sum": np.longdouble(7.0), "count": 100}},
        )
        revived = StreamingBank(CLS)
        revived.load_state(checkpoint.loads(checkpoint.dumps(earlier)))
        now = float(FEED_TIMES[399]) + 60.0
        for name in ALL_PREDICTOR_NAMES:
            for size in FEED_SIZES[:4].tolist():
                assert repr(answer(revived, name, size, now)) == repr(
                    answer(bank, name, size, now)), (name, size)
        assert exact_repr(revived.state()) == exact_repr(bank.state())
        assert set(revived.state()) == set(state) == {
            "count", "rebuilds", "global", "classes"}
