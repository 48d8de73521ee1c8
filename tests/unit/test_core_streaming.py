"""Unit tests for the incremental streaming summaries."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.classification import paper_classification
from repro.core.history import History
from repro.core.predictors.registry import ALL_PREDICTOR_NAMES, resolve
from repro.core.streaming import (
    RING_CAPACITY,
    StreamingBank,
    StreamingUnavailable,
)
from repro.data.ingest import load_ulm
from repro.store import checkpoint
from repro.units import DAY, GB, HOUR, MB

CLS = paper_classification()
DATA_DIR = Path(__file__).resolve().parents[2] / "data"


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

    def test_near_singular_fit_has_one_answer_on_and_off_the_bank(self):
        """The first lag pair differs by 2 ulps: lag variance ~1e-26.  The
        bank and the generic predictor its caller falls back to (here: an
        anchor behind the expired boundary) apply one singular rule and
        answer the window mean; the parent's two-pass generic fit
        extrapolated the same history to 4.4e12."""
        times = np.array([1.0, 2.0, 3.0])
        values = np.array([1000.0, 1000.0000000000002, 1001.0])
        history = History(times=times, values=values,
                          sizes=np.full(3, 100 * MB, dtype=np.int64))
        bank = make_bank(times, values)
        assert answer(bank, "AR", now=4.0) == 1000.3333333333334
        assert answer(bank, "AR5d", now=100.0) == 1000.3333333333334
        with pytest.raises(StreamingUnavailable):
            answer(bank, "AR5d", now=50.0)
        for spec in ("AR", "AR5d"):
            assert resolve(spec).predict(history, now=50.0) == 1000.3333333333334

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


# ----------------------------------------------------------------------
# one fold: add, extend and rebuild leave the same accumulators
# ----------------------------------------------------------------------
def exact_repr(state):
    """Every bit of a bank state as text."""
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        return repr(state)


def assert_one_fold(times, values, sizes):
    """The ``add`` chain, 16-row ``extend`` runs and a ``rebuild`` over a
    bank that held something else: the same ``fixed`` bytes and the same
    ``ld``, ``f8`` and ``idx`` pools, but for the rebuild count."""
    ops = np.zeros(len(times), dtype=np.int8)
    added = make_bank(times, values, sizes)
    chunked = StreamingBank(CLS)
    for lo in range(0, len(times), 16):
        chunked.extend(times[lo:lo + 16], values[lo:lo + 16],
                       sizes[lo:lo + 16], ops[lo:lo + 16])
    rebuilt = make_bank([1.0, 2.0], [5.0, 7.0], [10 * MB, 1 * GB])
    rebuilt.rebuild(times, values, sizes, ops)
    assert (rebuilt.rebuilds, rebuilt.count) == (1, len(times))
    rebuilt.rebuilds = 0
    assert list(rebuilt._classes) == list(added._classes)  # first appearance
    reference = exact_repr(added.state())
    assert exact_repr(chunked.state()) == reference
    assert exact_repr(rebuilt.state()) == reference


@st.composite
def in_order_series(draw, max_rows):
    """End times that never go back (and often stand still), bandwidths
    across six decades, sizes from the first 1-4 paper classes."""
    n = draw(st.integers(0, max_rows))
    gaps = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        [0.0, 0.0, 1.0, 61.5, HOUR / 3, 7 * HOUR, 3 * DAY])))
    values = draw(hnp.arrays(np.float64, n, elements=st.floats(1e3, 1e9)))
    classes = [10 * MB, 100 * MB, 500 * MB, 1 * GB][:draw(st.integers(1, 4))]
    sizes = draw(hnp.arrays(np.int64, n, elements=st.sampled_from(classes)))
    return 1e9 + np.cumsum(gaps), values, sizes


class TestOneFold:
    @pytest.mark.parametrize("log_name", [
        "aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm",
        "dec-LBL-ANL.ulm", "dec-ISI-ANL.ulm"])
    def test_rebuild_is_the_add_chain_on_a_shipped_log(self, log_name):
        frame = load_ulm(DATA_DIR / log_name, cache=False)
        assert frame.is_sorted
        assert_one_fold(frame.end_times, frame.bandwidths, frame.sizes)

    @given(in_order_series(max_rows=120))
    @settings(max_examples=40, deadline=None)
    def test_rebuild_is_the_add_chain(self, series):
        assert_one_fold(*series)

    @pytest.mark.exhaustive
    @given(in_order_series(max_rows=600))
    @settings(max_examples=300, deadline=None)
    def test_rebuild_is_the_add_chain_exhaustive(self, series):
        assert_one_fold(*series)


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
N_MORE = 1_100  # rows past the feed, for what a revived bank does next
FEED_TIMES = np.arange(N_FEED + N_MORE, dtype=np.float64) * HOUR
FEED_VALUES = 50.0 + 40.0 * np.sin(np.arange(N_FEED + N_MORE) * 0.37) \
    + (np.arange(N_FEED + N_MORE) % 7)
FEED_SIZES = np.array(
    [10 * MB, 100 * MB, 500 * MB, 1 * GB] * ((N_FEED + N_MORE) // 4),
    dtype=np.int64)
FEED_OPS = np.zeros(N_FEED + N_MORE, dtype=np.int8)
WINDOW_SPECS = ("AVG5hr", "AVG15hr", "AVG25hr", "AR5d", "AR10d")


def feed(bank, lo, hi):
    bank.extend(FEED_TIMES[lo:hi], FEED_VALUES[lo:hi],
                FEED_SIZES[lo:hi], FEED_OPS[lo:hi])


def all_series(bank):
    return [bank._global, *bank._classes.values()]


def roundtrip(bank, times=FEED_TIMES, sizes=FEED_SIZES):
    """``bank`` restored from its checkpoint over the rows it folded: the
    first ``bank.count`` of ``times`` / ``FEED_VALUES`` / ``sizes``."""
    n = bank.count
    revived = StreamingBank(CLS)
    revived.load_state(
        checkpoint.loads(checkpoint.dumps(bank.state()))["bank"],
        times[:n], FEED_VALUES[:n], sizes[:n])
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


def all_answers(bank, now):
    return [repr(answer(bank, name, size, now))
            for name in ALL_PREDICTOR_NAMES for size in FEED_SIZES[:4].tolist()]


def explicit_and_skipped(bank, sizes=FEED_SIZES):
    """Per class: rows its column holds from before the link column's
    start, and rows of the link column it has dropped (format 4 spelled
    the first out and skipped the second)."""
    link = bank._global
    tags = bank._tags(sizes[bank.count - link._n:bank.count])
    tagged = {tag: int((tags == tag).sum()) for tag in bank._classes}
    return {tag: (max(series._n - tagged[tag], 0), max(tagged[tag] - series._n, 0))
            for tag, series in bank._classes.items()}


class TestMemoryShape:
    def test_unqueried_bank_holds_each_observation_once_per_series(self):
        bank = StreamingBank(CLS)
        feed(bank, 0, N_FEED)
        fixed, ld, f8, idx = state = bank.state()
        # No row: five series' structs, sums and min chains, 590 B
        # however long the feed (format 4 measured 10.3 B/record here,
        # format 3 42.1).
        assert len(checkpoint.dumps(state)) <= 700
        assert len(f8) == 0 and len(fixed) < 1024
        for series in all_series(bank):
            assert series._n == series.count

    def test_a_small_link_checkpoints_in_about_640_bytes(self):
        # 30 rows in 4 classes, as the ledger's cold links are (1,961 B
        # in format 3, 1,073 in format 4); this one measures 635 with a
        # row digest.
        rng = np.random.default_rng(21)
        bank = StreamingBank(CLS)
        times = 1e9 + np.cumsum(rng.uniform(60.0, 7200.0, 30))
        for t, v, s in zip(times, rng.lognormal(15.0, 0.6, 30), FEED_SIZES):
            bank.add(float(t), float(v), int(s), 0)
        payload = {"meta": {"link": "lbl-anl", "version": 30, "n": 30,
                            "row_digest": bytes(range(16)),
                            "classification": "50,250,750|10MB,100MB,500MB,1GB"},
                   "bank": bank.state()}
        assert len(checkpoint.dumps(payload)) <= 700

    def test_resident_bytes_per_record(self):
        # 400 records in 4 classes: the columns, the MED heaps (65) and
        # the fixed per-series part measure 138 in all; a per-direction
        # copy of every bandwidth beside them measured 181.
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
            assert sum(map(len, series._dropped)) == series.count - series._n
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

    def test_same_state_same_bytes(self):
        bank = queried_bank()
        blob = checkpoint.dumps(bank.state())
        assert checkpoint.dumps(bank.state()) == blob
        assert checkpoint.dumps(roundtrip(bank).state()) == blob


# ----------------------------------------------------------------------
# evict -> revive on the cases the one-column layout introduces
# ----------------------------------------------------------------------
def _link_windows_only():
    """(a) Only the link's windows are queried: its column is trimmed,
    the class columns reach back before it starts."""
    bank = StreamingBank(CLS)
    for hi in range(100, 2001, 100):
        feed(bank, hi - 100, hi)
        for spec in WINDOW_SPECS:
            answer(bank, spec, now=float(FEED_TIMES[hi - 1]))
    assert all(explicit > 0 and skipped == 0
               for explicit, skipped in explicit_and_skipped(bank).values())
    return bank, FEED_TIMES, FEED_SIZES


def _one_class_only():
    """(b) Only one class is queried: its column is trimmed, the link's
    still holds rows the class has dropped."""
    bank = StreamingBank(CLS)
    for hi in range(100, 2001, 100):
        feed(bank, hi - 100, hi)
        for spec in WINDOW_SPECS:
            answer(bank, "C-" + spec, 10 * MB, now=float(FEED_TIMES[hi - 1]))
    shape = explicit_and_skipped(bank)
    assert shape[0][0] == 0 and shape[0][1] > 0
    assert all(shape[tag] == (0, 0) for tag in (1, 2, 3))
    return bank, FEED_TIMES, FEED_SIZES


def _equal_timestamps():
    """(c) Every timestamp twice, in two different classes."""
    times = np.repeat(FEED_TIMES[::2], 2)
    bank = StreamingBank(CLS)
    bank.extend(times[:600], FEED_VALUES[:600], FEED_SIZES[:600], FEED_OPS[:600])
    for spec in WINDOW_SPECS:
        answer(bank, spec, now=float(times[599]))
    return bank, times, FEED_SIZES


def _just_rebuilt():
    """(d) Rebuilt from the sorted arrays after an out-of-order insert."""
    bank = StreamingBank(CLS)
    feed(bank, 0, 300)
    feed(bank, 301, 600)
    bank.rebuild(FEED_TIMES[:600], FEED_VALUES[:600], FEED_SIZES[:600],
                 FEED_OPS[:600], reason="out_of_order")
    assert bank.rebuilds == 1
    return bank, FEED_TIMES, FEED_SIZES


def _trimmed():
    """(e) Every series queried and trimmed all the way along."""
    return queried_bank(), FEED_TIMES, FEED_SIZES


def _class_gone_from_the_link_column():
    """(f) A class whose rows all lie before the link column's start."""
    sizes = np.where(np.arange(N_FEED + N_MORE) < 40, 1 * GB, 10 * MB)
    bank = StreamingBank(CLS)
    for hi in range(100, 2001, 100):
        bank.extend(FEED_TIMES[hi - 100:hi], FEED_VALUES[hi - 100:hi],
                    sizes[hi - 100:hi], FEED_OPS[hi - 100:hi])
        for spec in WINDOW_SPECS:
            answer(bank, spec, now=float(FEED_TIMES[hi - 1]))
    assert explicit_and_skipped(bank, sizes)[3] == (40, 0)
    assert not (bank._tags(sizes[bank.count - bank._global._n:bank.count])
                == 3).any()
    return bank, FEED_TIMES, sizes


@pytest.mark.parametrize("case", [
    _link_windows_only, _one_class_only, _equal_timestamps, _just_rebuilt,
    _trimmed, _class_gone_from_the_link_column])
def test_revived_bank_is_the_bank(case):
    bank, times, sizes = case()
    revived = roundtrip(bank, times, sizes)
    assert exact_repr(revived.state()) == exact_repr(bank.state())
    lo = bank.count
    now = float(times[lo - 1]) + 60.0
    assert all_answers(revived, now) == all_answers(bank, now)
    # ... and they stay one bank through more rows and more queries.
    for b in (bank, revived):
        b.extend(times[lo:lo + N_MORE], FEED_VALUES[lo:lo + N_MORE],
                 sizes[lo:lo + N_MORE], FEED_OPS[lo:lo + N_MORE])
    now = float(times[lo + N_MORE - 1]) + 60.0
    assert all_answers(revived, now) == all_answers(bank, now)
    assert exact_repr(revived.state()) == exact_repr(bank.state())
