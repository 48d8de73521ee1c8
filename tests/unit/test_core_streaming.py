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
    _BANK,
    StreamingBank,
    StreamingUnavailable,
    _ClassSeries,
)
from repro.data.ingest import load_ulm
from repro.logs.stats import RunningMedian
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

    def test_a_row_joins_the_class_classify_names(self):
        # A class index is the number of edges at or below the size: one
        # bisect for a row, one searchsorted for a batch.
        sizes = [750 * MB, 1, 50 * MB - 1, 50 * MB, 250 * MB, 750 * MB - 1, 5 * GB]
        expected = [CLS.labels.index(CLS.classify(size)) for size in sizes]
        for size, index in zip(sizes, expected):
            assert list(make_bank([1.0], [1.0], [size])._classes) == [index]
        batch = StreamingBank(CLS)
        batch.extend(np.arange(7.0), [1.0] * 7, sizes, [0] * 7)
        assert list(batch._classes) == list(dict.fromkeys(expected))

    @pytest.mark.parametrize("size", [0, -1])
    def test_a_nonpositive_size_raises_as_classify_does(self, size):
        bank = make_bank([1.0], [10.0])
        with pytest.raises(ValueError, match="size must be positive"):
            bank.add(2.0, 10.0, size, 0)
        with pytest.raises(ValueError, match="size must be positive"):
            StreamingBank(CLS).extend([1.0], [10.0], [size], [0])
        with pytest.raises(ValueError, match="size must be positive"):
            answer(bank, "C-AVG", size=size)


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
    ``ld`` and ``f8`` pools, but for the rebuild count, and every slot of
    every series (the sums a checkpoint leaves to the rows included)."""
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
    reference = [slots(series) for series in all_series(added)]
    for bank in (chunked, rebuilt):
        assert [slots(series) for series in all_series(bank)] == reference


@st.composite
def in_order_series(draw, max_rows, min_rows=0):
    """End times that never go back (and often stand still), bandwidths
    across six decades, sizes from the first 1-4 paper classes."""
    n = draw(st.integers(min_rows, max_rows))
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
        frame = load_ulm(DATA_DIR / log_name)
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


# ----------------------------------------------------------------------
# MED: one sorted column, against sorted() and (a + b) / 2.0
# ----------------------------------------------------------------------
def sorted_median(values):
    """The ledger oracle's median: ``sorted()``, then the middle value or
    the two middle values' ``(a + b) / 2.0``."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


#: Bandwidth-like values: a small pool, so duplicates are common, and any
#: positive float up to the record ceiling.
MEDIAN_VALUES = st.one_of(
    st.sampled_from([1.0, 2.0, 2.5, 1e6, 1e6 + 1.0, 1e9]),
    st.floats(min_value=5e-324, max_value=2.0 ** 63, exclude_max=True))

MEDIAN_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), MEDIAN_VALUES),
    st.tuples(st.just("extend"), st.lists(MEDIAN_VALUES, max_size=40)),
    st.tuples(st.just("revive"), st.none()),
), max_size=60)


def assert_median_is_sorted_median(steps):
    """``add``, ``extend``, and a revival (a fresh median extended over
    every value seen, as ``SeriesSummaries._load`` builds one), each
    followed by ``value``: ``repr``-identical to :func:`sorted_median`."""
    median, seen = RunningMedian(), []
    assert median.value() is None
    for step, arg in steps:
        if step == "add":
            median.add(arg)
            seen.append(arg)
        elif step == "extend":
            median.extend(np.array(arg, dtype=np.float64))
            seen += arg
        else:
            median = RunningMedian()
            median.extend(np.array(seen, dtype=np.float64))
        expected = sorted_median(seen) if seen else None
        assert repr(median.value()) == repr(expected), (step, len(seen))
    assert median._sorted.tolist() == sorted(seen)


class TestRunningMedian:
    def test_one_row_odd_even_and_duplicates(self):
        assert_median_is_sorted_median([
            ("add", 3.0), ("add", 1.0), ("extend", [2.0, 2.0, 9.0]),
            ("revive", None), ("add", 2.0), ("extend", []), ("add", 0.5)])
        # (a + b) / 2.0, not a / 2 + b / 2: halving the smallest
        # subnormal first rounds it to zero.
        assert_median_is_sorted_median([("add", 5e-324), ("add", 5e-324)])

    @given(MEDIAN_STEPS)
    @settings(max_examples=100, deadline=None)
    def test_any_interleaving_is_the_sorted_median(self, steps):
        assert_median_is_sorted_median(steps)

    @pytest.mark.exhaustive
    @given(st.lists(MEDIAN_STEPS, min_size=1, max_size=8).map(
        lambda runs: [step for run in runs for step in run]))
    @settings(max_examples=1000, deadline=None)
    def test_any_interleaving_is_the_sorted_median_exhaustive(self, steps):
        assert_median_is_sorted_median(steps)


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
# the memory shape: the link's rows once, a class series their positions
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


def series_rows(series):
    """Where a series' rows are among the link's: the link series reads
    them in place, a class series keeps their positions."""
    if isinstance(series, _ClassSeries):
        return series._pos[:series.count]
    return np.arange(series.count)


def assert_every_row_of_its_class(bank, sizes=FEED_SIZES):
    """Each class series holds the position of every row of its class."""
    tags = bank.classification.indices(sizes[:bank.count])
    for tag, series in bank._classes.items():
        np.testing.assert_array_equal(series_rows(series),
                                      np.flatnonzero(tags == tag))


def roundtrip(bank, times=FEED_TIMES, sizes=FEED_SIZES, values=FEED_VALUES):
    """``bank`` restored from its checkpoint over the rows it folded: the
    first ``bank.count`` of ``times`` / ``values`` / ``sizes``."""
    n = bank.count
    revived = StreamingBank(CLS)
    revived.load_state(
        checkpoint.loads(checkpoint.dumps(bank.state()))["bank"],
        (times[:n], values[:n], sizes[:n], np.zeros(n, dtype=np.int8)), n)
    return revived


def queried_bank():
    """The feed with every window queried each 100 records, checked
    against the generic predictors at every round."""
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
            assert all(0 <= c.start <= series.count for c in series._cursors)
    return bank


def all_answers(bank, now):
    return [repr(answer(bank, name, size, now))
            for name in ALL_PREDICTOR_NAMES for size in FEED_SIZES[:4].tolist()]


def window_start(series):
    """The row the series' widest time window starts at."""
    return min(c.start for c in series._cursors)


class TestMemoryShape:
    def test_unqueried_bank_holds_each_observation_once_per_series(self):
        bank = StreamingBank(CLS)
        feed(bank, 0, N_FEED)
        fixed, ld, f8 = state = bank.state()
        # No row and, no window having moved, no sum: five series'
        # cursors, 66 B however long the feed (355 with format 8's sums,
        # 590 with format 5's counts and min chains; format 4 measured
        # 10.3 B/record here, format 3 42.1).
        assert len(checkpoint.dumps(state)) <= 100
        assert len(f8) == 0 and len(fixed) < 1024
        assert_every_row_of_its_class(bank)

    def test_a_small_link_checkpoints_in_about_100_bytes(self):
        # 30 rows in 4 classes, as the ledger's cold links are (1,961 B
        # in format 3, 1,073 in format 4, 635 in format 5, 458 in format
        # 6 with the link and classification names, 405 in format 8 with
        # a row digest and a classification digest); this one measures
        # 96: no window has moved, so no sum is stored.
        rng = np.random.default_rng(21)
        bank = StreamingBank(CLS)
        times = 1e9 + np.cumsum(rng.uniform(60.0, 7200.0, 30))
        for t, v, s in zip(times, rng.lognormal(15.0, 0.6, 30), FEED_SIZES):
            bank.add(float(t), float(v), int(s), 0)
        payload = {"meta": {"version": 30, "n": 30,
                            "row_digest": bytes(range(16)),
                            "classification": checkpoint.fingerprint(
                                "50000000,250000000,750000000"
                                "|10MB,100MB,500MB,1GB")},
                   "bank": bank.state()}
        assert len(checkpoint.dumps(payload)) <= 120

    def test_resident_bytes_per_record(self):
        # 400 records in 4 classes: the link's rows (25 B a row in 512
        # slots), a class series' positions, the MED sorted columns and
        # the fixed per-series part measure about 85 in all.  With the
        # rows held outside the bank and a float64 (time, value) column
        # per series inside it, the bank alone measured 89; with MED as
        # two heaps of boxed floats 138, and a per-direction copy of
        # every bandwidth beside those 181.  A second copy of the rows
        # (16 B a row or more) would break the bound.
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
        assert held <= 95 * 400

    def test_queried_windows_keep_every_row_and_stay_exact(self):
        bank = queried_bank()
        for series in all_series(bank):
            assert window_start(series) > series.count / 2  # windows moved on
            assert len(series._median._sorted) == series.count  # MED holds every row
        # ... and no series let go of a row its windows left behind.
        assert_every_row_of_its_class(bank)
        never_queried = StreamingBank(CLS)
        feed(never_queried, 0, N_FEED)
        now = float(FEED_TIMES[N_FEED - 1]) + 60.0
        for got, want in zip(all_answers(bank, now), all_answers(never_queried, now)):
            assert float(got) == pytest.approx(float(want), rel=1e-12)
        assert exact_repr(roundtrip(bank).state()) == exact_repr(bank.state())

    def test_state_roundtrip_is_repr_identical(self):
        bank = StreamingBank(CLS)
        feed(bank, 0, 400)
        for spec in WINDOW_SPECS:  # cursors mid-column
            answer(bank, spec, now=float(FEED_TIMES[399]))
        assert window_start(bank._global) > 0
        revived = roundtrip(bank)
        assert exact_repr(revived.state()) == exact_repr(bank.state())
        # ... and the revived bank keeps folding and expiring identically.
        for b in (bank, revived):
            feed(b, 400, 1500)
            for spec in WINDOW_SPECS:
                answer(b, spec, now=float(FEED_TIMES[1499]))
        assert exact_repr(revived.state()) == exact_repr(bank.state())

    def test_same_state_same_bytes(self):
        bank = queried_bank()
        blob = checkpoint.dumps(bank.state())
        assert checkpoint.dumps(bank.state()) == blob
        assert checkpoint.dumps(roundtrip(bank).state()) == blob


# ----------------------------------------------------------------------
# the rows: snapshots, arrival order, growth
# ----------------------------------------------------------------------
def add_rows(bank, times):
    for t in times:
        bank.add(float(t), 10.0 * t, 10 * MB, 0)


class TestRows:
    def test_add_and_views(self):
        bank = StreamingBank(CLS)
        times = np.arange(200.0)  # past the first slots: several growths
        for t in times:
            bank.add(float(t), 10.0 * t, (int(t) + 1) * MB, int(t) % 2)
        got_times, got_values, got_sizes, got_ops = bank.views()
        assert bank.count == len(got_times) == 200
        assert got_times.tolist() == times.tolist()
        assert got_values.tolist() == (10.0 * times).tolist()
        assert got_sizes.tolist() == [(int(t) + 1) * MB for t in times]
        assert got_ops.tolist() == [int(t) % 2 for t in times]

    def test_snapshot_survives_growth_and_merge(self):
        bank = StreamingBank(CLS)
        add_rows(bank, [1.0, 3.0])
        times, values, _, _ = bank.views()
        bank.add(2.0, 20.0, 10 * MB, 0)   # out of order: merged into fresh columns
        add_rows(bank, np.arange(4.0, 200.0))  # several growths
        assert times.tolist() == [1.0, 3.0]
        assert values.tolist() == [10.0, 30.0]
        assert bank.views()[0].tolist() == [1.0, 2.0, 3.0, *np.arange(4.0, 200.0)]
        assert bank.views()[1][:3].tolist() == [10.0, 20.0, 30.0]

    def test_equal_keys_keep_arrival_order(self):
        one_by_one, batched = StreamingBank(CLS), StreamingBank(CLS)
        for bank in (one_by_one, batched):
            bank.extend([1.0, 5.0], [1.0, 5.0], [10 * MB] * 2, [0, 0])
        late = ([5.0, 2.0, 7.0, 5.0], [50.0, 2.0, 7.0, 51.0])
        for t, v in zip(*late):
            one_by_one.add(t, v, 10 * MB, 0)
        batched.extend(*late, [10 * MB] * 4, [0] * 4)
        # A row lands after the rows that share its end time.
        for bank in (one_by_one, batched):
            assert bank.views()[1].tolist() == [1.0, 2.0, 5.0, 50.0, 51.0, 7.0]
        # ... and they hold one fold, but for the rebuilds each counted.
        (fixed, *pools), (theirs, *their_pools) = batched.state(), one_by_one.state()
        assert (batched.rebuilds, one_by_one.rebuilds) == (1, 2)
        assert fixed[_BANK.size:] == theirs[_BANK.size:]
        assert exact_repr(pools) == exact_repr(their_pools)

    def test_late_rows_grow_the_columns_as_appends_do(self):
        bank = StreamingBank(CLS)
        add_rows(bank, np.arange(400.0))
        capacity = len(bank._columns[0])
        for i in range(20):  # one late row at a time, each a merge
            bank.add(10.5 + i, -1.0, 10 * MB, 0)
        assert bank.count == 420 and bank.rebuilds == 20
        assert len(bank._columns[0]) == capacity == 512


# ----------------------------------------------------------------------
# a revived bank holds what the folded one holds, slot for slot
# ----------------------------------------------------------------------
def slots(series):
    """Every slot of a series and of each of its summaries, as exact
    text; its rows as their positions and values.  ``state()``
    leaves out what revival derives (the min chains, ``MED``), so it
    cannot tell a wrong derivation from a right one; this can."""
    out = {"count": series.count,
           "last": exact_repr((series.last, series.last_time)),
           "rows": series_rows(series).astype(np.int64).tobytes(),
           "values": series._values(0, series.count).tobytes(),
           "MED": bytes(series._median._sorted)}
    for name, summaries in (("AVG{}hr", series._temporal), ("AR{}d", series._ar)):
        for key, summary in summaries.items():
            for slot in type(summary).__slots__:
                out[f"{name.format(key)}.{slot}"] = exact_repr(
                    getattr(summary, slot))
    return out


#: How far past its last row a series is queried.
LAG = st.sampled_from([0.0, 60.0, 6 * HOUR, DAY, 4 * DAY, 12 * DAY])


def assert_revival_restores_every_slot(times, values, sizes, lags):
    """Fold 16-row runs, query every window at an advancing ``now`` (so
    expiry runs), and revive after every run."""
    ops = np.zeros(len(times), dtype=np.int8)
    bank = StreamingBank(CLS)
    now = -np.inf
    for step, lo in enumerate(range(0, len(times), 16)):
        hi = lo + 16
        bank.extend(times[lo:hi], values[lo:hi], sizes[lo:hi], ops[lo:hi])
        now = max(now, float(times[:hi][-1]) + lags[step % len(lags)])
        for spec in WINDOW_SPECS:
            answer(bank, spec, now=now)
            for size in dict.fromkeys(sizes[:hi].tolist()):
                answer(bank, "C-" + spec, size, now=now)
        revived = roundtrip(bank, times, sizes, values)
        assert list(revived._classes) == list(bank._classes)
        for mine, theirs in zip(all_series(revived), all_series(bank)):
            assert slots(mine) == slots(theirs), step


class TestRevivedSlots:
    LAGS = st.lists(LAG, min_size=1, max_size=4)

    @given(in_order_series(max_rows=160, min_rows=32), LAGS)
    @settings(max_examples=40, deadline=None)
    def test_revival_restores_every_slot(self, series, lags):
        assert_revival_restores_every_slot(*series, lags)

    @pytest.mark.exhaustive
    @given(in_order_series(max_rows=600, min_rows=32), LAGS)
    @settings(max_examples=300, deadline=None)
    def test_revival_restores_every_slot_exhaustive(self, series, lags):
        assert_revival_restores_every_slot(*series, lags)


# ----------------------------------------------------------------------
# a window that has expired nothing holds the all-data sums
# ----------------------------------------------------------------------
@st.composite
def arrivals(draw, max_rows):
    """A series and the runs it arrives in, ``(how, lo, hi, lag)``: rows
    ``[lo, hi)`` one ``add`` at a time, as one ``extend``, or as one
    ``extend`` backwards (late rows: a merge and a refold), then every
    window queried ``lag`` past the run's last end time."""
    times, values, sizes = draw(in_order_series(max_rows, min_rows=1))
    runs, lo = [], 0
    while lo < len(times):
        hi = min(lo + draw(st.integers(1, 40)), len(times))
        runs.append((draw(st.sampled_from(["add", "extend", "late"])), lo, hi,
                     draw(LAG)))
        lo = hi
    return times, values, sizes, runs


def assert_row_0_windows_hold_the_all_data_sums(times, values, sizes, runs):
    """After every run: each window whose cursor is at row 0 holds the
    all-data ``AR``'s sums bit for bit (what checkpoint format 9 leaves
    out), and the bank revived from its checkpoint holds every slot the
    folded one does and answers the 30 battery specs as it does."""
    ops = np.zeros(len(times), dtype=np.int8)
    bank = StreamingBank(CLS)
    now = -np.inf
    for how, lo, hi, lag in runs:
        rows = [column[lo:hi] for column in (times, values, sizes, ops)]
        if how == "add":
            for row in zip(*(column.tolist() for column in rows)):
                bank.add(*row)
        else:
            bank.extend(*(column[::-1] if how == "late" else column
                          for column in rows))
        now = max(now, float(times[hi - 1]) + lag)
        for spec in WINDOW_SPECS:
            answer(bank, spec, now=now)
            for size in dict.fromkeys(sizes[:hi].tolist()):
                answer(bank, "C-" + spec, size, now=now)
        for series in all_series(bank):
            whole = series._ar[None]
            for cursor in series._cursors:
                if cursor.start == 0:
                    held, shared = ([getattr(summary, name) for name in cursor.SUMS]
                                    for summary in (cursor, whole))
                    assert exact_repr(held) == exact_repr(shared)
        revived = StreamingBank(CLS)
        revived.load_state(
            checkpoint.loads(checkpoint.dumps(bank.state()))["bank"],
            bank.views(), bank.count)
        for mine, theirs in zip(all_series(revived), all_series(bank)):
            assert slots(mine) == slots(theirs), (how, lo)
        assert all_answers(revived, now) == all_answers(bank, now)


class TestRowZeroWindows:
    @given(arrivals(max_rows=120))
    @settings(max_examples=40, deadline=None)
    def test_a_window_at_row_0_holds_the_all_data_sums(self, arrival):
        assert_row_0_windows_hold_the_all_data_sums(*arrival)

    @pytest.mark.exhaustive
    @given(arrivals(max_rows=600))
    @settings(max_examples=300, deadline=None)
    def test_a_window_at_row_0_holds_the_all_data_sums_exhaustive(self, arrival):
        assert_row_0_windows_hold_the_all_data_sums(*arrival)


# ----------------------------------------------------------------------
# evict -> revive on the cases the one-column layout introduces
# ----------------------------------------------------------------------
def _link_windows_only():
    """(a) Only the link's windows are queried: they have moved on, the
    class windows still start at the first row."""
    bank = StreamingBank(CLS)
    for hi in range(100, 2001, 100):
        feed(bank, hi - 100, hi)
        for spec in WINDOW_SPECS:
            answer(bank, spec, now=float(FEED_TIMES[hi - 1]))
    assert window_start(bank._global) > 1000
    assert all(window_start(series) == 0 for series in bank._classes.values())
    return bank, FEED_TIMES, FEED_SIZES


def _one_class_only():
    """(b) Only one class is queried: its windows have moved on past
    rows the link's windows still hold."""
    bank = StreamingBank(CLS)
    for hi in range(100, 2001, 100):
        feed(bank, hi - 100, hi)
        for spec in WINDOW_SPECS:
            answer(bank, "C-" + spec, 10 * MB, now=float(FEED_TIMES[hi - 1]))
    assert window_start(bank._classes[0]) > 250
    assert window_start(bank._global) == 0
    assert all(window_start(bank._classes[tag]) == 0 for tag in (1, 2, 3))
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
    """(e) Every series queried all the way along, so its windows start
    far past its first row."""
    return queried_bank(), FEED_TIMES, FEED_SIZES


def _class_gone_from_the_link_column():
    """(f) A class whose rows all lie before the link windows' start."""
    sizes = np.where(np.arange(N_FEED + N_MORE) < 40, 1 * GB, 10 * MB)
    bank = StreamingBank(CLS)
    for hi in range(100, 2001, 100):
        bank.extend(FEED_TIMES[hi - 100:hi], FEED_VALUES[hi - 100:hi],
                    sizes[hi - 100:hi], FEED_OPS[hi - 100:hi])
        for spec in WINDOW_SPECS:
            answer(bank, spec, now=float(FEED_TIMES[hi - 1]))
    assert window_start(bank._global) > 40
    assert bank._classes[3].count == 40 and window_start(bank._classes[3]) == 0
    assert_every_row_of_its_class(bank, sizes)
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
