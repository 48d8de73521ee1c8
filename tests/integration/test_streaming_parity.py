"""The streaming fast path answers exactly like the generic predictors.

A service must be indistinguishable — answer for answer, abstention for
abstention — from the generic predictor of each spec run over the link's
own columns (``resolve(spec).predict(service.history(link), ...)``, the
reference the bank's summaries are defined against), while actually
taking the fast path (asserted through the service's streaming
counters).  Covers in-order walks over the shipped campaign logs for the
full 30-spec battery, out-of-order arrivals (bank rebuild), bulk ingest
(one fold, or one merge and one rebuild, then incremental resume),
non-battery specs (snapshot fallback), regressed temporal anchors
(window fallback), and the MDS provider's per-class predictions.
"""

from pathlib import Path

import pytest

from repro.core.classification import paper_classification
from repro.core.predictors import ALL_PREDICTOR_NAMES, resolve
from repro.core.streaming import StreamingBank
from repro.data.ingest import load_ulm
from repro.logs import TransferLog
from repro.mds import GridFTPInfoProvider, ServicePerfProvider, format_entries
from repro.net import Site
from repro.service import PredictionService

DATA_DIR = Path(__file__).resolve().parent.parent.parent / "data"

SITE = Site(name="LBL", domain="lbl.gov", address="131.243.2.91",
            hostname="dpsslx04.lbl.gov")
URL = "gsiftp://dpsslx04.lbl.gov:61000"


def generic(service, link, size, spec, now=None):
    """The reference answer: the generic predictor over the link's columns."""
    return resolve(spec).predict(
        service.history(link), target_size=size, now=now)


def assert_same(value, reference, what):
    if reference is None:
        assert value is None, f"{what}: {value} vs abstain"
    else:
        assert value == pytest.approx(reference, rel=1e-12), what


def walk_both(records, specs, mutate=None):
    """Walk a service and the generic predictors in lockstep; assert
    identical answers throughout.

    ``mutate`` optionally reorders/edits the record list first.  Returns
    the service.
    """
    service = PredictionService()
    records = list(records) if mutate is None else mutate(list(records))
    for i, record in enumerate(records):
        if i >= 5:
            for spec in specs:
                a = service.predict("walk", record.file_size, spec=spec,
                                    now=record.start_time)
                assert a.version == i
                assert_same(a.value, generic(service, "walk", record.file_size,
                                             spec, record.start_time),
                            f"{spec}@{i}")
        service.observe("walk", record)
    return service


def test_streaming_walk_matches_snapshot_walk_full_battery():
    records = TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm").records()
    service = walk_both(records, ALL_PREDICTOR_NAMES)
    # Every cache miss on a battery spec took the fast path.
    assert service._m_streamed.value > 0
    assert service._m_stream_fallbacks.value == 0
    assert service._m_rebuilds.value == 0


@pytest.mark.exhaustive
@pytest.mark.parametrize("log_name", ["aug-ISI-ANL.ulm", "dec-LBL-ANL.ulm",
                                      "dec-ISI-ANL.ulm"])
def test_streaming_walk_matches_snapshot_walk_all_logs(log_name):
    path = DATA_DIR / log_name
    if not path.exists():
        pytest.skip(f"{log_name} not shipped")
    records = TransferLog.load(path).records()
    service = walk_both(records, ALL_PREDICTOR_NAMES)
    assert service._m_streamed.value > 0
    assert service._m_stream_fallbacks.value == 0


def test_out_of_order_arrivals_rebuild_the_bank_and_stay_identical():
    records = TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm").records()[:80]

    def shuffle_some(rs):
        # Swap a few adjacent pairs so end times regress at ingest.
        for i in (10, 25, 40, 60):
            rs[i], rs[i + 1] = rs[i + 1], rs[i]
        return rs

    service = walk_both(records, ("C-AVG15", "AVG", "MED", "AR5d"),
                        mutate=shuffle_some)
    assert service._m_rebuilds.value > 0
    assert service._m_streamed.value > 0


def test_bulk_ingest_rebuilds_then_resumes_incrementally(tmp_path):
    """A sorted log folds with zero rebuilds; a file whose lines are out
    of end-time order costs one merge and one rebuild, however many
    lines are late.  Both then resume with O(1) folds."""
    from repro.logs.ulm import format_record

    records = TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm").records()
    shuffled = list(records)
    for i in (10, 25, 40, 60):
        shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
    unsorted = tmp_path / "unsorted.ulm"
    unsorted.write_text("".join(format_record(r) + "\n" for r in shuffled))

    now = records[-1].end_time + 60.0
    histories = []
    for path, rebuilds in ((DATA_DIR / "aug-LBL-ANL.ulm", 0), (unsorted, 1)):
        service = PredictionService()
        assert service.ingest_ulm(path, link="L") == (
            "L", len(records))
        assert service._m_rebuilds.value == rebuilds
        assert service.version("L") == len(records)
        for spec in ALL_PREDICTOR_NAMES:
            a = service.predict("L", 600_000_000, spec=spec, now=now)
            assert not a.cached and a.streamed
            assert_same(a.value, generic(service, "L", 600_000_000, spec, now),
                        spec)
        assert service._m_stream_fallbacks.value == 0
        service.observe("L", records[-1])  # an equal end time is in order
        assert service._m_rebuilds.value == rebuilds
        histories.append(service.history("L"))
    assert histories[0].times.tolist() == histories[1].times.tolist()


def test_non_battery_spec_falls_back_to_snapshot():
    service = PredictionService()
    service.ingest_ulm(DATA_DIR / "aug-LBL-ANL.ulm", link="L")

    a = service.predict("L", 600_000_000, spec="SIZE")
    assert not a.streamed
    assert service._m_stream_fallbacks.value == 1
    assert_same(a.value, generic(service, "L", 600_000_000, "SIZE"), "SIZE")


def test_regressed_anchor_falls_back_and_stays_correct():
    records = TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm").records()
    service = PredictionService()
    service.ingest_ulm(DATA_DIR / "aug-LBL-ANL.ulm", link="L")

    late = records[-1].end_time + 60.0
    early = records[len(records) // 2].end_time  # behind the expired boundary
    a1 = service.predict("L", 600_000_000, spec="AVG5hr", now=late)
    assert a1.streamed
    a2 = service.predict("L", 600_000_000, spec="AVG5hr", now=early)
    assert not a2.streamed  # lazy expiry cannot rewind; snapshot answered
    assert service._m_stream_fallbacks.value >= 1
    assert_same(a2.value, generic(service, "L", 600_000_000, "AVG5hr", early),
                "AVG5hr")


def test_empty_link_short_circuits_without_resolution():
    service = PredictionService()
    # An unknown spec on an unknown link answers None instead of raising:
    # the empty-history short-circuit runs before predictor resolution.
    p = service.predict("nowhere", 600_000_000, spec="NOT-A-SPEC")
    assert p.value is None and p.version == 0 and p.history_length == 0
    assert not p.streamed
    # A known link with history still validates the spec.
    log = TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm")
    service.ingest_records("L", log.records()[:3])
    with pytest.raises(KeyError):
        service.predict("L", 600_000_000, spec="NOT-A-SPEC")


def test_mds_provider_bank_path_matches_column_path():
    """The service's entry takes its class predictions off the bank, the
    log-backed provider's from the generic predictor over the log's
    columns; the LDIF is the same."""
    service = PredictionService()
    service.ingest_ulm(DATA_DIR / "aug-LBL-ANL.ulm", link="L")
    served = ServicePerfProvider(service, "L", SITE, URL)
    batch = GridFTPInfoProvider(
        log=TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm"), site=SITE, url=URL)
    assert (format_entries(served.entries(1e9))
            == format_entries(batch.entries(1e9)) != "")
    assert service._m_streamed.value > 0


def test_rank_replicas_resolves_once_and_ranks_identically():
    service = PredictionService()
    records = TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm").records()
    for i, record in enumerate(records[:60]):
        service.observe(f"link-{i % 3}", record)

    now = records[59].end_time + 30.0
    candidates = ["link-0", "link-1", "link-2", "ghost", "link-0"]
    ranked = service.rank_replicas(candidates, 600_000_000, now=now)
    # The reference ranking: the generic predictor of the default spec
    # per distinct candidate, best first, candidates without a value last.
    expected = {
        link: generic(service, link, 600_000_000, service.default_spec, now)
        for link in dict.fromkeys(candidates)}
    order = sorted(expected, key=lambda link: (
        expected[link] is None, -(expected[link] or 0.0)))
    assert [r.site for r in ranked] == order
    for r in ranked:
        assert_same(r.predicted_bandwidth, expected[r.site], r.site)


# ----------------------------------------------------------------------
# vectorized extend(): bit-parity with sequential add() on every prefix
# ----------------------------------------------------------------------
ALL_LOGS = ["aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm",
            "dec-LBL-ANL.ulm", "dec-ISI-ANL.ulm"]


def _fresh_bank() -> StreamingBank:
    return StreamingBank(paper_classification())


@pytest.mark.parametrize("log_name", ALL_LOGS)
def test_extend_bit_parity_at_every_prefix(log_name):
    """``extend()`` in size-1 steps equals ``add()`` at EVERY prefix.

    ``repr`` comparison of the full checkpoint state is deliberate: it
    distinguishes ``-0.0`` from ``0.0`` and survives NaN, so this is
    bit-parity of every running sum, window structure, and heap — the
    acceptance gate for the vectorized write path.
    """
    frame = load_ulm(DATA_DIR / log_name)
    seq, bat = _fresh_bank(), _fresh_bank()
    for i in range(len(frame)):
        seq.add(float(frame.end_times[i]), float(frame.bandwidths[i]),
                int(frame.sizes[i]), int(frame.ops[i]))
        bat.extend(frame.end_times[i:i + 1], frame.bandwidths[i:i + 1],
                   frame.sizes[i:i + 1], frame.ops[i:i + 1])
        assert repr(bat.state()) == repr(seq.state()), f"{log_name}@{i}"


@pytest.mark.parametrize("log_name", ALL_LOGS)
def test_extend_bit_parity_under_mixed_chunking(log_name):
    """Arbitrary chunk boundaries leave the same bank as one-by-one adds."""
    frame = load_ulm(DATA_DIR / log_name)
    seq = _fresh_bank()
    for i in range(len(frame)):
        seq.add(float(frame.end_times[i]), float(frame.bandwidths[i]),
                int(frame.sizes[i]), int(frame.ops[i]))
    sizes = [1, 2, 3, 7, 13, 31, 64]
    bat = _fresh_bank()
    lo, step = 0, 0
    while lo < len(frame):
        hi = min(lo + sizes[step % len(sizes)], len(frame))
        bat.extend(frame.end_times[lo:hi], frame.bandwidths[lo:hi],
                   frame.sizes[lo:hi], frame.ops[lo:hi])
        lo, step = hi, step + 1
    assert repr(bat.state()) == repr(seq.state())
