"""predict_batch: parity with predict, grouping, caching, deadlines."""

import pytest

from repro.resilience import Deadline, DeadlineExceeded
from repro.service import PredictionService
from repro.units import MB
from tests.conftest import make_record

SPECS = ["C-AVG15", "C-MED", "C-LV", "AVG", "LV", "SIZE"]
SIZES = [10 * MB, 100 * MB, 500 * MB, 1000 * MB]
NOW = 10_000_000.0


def build_service(links=("LBL-ANL", "ISI-ANL"), n=30):
    service = PredictionService(clock=lambda: NOW)
    for j, link in enumerate(links):
        service.ingest_records(
            link,
            [make_record(start=1000.0 + 100 * i + j, size=(50 + 7 * i) * MB)
             for i in range(n)],
        )
    return service


def items_battery():
    return [
        ("LBL-ANL" if i % 2 == 0 else "ISI-ANL", size, spec)
        for i, (spec, size) in enumerate(
            (spec, size) for spec in SPECS for size in SIZES
        )
    ]


def test_batch_matches_per_query_predict_exactly():
    batch_service = build_service()
    single_service = build_service()
    items = items_battery()
    batched = batch_service.predict_batch(items, now=NOW)
    for (link, size, spec), b in zip(items, batched):
        s = single_service.predict(link, size, spec=spec, now=NOW)
        assert b.link == s.link and b.spec == s.spec
        assert b.value == s.value, (link, size, spec)
        assert b.version == s.version
        assert b.history_length == s.history_length
        assert b.degraded == s.degraded
        assert b.cached == s.cached  # identical battery order, fresh caches


@pytest.mark.exhaustive
def test_batch_matches_per_query_on_the_shipped_logs():
    from pathlib import Path

    data = Path(__file__).resolve().parents[2] / "data"
    batch_service = PredictionService(clock=lambda: NOW)
    single_service = PredictionService(clock=lambda: NOW)
    for name in ("aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm"):
        batch_service.ingest_ulm(data / name)
        single_service.ingest_ulm(data / name)
    items = [
        (link, size, spec)
        for link in ("aug-LBL-ANL", "aug-ISI-ANL")
        for spec in SPECS
        for size in SIZES
    ]
    for b, (link, size, spec) in zip(
        batch_service.predict_batch(items, now=NOW), items
    ):
        s = single_service.predict(link, size, spec=spec, now=NOW)
        assert (b.value, b.version, b.history_length, b.degraded) == (
            s.value, s.version, s.history_length, s.degraded
        ), (link, size, spec)


def test_second_batch_is_fully_cached():
    service = build_service()
    items = items_battery()
    first = service.predict_batch(items, now=NOW)
    # Only intra-sweep duplicate keys (size-blind specs at several
    # sizes) count as hits the first time through.
    assert not first[0].cached
    second = service.predict_batch(items, now=NOW)
    assert all(p.cached for p in second)
    assert [p.value for p in second] == [p.value for p in first]


def test_batch_and_single_share_one_cache():
    service = build_service()
    single = service.predict("LBL-ANL", 100 * MB, spec="C-AVG15", now=NOW)
    (viabatch,) = service.predict_batch(
        [("LBL-ANL", 100 * MB, "C-AVG15")], now=NOW
    )
    assert viabatch.cached and viabatch.value == single.value


def test_unknown_link_mid_batch_answers_none_without_failing():
    service = build_service(links=("LBL-ANL",))
    results = service.predict_batch(
        [("LBL-ANL", 100 * MB), ("NOWHERE", 100 * MB), ("LBL-ANL", 500 * MB)],
        now=NOW,
    )
    assert results[0].value is not None
    assert results[1].value is None
    assert results[1].version == 0 and results[1].history_length == 0
    assert results[2].value is not None


def test_dict_items_and_defaults():
    service = build_service(links=("LBL-ANL",))
    a, b = service.predict_batch(
        [{"link": "LBL-ANL", "size": 100 * MB},
         {"link": "LBL-ANL", "size": 100 * MB, "spec": "LV"}],
        now=NOW,
    )
    assert a.spec == service.default_spec
    assert b.spec == "LV"


def test_empty_batch_is_fine():
    assert build_service().predict_batch([]) == []


def test_expired_deadline_raises_between_groups():
    service = build_service()
    clock = iter([0.0, 100.0, 200.0, 300.0]).__next__
    with pytest.raises(DeadlineExceeded):
        # First group's check still passes (t=0); the second group's
        # check (t=100) finds the 10-second budget spent.
        service.predict_batch(
            [("LBL-ANL", 100 * MB), ("ISI-ANL", 100 * MB)], now=NOW,
            deadline=Deadline(10.0, clock=clock),
        )


def test_batch_metrics_and_trace():
    service = build_service()
    items = items_battery()
    service.predict_batch(items, now=NOW)
    snap = service.metrics.snapshot()
    assert snap["service_batch_requests"]["value"] == 1
    assert snap["service_batch_predictions"]["value"] == len(items)
    assert snap["service_batch_size"]["count"] == 1
    assert snap["service_batch_size"]["mean"] == float(len(items))
    # One predict counter bump per item, exactly like the single path.
    assert snap["service_predict_requests"]["value"] == len(items)
    hits = snap["service_cache_hits"]["value"]
    assert hits + snap["service_cache_misses"]["value"] == len(items)
    assert snap["service_batch_seconds"]["count"] == 1
    # A sweep is counted, not traced.
    assert not service.trace.events(kind="predict_batch")


def test_batch_anchors_the_whole_sweep_at_one_clock_read():
    ticks = iter(range(100))

    def clock():
        return NOW + next(ticks)

    service = PredictionService(clock=clock)
    service.ingest_records(
        "LBL-ANL", [make_record(start=1000.0 + 100 * i) for i in range(5)]
    )
    # Temporal-window specs fold the anchor time into the cache context;
    # one shared clock read means both items land on the same anchor.
    a, b = service.predict_batch(
        [("LBL-ANL", 100 * MB, "AVG1hr"), ("LBL-ANL", 100 * MB, "AVG1hr")]
    )
    assert b.cached  # same context -> the second item hits the first's entry
    assert a.value == b.value
