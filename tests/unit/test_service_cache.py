"""PredictionService caching: version-keyed invalidation and contexts."""

import pytest

from repro.service import PredictionService
from repro.service.service import PredictionCache
from repro.units import MB
from tests.conftest import make_record


def build_service(**kwargs):
    service = PredictionService(clock=lambda: 10_000_000.0, **kwargs)
    for i in range(20):
        service.observe("LBL-ANL", make_record(start=1000.0 + 100 * i))
    return service


# ----------------------------------------------------------------------
# the LRU itself
# ----------------------------------------------------------------------
def test_lru_evicts_oldest():
    cache = PredictionCache(capacity=2)
    cache.put(("a",), 1.0)
    cache.put(("b",), 2.0)
    cache.get(("a",))              # touch: "b" is now the LRU entry
    cache.put(("c",), 3.0)
    assert cache.get(("a",)) == 1.0
    assert cache.get(("c",)) == 3.0
    assert len(cache) == 2         # "b" evicted


def test_lru_rejects_bad_capacity():
    with pytest.raises(ValueError):
        PredictionCache(capacity=0)


# ----------------------------------------------------------------------
# hit/miss + invalidation
# ----------------------------------------------------------------------
def test_repeat_query_hits_cache():
    service = build_service()
    first = service.predict("LBL-ANL", 100 * MB)
    second = service.predict("LBL-ANL", 100 * MB)
    assert not first.cached and second.cached
    assert first.value == second.value
    assert service.cache_stats()["hits"] == 1


def test_history_growth_invalidates_exactly_that_link():
    service = build_service()
    service.ingest_records(
        "ISI-ANL", [make_record(start=1000.0 + 100 * i) for i in range(20)]
    )
    p_lbl = service.predict("LBL-ANL", 100 * MB)
    p_isi = service.predict("ISI-ANL", 100 * MB)

    service.observe("LBL-ANL", make_record(start=50_000.0, bandwidth=9e9))

    after_lbl = service.predict("LBL-ANL", 100 * MB)
    after_isi = service.predict("ISI-ANL", 100 * MB)
    # The grown link recomputes against the new history...
    assert not after_lbl.cached
    assert after_lbl.version == p_lbl.version + 1
    assert after_lbl.value != p_lbl.value
    # ...the untouched link still answers from cache.
    assert after_isi.cached
    assert after_isi.value == p_isi.value


def test_same_class_sizes_share_a_cache_entry():
    service = build_service()
    service.predict("LBL-ANL", 100 * MB, spec="C-AVG15")
    # 120 MB falls in the same 100MB class -> same context, cache hit.
    assert service.predict("LBL-ANL", 120 * MB, spec="C-AVG15").cached
    # 600 MB is another class -> different context, recompute.
    assert not service.predict("LBL-ANL", 600 * MB, spec="C-AVG15").cached


def test_unclassified_spec_ignores_size_entirely():
    service = build_service()
    service.predict("LBL-ANL", 100 * MB, spec="AVG15")
    assert service.predict("LBL-ANL", 999 * MB, spec="AVG15").cached


def test_size_spec_keys_on_exact_size():
    service = build_service()
    service.predict("LBL-ANL", 100 * MB, spec="SIZE")
    assert service.predict("LBL-ANL", 100 * MB, spec="SIZE").cached
    assert not service.predict("LBL-ANL", 100 * MB + 1, spec="SIZE").cached


def test_temporal_spec_keys_on_anchor_time():
    service = build_service()
    service.predict("LBL-ANL", 100 * MB, spec="AVG15hr", now=5000.0)
    assert service.predict("LBL-ANL", 100 * MB, spec="AVG15hr", now=5000.0).cached
    assert not service.predict("LBL-ANL", 100 * MB, spec="AVG15hr", now=6000.0).cached


def test_count_window_spec_ignores_anchor_time():
    service = build_service()
    service.predict("LBL-ANL", 100 * MB, spec="AVG5", now=5000.0)
    assert service.predict("LBL-ANL", 100 * MB, spec="AVG5", now=6000.0).cached


def test_abstention_is_cached_too():
    service = PredictionService(clock=lambda: 10_000.0)
    service.observe("LBL-ANL", make_record(start=1000.0, size=10 * MB))
    # C- spec over a class with no history abstains; the second ask hits.
    first = service.predict("LBL-ANL", 900 * MB, spec="C-AVG")
    second = service.predict("LBL-ANL", 900 * MB, spec="C-AVG")
    assert first.value is None and second.value is None
    assert not first.cached and second.cached


def test_unknown_link_answers_none_without_caching():
    service = build_service()
    prediction = service.predict("NOWHERE", 100 * MB)
    assert prediction.value is None
    assert prediction.history_length == 0 and prediction.version == 0


def test_rank_replicas_orders_by_bandwidth_unknowns_last():
    service = build_service()
    slow = [make_record(start=1000.0 + 100 * i, bandwidth=1e6) for i in range(20)]
    service.ingest_records("SLOW-ANL", slow)
    ranking = service.rank_replicas(
        ["SLOW-ANL", "NOWHERE", "LBL-ANL"], 100 * MB
    )
    assert [r.site for r in ranking] == ["LBL-ANL", "SLOW-ANL", "NOWHERE"]
    assert ranking[-1].predicted_bandwidth is None


def test_metrics_and_trace_reflect_activity():
    service = build_service()
    service.predict("LBL-ANL", 100 * MB)
    service.predict("LBL-ANL", 100 * MB)
    snap = service.metrics.snapshot()
    assert snap["service_ingested_records"]["value"] == 20
    assert snap["service_predict_requests"]["value"] == 2
    assert snap["service_cache_hits"]["value"] == 1
    assert snap["service_predict_seconds"]["count"] == 2
    # Per-request work is counted, not traced: 20 observes and two
    # predicts leave the ring empty.
    assert service.trace.events() == []


def test_status_is_json_shaped():
    import json

    service = build_service()
    service.predict("LBL-ANL", 100 * MB)
    status = json.loads(json.dumps(service.status()))
    assert status["links"]["LBL-ANL"] == {"records": 20, "version": 20}
    assert status["cache"]["misses"] == 1


def test_bad_default_spec_fails_fast():
    with pytest.raises(KeyError):
        PredictionService(default_spec="NOPE")


# ----------------------------------------------------------------------
# graceful degradation: the link-agnostic fallback
# ----------------------------------------------------------------------
class TestDegradedFallback:
    def test_off_by_default(self):
        service = build_service()
        assert service.predict("NOWHERE", 100 * MB).value is None

    def test_unknown_link_gets_the_aggregate_marked_degraded(self):
        service = build_service(degraded_fallback=True)
        service.ingest_records(
            "FAST-ANL",
            [make_record(start=1000.0 + 100 * i, bandwidth=4e6) for i in range(10)],
        )
        prediction = service.predict("NOWHERE", 100 * MB)
        assert prediction.degraded
        assert prediction.value == pytest.approx(service.aggregate_bandwidth())
        assert prediction.history_length == 0 and prediction.version == 0
        # A confident answer is never marked degraded.
        assert not service.predict("LBL-ANL", 100 * MB).degraded

    def test_no_history_anywhere_still_answers_none(self):
        service = PredictionService(degraded_fallback=True)
        prediction = service.predict("NOWHERE", 100 * MB)
        assert prediction.value is None and not prediction.degraded

    def test_aggregate_is_the_mean_of_per_link_means(self):
        service = PredictionService(degraded_fallback=True)
        service.ingest_records(
            "A", [make_record(start=1000.0 + 100 * i, bandwidth=2e6)
                  for i in range(5)])
        service.ingest_records(
            "B", [make_record(start=1000.0 + 100 * i, bandwidth=4e6)
                  for i in range(15)])
        assert service.aggregate_bandwidth() == pytest.approx(3e6)

    def test_degraded_answers_rank_after_confident_ones(self):
        service = build_service(degraded_fallback=True)
        service.ingest_records(
            "SLOW-ANL",
            [make_record(start=1000.0 + 100 * i, bandwidth=1e5) for i in range(20)],
        )
        ranking = service.rank_replicas(
            ["NOWHERE", "SLOW-ANL", "LBL-ANL"], 100 * MB)
        # The fallback aggregate exceeds SLOW-ANL's prediction, but a
        # degraded guess must not outrank a measured link.
        assert [r.site for r in ranking] == ["LBL-ANL", "SLOW-ANL", "NOWHERE"]
        assert ranking[-1].predicted_bandwidth is not None

    def test_fallbacks_are_counted_and_traced(self):
        service = build_service(degraded_fallback=True)
        service.predict("NOWHERE", 100 * MB)
        service.predict_batch([("NOWHERE", 100 * MB), ("ELSEWHERE", MB)])
        snap = service.metrics.snapshot()
        assert snap["service_fallback_predictions"]["value"] == 3
        assert snap["service_predict_requests"]["value"] == 3

    def test_fallback_is_never_cached(self):
        service = build_service(degraded_fallback=True)
        first = service.predict("NOWHERE", 100 * MB)
        # New history changes the aggregate; a cached fallback would
        # have frozen the old value.
        service.ingest_records(
            "FAST-ANL",
            [make_record(start=1000.0 + 100 * i, bandwidth=9e6)
             for i in range(10)],
        )
        second = service.predict("NOWHERE", 100 * MB)
        assert not second.cached
        assert second.value != first.value
