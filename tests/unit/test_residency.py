"""Residency: which links are in RAM, in what order they leave, and what
stays when the store refuses one.

The LRU is the resident map's own order (``repro.service.residency``):
every lookup — a predict, an observe, a rank candidate — moves its link
to the most recent end, and a victim is the least recently touched
link the store will take.
"""

from __future__ import annotations

import itertools

import pytest

from repro import faults
from repro.faults import FaultInjector
from repro.resilience import Deadline
from repro.service import PredictionService, handle_request
from repro.store import LinkStore
from repro.units import MB
from tests.conftest import make_record

NOW = 10_000_000.0


def _observe(service, link, i=0):
    return service.observe(link, make_record(start=1000.0 + 100 * i))


def _evicted(service):
    return [e.as_dict()["link"] for e in service.trace.events(kind="evict")]


def _counter(service, name):
    return service.metrics.snapshot()[name]["value"]


@pytest.fixture
def tiered(tmp_path):
    def make(max_resident):
        return PredictionService(store=LinkStore(tmp_path / "state"),
                                 max_resident=max_resident, clock=lambda: NOW)
    return make


TOUCHES = {
    "predict": lambda service, link: service.predict(link, 100 * MB),
    "observe": lambda service, link: _observe(service, link, 1),
    "rank": lambda service, link: service.rank_replicas([link], 100 * MB),
}


@pytest.mark.parametrize("touch", sorted(TOUCHES))
def test_the_victim_is_the_least_recently_touched_link(tiered, touch):
    service = tiered(max_resident=2)
    _observe(service, "A")
    _observe(service, "B")
    TOUCHES[touch](service, "A")   # A, B, A: B is now the LRU link
    _observe(service, "C")
    assert _evicted(service) == ["B"]
    assert sorted(service.status()["links"]) == ["A", "C"]


def test_the_map_order_is_touch_order(tiered):
    service = tiered(max_resident=8)
    for link in "ABCD":
        _observe(service, link)
    service.predict("B", 100 * MB)
    service.rank_replicas(["A"], 100 * MB)
    assert list(service.residency.resident()) == ["C", "D", "B", "A"]


def test_a_refused_victim_is_skipped_not_a_wall(tiered):
    # A refused write-through leaves "bad" with a row the store does not
    # hold, so eviction must refuse it — and go on to the next victim:
    # stopping there would grow the resident set by one per admission.
    service = tiered(max_resident=2)
    injector = FaultInjector().inject(
        "store.segment", error=OSError, op="tail-write", times=1)
    with faults.injected(injector):
        _observe(service, "bad")
    assert injector.total_fired() == 1
    for k in range(20):
        _observe(service, f"new{k}")

    status = service.status()["store"]
    assert status["resident_links"] <= 2 + 1      # ceiling + one deficit
    assert status["evictions"] == 19
    assert "bad" in service.status()["links"]     # resident and findable
    assert service.predict("bad", 100 * MB).history_length == 1
    # Refused, it goes back in at the recent end: the front reaches it
    # again every other admission.
    assert _counter(service, "service_eviction_refusals") == 10
    assert "bad" not in _evicted(service)


def test_an_unbounded_service_evicts_nothing(tiered):
    service = tiered(max_resident=None)
    for k in range(10):
        _observe(service, f"L{k}")
    assert service.status()["link_count"] == 10
    assert service.status()["store"]["evictions"] == 0


def test_rank_checks_its_deadline_between_cold_candidates(tiered):
    service = tiered(max_resident=1)
    links = [f"SITE{k}-ANL" for k in range(5)]
    for link in links:
        service.ingest_records(
            link, [make_record(start=1000.0 + 100 * i) for i in range(10)])
    revivals = _counter(service, "service_link_revivals")
    # Each read of this clock spends one second of a three-second
    # budget: the request's own check reads 0, the candidates 1, 2, 3.
    ticks = itertools.count()
    deadline = Deadline(3.0, clock=lambda: float(next(ticks)))

    answer = handle_request(
        service, {"op": "rank", "candidates": links, "size": 100 * MB},
        deadline=deadline)

    assert answer["ok"] is False
    assert answer["error"]["code"] == "deadline_exceeded"
    # Two cold candidates were revived before the budget ran out.
    assert _counter(service, "service_link_revivals") - revivals == 2
