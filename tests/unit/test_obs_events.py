"""The event bus: a bounded ring of structured events."""

import itertools

import pytest

from repro.obs.events import EventBus, TraceEvent, get_event_bus


def _bus(capacity=8):
    clock = itertools.count(1)
    return EventBus(capacity=capacity, clock=lambda: float(next(clock)))


def test_emit_returns_the_event_and_retains_it():
    bus = _bus()
    event = bus.emit("transfer", link="a-b", size=1024)
    assert isinstance(event, TraceEvent)
    assert event.kind == "transfer" and event.fields["size"] == 1024
    assert bus.events() == [event]
    assert len(bus) == 1
    assert event.as_dict() == {"time": 1.0, "kind": "transfer", "link": "a-b", "size": 1024}


def test_ring_evicts_oldest_and_counts_drops():
    bus = _bus(capacity=3)
    for i in range(5):
        bus.emit("e", i=i)
    assert [e.fields["i"] for e in bus.events()] == [2, 3, 4]
    assert bus.dropped == 2
    assert len(bus) == 3


def test_events_filter_by_kind_and_limit_keeps_newest():
    bus = _bus()
    bus.emit("a", i=0)
    bus.emit("b", i=1)
    bus.emit("a", i=2)
    assert [e.fields["i"] for e in bus.events(kind="a")] == [0, 2]
    assert [e.fields["i"] for e in bus.events(limit=2)] == [1, 2]
    assert bus.events(limit=0) == []


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventBus(capacity=0)


def test_default_bus_is_process_wide():
    assert isinstance(get_event_bus(), EventBus)
    assert get_event_bus() is get_event_bus()
