"""Span tracing: nesting, status capture, export bounds."""

import pytest

from repro.obs.tracing import Span, SpanExporter, current_span


@pytest.fixture
def exporter():
    return SpanExporter(capacity=16)


def test_span_records_duration_and_status(exporter):
    ticks = iter([10.0, 10.5])
    with Span("work", exporter=exporter, clock=lambda: next(ticks), link="a-b") as sp:
        sp.set_attribute("records", 3)
    assert sp.duration == pytest.approx(0.5)
    assert sp.status == "ok" and sp.error is None
    assert sp.attributes == {"link": "a-b", "records": 3}
    exported = exporter.spans()
    assert exported == [sp]
    assert exported[0].as_dict()["name"] == "work"


def test_span_error_status_and_propagation(exporter):
    with pytest.raises(RuntimeError, match="boom"):
        with Span("work", exporter=exporter):
            raise RuntimeError("boom")
    (sp,) = exporter.spans()
    assert sp.status == "error"
    assert "boom" in sp.error


def test_nested_spans_share_a_trace_and_chain_parents(exporter):
    assert current_span() is None
    with Span("outer", exporter=exporter) as outer:
        assert current_span() is outer
        with Span("inner", exporter=exporter) as inner:
            assert current_span() is inner
        assert current_span() is outer
    assert current_span() is None
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id == outer.span_id
    assert outer.parent_id is None
    # Finished innermost-first.
    assert [s.name for s in exporter.spans()] == ["inner", "outer"]


def test_explicit_parent_beats_the_context(exporter):
    root = Span("root", exporter=exporter)
    with Span("other", exporter=exporter):
        child = Span("child", parent=root, exporter=exporter)
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id


def test_exporter_is_bounded():
    exporter = SpanExporter(capacity=3)
    for i in range(5):
        with Span(f"s{i}", exporter=exporter):
            pass
    assert len(exporter) == 3
    assert [s.name for s in exporter.spans()] == ["s2", "s3", "s4"]
    assert [s.name for s in exporter.spans(limit=2)] == ["s3", "s4"]
    assert [s.name for s in exporter.spans(name="s3")] == ["s3"]
    exporter.clear()
    assert len(exporter) == 0
    with pytest.raises(ValueError):
        SpanExporter(capacity=0)
