"""The obs metrics layer: labeled instruments, registry, exposition."""

import re
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
def test_counter_accumulates_and_rejects_decrease():
    c = Counter("hits")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge("links")
    g.set(4)
    g.inc(-1)
    assert g.value == 3.0


def test_histogram_summary_and_percentiles():
    h = Histogram("latency", window=100)
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    assert h.count == 100
    assert h.mean() == pytest.approx(50.5)
    summary = h.summary()
    assert summary["sum"] == pytest.approx(5050.0)
    assert summary["window_min"] == 1.0 and summary["window_max"] == 100.0
    assert summary["min"] == 1.0 and summary["max"] == 100.0
    assert summary["p99"] >= summary["p90"] >= summary["p50"]


def test_histogram_window_bounds_the_reservoir():
    h = Histogram("latency", window=10)
    for v in range(1000):
        h.observe(float(v))
    # Lifetime aggregates see everything; percentiles only the newest 10.
    assert h.count == 1000
    assert h.summary()["window_min"] == 990.0


def test_histogram_lifetime_vs_window_extremes():
    """min/max are all-time; window_min/window_max cover the reservoir.

    Fill past the window so the early extreme values age out of the
    reservoir: the percentile scope must report the surviving extremes,
    the lifetime scope the historical ones.
    """
    h = Histogram("latency", window=4)
    for v in (100.0, 0.001, 5.0, 6.0, 7.0, 8.0):
        h.observe(v)
    summary = h.summary()
    assert summary["min"] == 0.001            # all-time, evicted from window
    assert summary["max"] == 100.0            # all-time, evicted from window
    assert summary["window_min"] == 5.0       # what p0 actually covers
    assert summary["window_max"] == 8.0       # what p100 actually covers


# ----------------------------------------------------------------------
# labels
# ----------------------------------------------------------------------
def test_labels_return_the_same_child_for_the_same_values():
    c = Counter("requests")
    c.labels(op="predict").inc(2)
    c.labels(op="predict").inc()
    c.labels(op="rank").inc()
    assert c.labels(op="predict").value == 3.0
    assert c.labels(op="rank").value == 1.0
    assert c.value == 0.0  # the parent is its own (unlabeled) series


def test_labels_order_does_not_matter():
    g = Gauge("depth")
    g.labels(a="1", b="2").set(5)
    assert g.labels(b="2", a="1").value == 5.0


def test_labels_on_a_child_raise():
    c = Counter("requests")
    child = c.labels(op="predict")
    with pytest.raises(ValueError, match="already-labeled"):
        child.labels(op="again")


def test_empty_labels_return_the_parent():
    c = Counter("requests")
    assert c.labels() is c


def test_histogram_children_inherit_the_window():
    h = Histogram("lat", window=7)
    assert h.labels(engine="fast").window == 7


def test_children_listing():
    c = Counter("requests")
    c.labels(op="predict").inc()
    c.labels(op="rank").inc()
    assert [labels for labels, _ in c.children()] == [
        {"op": "predict"}, {"op": "rank"},
    ]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_shares_instruments_by_name():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.names() == ["a"]


def test_registry_rejects_type_mismatch():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="registered as Counter"):
        reg.gauge("x")


def test_registry_snapshot_flat_and_labeled():
    reg = MetricsRegistry()
    reg.counter("requests").inc(3)
    reg.gauge("links").set(2)
    reg.histogram("lat").observe(0.5)
    reg.counter("by_spec").labels(spec="C-AVG15").inc(4)
    snap = reg.snapshot()
    # Unlabeled series keep the flat historical shape.
    assert snap["requests"] == {"type": "counter", "value": 3.0}
    assert snap["links"]["value"] == 2.0
    assert snap["lat"]["count"] == 1
    assert snap["lat"]["window_min"] == 0.5
    # Labeled families carry a series list.
    assert snap["by_spec"]["series"] == [
        {"labels": {"spec": "C-AVG15"}, "type": "counter", "value": 4.0},
    ]


def test_registry_merge_shares_instruments_live():
    a, b = MetricsRegistry(), MetricsRegistry()
    counter = a.counter("hits")
    counter.inc()
    merged = MetricsRegistry().merge(a).merge(b)
    counter.inc()  # after the merge: the view must be live, not copied
    assert merged.snapshot()["hits"]["value"] == 2.0


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram|untyped)$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                       # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)$"               # value
)


def _assert_valid_exposition(text: str) -> None:
    """Line-level Prometheus text-format validation."""
    assert text.endswith("\n")
    seen_type: set = set()
    for line in text.splitlines():
        if line.startswith("# HELP"):
            assert _HELP_RE.match(line), line
        elif line.startswith("# TYPE"):
            name = line.split()[2]
            assert name not in seen_type, f"duplicate TYPE for {name}"
            seen_type.add(name)
            assert _TYPE_RE.match(line), line
        else:
            assert _SAMPLE_RE.match(line), line


def test_render_is_valid_prometheus_exposition():
    reg = MetricsRegistry()
    reg.counter("requests", "requests served").inc(3)
    reg.counter("requests").labels(op="predict", spec="C-AVG15").inc(2)
    reg.gauge("links", "links with state").set(2)
    h = reg.histogram("lat", "predict latency")
    h.observe(0.5)
    h.labels(engine="fast").observe(0.125)
    text = reg.render()
    _assert_valid_exposition(text)
    assert "# HELP requests requests served" in text
    assert "# TYPE requests counter" in text
    assert "# TYPE lat summary" in text
    assert 'requests{op="predict",spec="C-AVG15"} 2' in text
    assert 'lat{engine="fast",quantile="0.5"} 0.125' in text
    assert "lat_count 1" in text
    assert 'lat_count{engine="fast"} 1' in text


def test_render_escapes_label_values_and_help():
    reg = MetricsRegistry()
    reg.counter("odd", 'help with \\ and\nnewline').labels(
        path='/tmp/"quoted"\\dir'
    ).inc()
    text = reg.render()
    _assert_valid_exposition(text)
    assert r"# HELP odd help with \\ and\nnewline" in text
    assert r'odd{path="/tmp/\"quoted\"\\dir"} 1' in text


def test_render_skips_untouched_parents_of_labeled_families():
    reg = MetricsRegistry()
    reg.counter("only_labeled").labels(k="v").inc()
    text = reg.render()
    _assert_valid_exposition(text)
    assert 'only_labeled{k="v"} 1' in text
    assert "\nonly_labeled 0" not in text


# ----------------------------------------------------------------------
# concurrency: exact totals, no lost updates, stable snapshots
# ----------------------------------------------------------------------
def test_metrics_under_concurrency_lose_nothing():
    reg = MetricsRegistry()
    threads, per_thread = 8, 2000
    stop = threading.Event()
    snapshot_errors = []

    def hammer(k: int) -> None:
        # Exercise the registry get-or-create race, the parent series,
        # a shared labeled child, and the histogram reservoir at once.
        counter = reg.counter("hammered")
        child = counter.labels(thread="shared")
        hist = reg.histogram("hammered_lat", window=64)
        for i in range(per_thread):
            counter.inc()
            child.inc(2)
            hist.observe(float(i))

    def scrape() -> None:
        # Reading while 8 writers hammer must never raise and never show
        # a torn value (counters only grow).
        last = 0.0
        while not stop.is_set():
            try:
                snap = reg.snapshot()
                reg.render()
                value = snap.get("hammered", {}).get("value", 0.0)
                if value < last:
                    snapshot_errors.append((last, value))
                last = value
            except Exception as exc:  # pragma: no cover - the assertion
                snapshot_errors.append(exc)
                return

    reader = threading.Thread(target=scrape)
    workers = [threading.Thread(target=hammer, args=(k,)) for k in range(threads)]
    reader.start()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    reader.join()

    assert snapshot_errors == []
    assert reg.counter("hammered").value == threads * per_thread
    assert reg.counter("hammered").labels(thread="shared").value == 2 * threads * per_thread
    hist = reg.histogram("hammered_lat")
    assert hist.count == threads * per_thread
    # The reservoir stayed bounded and internally consistent.
    summary = hist.summary()
    assert summary["sum"] == pytest.approx(threads * sum(range(per_thread)))
    assert summary["window_min"] <= summary["p50"] <= summary["window_max"]
