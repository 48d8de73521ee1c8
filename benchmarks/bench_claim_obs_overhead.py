"""Observability claim: the always-on layer costs under 5% of hot-path time.

The paper logs every GridFTP transfer to build its predictors and
reports the whole apparatus adds roughly 25 ms per transfer — an
instrumentation cost it quantifies before trusting its measurements.
This benchmark is the reproduction's equivalent self-check for the
:mod:`repro.obs` layer (labeled metrics, spans, events) threaded through
ingest and evaluation:

* **ingest** — :func:`repro.data.ingest.load_ulm` over the four shipped
  campaign logs (cold cache each round: counters, a span, an event per
  load);
* **evaluate** — the vectorized battery via
  :func:`repro.core.engine.evaluate_dataset` (per-link spans, queue-wait
  and latency histograms);
* **warm serving path** — the instrumented operations themselves,
  micro-timed against the warm sidecar load they decorate.

Each macro workload runs with observability enabled and disabled
(:func:`repro.obs.config.disabled`), alternating round by round with GC
paused; the min-of-rounds ratio must stay below 1.05.  Interleaving and
the min matter: scheduler noise on a shared machine is one-sided
positive spikes, so block-ordered means fold warming and frequency
drift into the ratio while the interleaved min isolates the
instrumentation cost.  Parity is asserted first: flipping the switch
must never change a prediction.
"""

import gc
import time
from pathlib import Path

import numpy as np
import pytest

from artifacts import record
from repro.core.engine import evaluate_dataset
from repro.data import Dataset, cache_path
from repro.data.ingest import load_ulm
from repro.obs.config import disabled, enabled
from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry
from repro.obs.tracing import span

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
LOGS = sorted(DATA_DIR.glob("*.ulm"))

MAX_OVERHEAD = 1.05  # enabled may cost at most 5% over disabled


def _ingest_workload():
    """Cold-cache loads, so the instrumented parse path actually runs."""
    return [load_ulm(path, cache=False) for path in LOGS]


def _evaluate_workload(dataset):
    return evaluate_dataset(dataset)  # the full battery: the fast engine


def _paired_best(workload, rounds):
    """Min-of-rounds with obs on and off, alternating, GC paused."""
    workload()  # warm both code paths and the page cache
    with disabled():
        workload()
    on = off = float("inf")
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            workload()
            on = min(on, time.perf_counter() - t0)
            with disabled():
                t0 = time.perf_counter()
                workload()
                off = min(off, time.perf_counter() - t0)
    finally:
        gc.enable()
    return on, off


def _assert_parity(with_obs, without_obs):
    assert set(with_obs) == set(without_obs)
    for link, on in with_obs.items():
        off = without_obs[link]
        assert on.names() == off.names()
        for name in on.names():
            a, b = on[name], off[name]
            assert np.array_equal(a.indices, b.indices)
            assert np.allclose(a.predicted, b.predicted, rtol=1e-12)
            assert a.abstentions == b.abstentions


@pytest.mark.benchmark(group="claim-obs-overhead")
def test_observability_overhead_is_under_five_percent():
    assert len(LOGS) == 4, f"expected the four shipped logs, found {LOGS}"
    assert enabled(), "observability must default to on"
    dataset = Dataset.from_ulm(LOGS, cache=True)

    # Parity first: the kill switch must be invisible to predictions.
    with_obs = _evaluate_workload(dataset)
    with disabled():
        without_obs = _evaluate_workload(dataset)
    _assert_parity(with_obs, without_obs)

    ingest_on, ingest_off = _paired_best(_ingest_workload, rounds=15)
    evaluate_on, evaluate_off = _paired_best(
        lambda: _evaluate_workload(dataset), rounds=12
    )

    ingest_ratio = ingest_on / ingest_off
    evaluate_ratio = evaluate_on / evaluate_off
    print(
        f"\ningest:   on {ingest_on * 1e3:.2f} ms   off {ingest_off * 1e3:.2f} ms"
        f"   ratio {ingest_ratio:.3f}\n"
        f"evaluate: on {evaluate_on * 1e3:.2f} ms   off {evaluate_off * 1e3:.2f} ms"
        f"   ratio {evaluate_ratio:.3f}"
    )
    record(
        "obs_overhead",
        f"observability on/off ratio stays under {MAX_OVERHEAD} on ingest "
        "and evaluate",
        measured=max(ingest_ratio, evaluate_ratio), floor=MAX_OVERHEAD,
        higher_is_better=False,
        ingest_ratio=ingest_ratio, evaluate_ratio=evaluate_ratio,
    )
    assert ingest_ratio < MAX_OVERHEAD, (
        f"obs adds {(ingest_ratio - 1) * 100:.1f}% to ingest; claim allows "
        f"<{(MAX_OVERHEAD - 1) * 100:.0f}%"
    )
    assert evaluate_ratio < MAX_OVERHEAD, (
        f"obs adds {(evaluate_ratio - 1) * 100:.1f}% to evaluate; claim allows "
        f"<{(MAX_OVERHEAD - 1) * 100:.0f}%"
    )


@pytest.mark.benchmark(group="claim-obs-overhead")
def test_warm_ingest_instrumentation_fits_the_budget():
    """The obs ops per load stay under 5% of one warm sidecar load.

    The warm load is ~1 ms, far too short for a stable macro on/off
    comparison on a shared machine, so this test prices the layer
    directly: micro-time exactly the instrument operations ``load_ulm``
    performs per load (one span with two attributes, four counter
    increments, a gauge set, a histogram observation, one event) and
    compare against the measured warm load itself.
    """
    Dataset.from_ulm(LOGS, cache=True)  # prime the sidecars
    for path in LOGS:
        assert cache_path(path).exists()

    registry = get_registry()
    counter = registry.counter("bench_obs_budget_bytes")
    hist = registry.histogram("bench_obs_budget_seconds")
    gauge = registry.gauge("bench_obs_budget_rate")
    bus = get_event_bus()

    reps = 5000
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            with span("bench.obs_budget", path="data/bench.ulm") as sp:
                counter.inc(100_000)
                counter.inc()
                counter.inc()
                counter.inc()
                hist.observe(0.001)
                gauge.set(1e8)
                sp.set_attribute("records", 336)
                sp.set_attribute("cached", True)
                bus.emit("bench.obs_budget", path="data/bench.ulm",
                         records=336, cached=True, bytes=100_000)
        obs_per_load = (time.perf_counter() - t0) / reps

        load_seconds = float("inf")
        with disabled():
            for _ in range(20):
                t0 = time.perf_counter()
                for path in LOGS:
                    load_ulm(path, cache=True)
                load_seconds = min(
                    load_seconds, (time.perf_counter() - t0) / len(LOGS)
                )
    finally:
        gc.enable()

    fraction = obs_per_load / load_seconds
    print(
        f"\nobs ops per load: {obs_per_load * 1e6:.1f} us   "
        f"warm load: {load_seconds * 1e6:.1f} us   "
        f"fraction {fraction * 100:.2f}%"
    )
    assert fraction < MAX_OVERHEAD - 1, (
        f"instrumentation costs {fraction * 100:.1f}% of a warm load; "
        f"claim allows <{(MAX_OVERHEAD - 1) * 100:.0f}%"
    )
