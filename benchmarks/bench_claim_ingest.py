"""Ingest claim: the cached columnar pipeline beats the seed path >=5x.

End-to-end cost of "load the four shipped campaign logs and walk the
full 30-predictor battery over each":

* **seed path** — per-record ULM parsing (one quote-aware scan, one
  dict, one dataclass per line) followed by the generic walk-forward
  evaluator (one Python ``predict`` call per predictor per record);
* **columnar path** — :func:`repro.data.ingest.load_ulm` through the
  warm binary sidecar cache (array deserialization, no string
  parsing) followed by :func:`repro.core.engine.evaluate_dataset`
  routing the battery to the vectorized kernels.

Both paths produce trace-identical predictions — asserted below before
timing, so the speedup is never bought with a semantics change.  The
>=5x ratio is asserted; on a warm cache it is typically far larger.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from artifacts import record
from repro.core.engine import evaluate_dataset
from repro.core.evaluation import evaluate as generic_evaluate
from repro.core.predictors import ALL_PREDICTOR_NAMES, resolve_battery
from repro.data import Dataset, cache_path
from repro.logs.ulm import parse_lines

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
LOGS = sorted(DATA_DIR.glob("*.ulm"))

MIN_SPEEDUP = 5.0


def _seed_path():
    """Per-record parse + generic 30-predictor walk, per log."""
    results = {}
    battery = resolve_battery(ALL_PREDICTOR_NAMES)
    for path in LOGS:
        records = list(parse_lines(path.read_text().splitlines()))
        results[path.stem] = generic_evaluate(records, battery)
    return results


def _columnar_path():
    """Warm-cache columnar load + vectorized battery across all links."""
    dataset = Dataset.from_ulm(LOGS, cache=True)
    return evaluate_dataset(dataset)  # the full battery: the fast engine


@pytest.mark.benchmark(group="claim-ingest")
def test_columnar_ingest_beats_seed_path():
    assert len(LOGS) == 4, f"expected the four shipped logs, found {LOGS}"

    # Parity first: identical traces on every link, every predictor.
    seed_results = _seed_path()
    Dataset.from_ulm(LOGS, cache=True)  # prime the sidecar cache
    columnar_results = _columnar_path()
    assert set(seed_results) == set(columnar_results)
    for link, seed_result in seed_results.items():
        columnar_result = columnar_results[link]
        assert seed_result.names() == columnar_result.names()
        for name in seed_result.names():
            a, b = seed_result[name], columnar_result[name]
            assert np.array_equal(a.indices, b.indices)
            assert np.allclose(a.predicted, b.predicted, rtol=1e-9)
            assert a.abstentions == b.abstentions

    rounds = 3
    t0 = time.perf_counter()
    for _ in range(rounds):
        _seed_path()
    seed_seconds = (time.perf_counter() - t0) / rounds

    t0 = time.perf_counter()
    for _ in range(rounds):
        _columnar_path()
    columnar_seconds = (time.perf_counter() - t0) / rounds

    speedup = seed_seconds / columnar_seconds
    print(
        f"\nseed path: {seed_seconds * 1e3:.1f} ms   "
        f"columnar path: {columnar_seconds * 1e3:.1f} ms   "
        f"speedup: {speedup:.1f}x  ({len(LOGS)} logs, 30-predictor battery)"
    )
    record(
        "ingest",
        f"cached columnar ingest + vectorized battery >= {MIN_SPEEDUP}x seed path",
        measured=speedup, floor=MIN_SPEEDUP,
        seed_seconds=seed_seconds, columnar_seconds=columnar_seconds,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar path only {speedup:.1f}x faster "
        f"({seed_seconds:.3f}s vs {columnar_seconds:.3f}s); claim needs "
        f">={MIN_SPEEDUP}x"
    )


@pytest.mark.benchmark(group="claim-ingest")
def test_sidecar_cache_beats_reparsing():
    """The sidecar read alone is faster than re-parsing the text."""
    Dataset.from_ulm(LOGS, cache=True)  # ensure sidecars exist
    for path in LOGS:
        assert cache_path(path).exists()

    rounds = 5
    t0 = time.perf_counter()
    for _ in range(rounds):
        Dataset.from_ulm(LOGS, cache=False)
    parse_seconds = (time.perf_counter() - t0) / rounds

    t0 = time.perf_counter()
    for _ in range(rounds):
        Dataset.from_ulm(LOGS, cache=True)
    cached_seconds = (time.perf_counter() - t0) / rounds

    print(
        f"\nparse: {parse_seconds * 1e3:.2f} ms   "
        f"cached: {cached_seconds * 1e3:.2f} ms   "
        f"({parse_seconds / cached_seconds:.1f}x)"
    )
    record(
        "ingest_sidecar",
        "warm sidecar load beats re-parsing the ULM text (>1x)",
        measured=parse_seconds / cached_seconds, floor=1.0,
        parse_seconds=parse_seconds, cached_seconds=cached_seconds,
    )
    assert cached_seconds < parse_seconds
