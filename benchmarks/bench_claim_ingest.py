"""Ingest claim: a warm sidecar load beats re-parsing the ULM text.

:func:`repro.data.ingest.load_ulm` with ``cache=True`` keys an
``x.ulm.col`` sidecar (the shared file envelope) on the SHA-256 of the
log bytes; a repeat load of an unchanged file verifies and inflates it
instead of tokenizing text.  This times both loads of the four shipped
campaign logs and asserts the cached one is faster.

Run: ``python -m pytest benchmarks/bench_claim_ingest.py -q -s``
Artifact: ``BENCH_ingest_sidecar.json``.
"""

import time
from pathlib import Path

import pytest

from artifacts import record
from repro.data import Dataset, cache_path

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
LOGS = sorted(DATA_DIR.glob("*.ulm"))


@pytest.mark.benchmark(group="claim-ingest")
def test_sidecar_cache_beats_reparsing():
    """The sidecar read alone is faster than re-parsing the text."""
    assert len(LOGS) == 4, f"expected the four shipped logs, found {LOGS}"
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
        "warm .ulm.col sidecar load beats re-parsing the ULM text (>1x)",
        measured=parse_seconds / cached_seconds, floor=1.0,
        parse_seconds=parse_seconds, cached_seconds=cached_seconds,
    )
    assert cached_seconds < parse_seconds
