"""Thread-safety: concurrent ingest and query must never corrupt state.

The service's contract under concurrency:

* a query snapshot is internally consistent (sorted times, matching
  lengths) no matter how much ingest races it;
* every answered prediction corresponds to a real history version;
* after the dust settles, counts, versions, and cached answers are
  exactly what a serial execution would produce.
"""

import sys
import threading

import numpy as np
import pytest

from repro.service import PredictionService
from repro.store import LinkStore
from repro.units import MB
from tests.conftest import make_record

N_RECORDS = 300
N_QUERY_THREADS = 4


def test_concurrent_ingest_and_query():
    service = PredictionService()
    records = [
        make_record(start=1000.0 + 50 * i, size=(10 + (i % 4) * 30) * MB)
        for i in range(N_RECORDS)
    ]
    errors = []
    stop = threading.Event()

    def ingest():
        try:
            for record in records:
                service.observe("LBL-ANL", record)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def query():
        try:
            while not stop.is_set():
                prediction = service.predict("LBL-ANL", 100 * MB)
                assert 0 <= prediction.history_length <= N_RECORDS
                assert prediction.version >= 0
                history = service.history("LBL-ANL")
                assert len(history.times) == len(history.values) == len(history.sizes)
                assert (np.diff(history.times) >= 0).all()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=ingest)]
    threads += [threading.Thread(target=query) for _ in range(N_QUERY_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert service.version("LBL-ANL") == N_RECORDS
    assert len(service.history("LBL-ANL")) == N_RECORDS
    # The settled answer equals a serial rebuild's answer.
    serial = PredictionService()
    serial.ingest_records("LBL-ANL", records)
    now = 10_000_000.0
    assert (
        service.predict("LBL-ANL", 100 * MB, now=now).value
        == serial.predict("LBL-ANL", 100 * MB, now=now).value
    )


def test_concurrent_queries_share_the_cache():
    service = PredictionService(clock=lambda: 10_000_000.0)
    service.ingest_records(
        "LBL-ANL", [make_record(start=1000.0 + 100 * i) for i in range(50)]
    )
    values = []
    lock = threading.Lock()

    def query():
        for _ in range(200):
            value = service.predict("LBL-ANL", 100 * MB).value
            with lock:
                values.append(value)

    threads = [threading.Thread(target=query) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(set(values)) == 1  # one history version -> one answer
    stats = service.cache_stats()
    assert stats["hits"] + stats["misses"] == 1600
    # All but the racing first computations were cache hits.
    assert stats["hits"] >= 1600 - 8


def test_concurrent_multi_link_ingest():
    service = PredictionService()
    links = [f"SITE{k}-ANL" for k in range(6)]

    def ingest(link):
        for i in range(100):
            service.observe(link, make_record(start=1000.0 + 10 * i))

    threads = [threading.Thread(target=ingest, args=(link,)) for link in links]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert service.links() == sorted(links)
    for link in links:
        assert service.version(link) == 100
    snap = service.metrics.snapshot()
    assert snap["service_ingested_records"]["value"] == 600
    assert snap["service_links"]["value"] == len(links)


def test_concurrent_traffic_under_a_resident_ceiling(tmp_path):
    # Four threads, each owning 8 of 32 links, interleave observes and
    # predicts on them while a ceiling of 8 keeps evicting and reviving
    # whatever another thread touched less recently.  One thread per
    # link is the service's contract: one observer per link.
    max_resident, threads_n, per_thread, rows = 8, 4, 8, 12
    links = [f"SITE{k}-ANL" for k in range(threads_n * per_thread)]
    service = PredictionService(store=LinkStore(tmp_path / "state"),
                                max_resident=max_resident,
                                clock=lambda: 10_000_000.0)

    def records(k):
        return [make_record(start=1000.0 + 100 * i,
                            size=(10 + ((i + k) % 4) * 300) * MB,
                            bandwidth=1e6 * (1 + (i * 7 + k) % 13))
                for i in range(rows)]

    errors = []

    def drive(owned):
        try:
            for i in range(rows):
                for k in owned:
                    service.observe(links[k], records(k)[i])
                    service.predict(links[(k + 1) % len(owned) + owned[0]],
                                    100 * MB)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(
            list(range(t * per_thread, (t + 1) * per_thread)),))
        for t in range(threads_n)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave touches, evictions, revivals
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(t.is_alive() for t in threads)
    assert not errors
    store = service.status()["store"]
    assert store["resident_links"] <= max_resident
    assert store["evictions"] > 0 and store["revivals"] > 0
    resident = PredictionService(clock=lambda: 10_000_000.0)
    for k, link in enumerate(links):
        resident.ingest_records(link, records(k))
    for link in links:
        for spec in ("LV", "C-AVG15", "MED25", "AR5d"):
            for size in (10 * MB, 620 * MB):
                got = service.predict(link, size, spec=spec)
                want = resident.predict(link, size, spec=spec)
                assert repr((got.value, got.version, got.history_length)) == \
                    repr((want.value, want.version, want.history_length))
