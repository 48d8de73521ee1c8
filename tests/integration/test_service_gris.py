"""The warm-service MDS provider: parity with the batch provider + GRIS wiring."""

import hashlib
from pathlib import Path

import pytest

from repro.logs import Operation, TransferLog
from repro.mds import (
    GRIS,
    GridFTPInfoProvider,
    ServicePerfProvider,
    format_entries,
)
from repro.net import Site
from repro.service import PredictionService
from tests.conftest import make_record

DATA_DIR = Path(__file__).resolve().parent.parent.parent / "data"

SITE = Site(name="LBL", domain="lbl.gov", address="131.243.2.91",
            hostname="dpsslx04.lbl.gov")
URL = "gsiftp://dpsslx04.lbl.gov:61000"

#: SHA-256 of the batch provider's LDIF (``now`` = last end time + 60 s),
#: generated at the commit before the three providers shared one renderer.
BATCH_LDIF_SHA256 = {
    "aug-LBL-ANL": "bc228fd71e248d306e165176cf82b6b50f374ba98b98c6e55a02676cc31efb4f",
    "aug-ISI-ANL": "c0df4048c249b7ccae91077bfeec1bcadc29caef0868cb0562792583dc1409d3",
    "dec-LBL-ANL": "c927e9205e8660c65f330686b14ed4f53effc54b4d975b62a2d855355a13986f",
    "dec-ISI-ANL": "40c6a1691695e3adebba5222604bc62acb6ab0e1b12de37c897621c2b6e3237b",
}


def fixture_log(write_size=None):
    log = TransferLog()
    sizes = [10_000_000, 120_000_000, 600_000_000, 1_500_000_000] * 10
    for i, size in enumerate(sizes):
        log.append(make_record(
            start=1000.0 + 500 * i, size=size, duration=5.0 + i % 7,
            operation=Operation.WRITE if size == write_size else Operation.READ))
    return log


@pytest.fixture
def log():
    return fixture_log()


@pytest.fixture
def warm(log):
    service = PredictionService()
    service.ingest_records("LBL-ANL", log.records())
    return service


def ldif(provider, now):
    return format_entries(provider.entries(now))


def served_ldif(log, now):
    service = PredictionService()
    service.ingest_records("LBL-ANL", log.records())
    return ldif(ServicePerfProvider(service, "LBL-ANL", SITE, URL), now)


def parity_logs():
    """The fixture log, a shipped one, and one with a class of writes.

    The service predicts from a link's whole history and the log-backed
    providers from its reads, so the mixed log keeps each size class to
    one direction.
    """
    return [fixture_log(), TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm"),
            fixture_log(write_size=1_500_000_000)]


def test_entry_matches_batch_provider_exactly():
    """Byte-identical LDIF: same attributes, same values, same order."""
    for log in parity_logs():
        now = log.latest().end_time + 60.0
        batch = GridFTPInfoProvider(log=log, site=SITE, url=URL)
        assert served_ldif(log, now) == ldif(batch, now)


@pytest.mark.parametrize("name", sorted(BATCH_LDIF_SHA256))
def test_batch_provider_ldif_is_pinned(name):
    log = TransferLog.load(DATA_DIR / f"{name}.ulm")
    batch = GridFTPInfoProvider(log=log, site=SITE, url=URL)
    text = ldif(batch, log.latest().end_time + 60.0)
    assert hashlib.sha256(text.encode()).hexdigest() == BATCH_LDIF_SHA256[name]


def test_predictions_flow_through_the_service_cache(log, warm):
    now = log.latest().end_time + 60.0
    provider = ServicePerfProvider(warm, "LBL-ANL", SITE, URL)
    provider.entries(now)
    misses_after_first = warm.cache_stats()["misses"]
    provider.entries(now)
    stats = warm.cache_stats()
    # The second render recomputes nothing: all class predictions hit.
    assert stats["misses"] == misses_after_first
    assert stats["hits"] > 0


def test_unknown_or_empty_link_publishes_nothing(warm):
    provider = ServicePerfProvider(warm, "NOWHERE", SITE, URL)
    assert provider.entries(1000.0) == []


def test_gris_serves_warm_entries_and_sees_growth(log, warm):
    now = log.latest().end_time + 60.0
    gris = GRIS("lbl-gris", cache_ttl=30.0)
    gris.add_provider("gridftp", ServicePerfProvider(warm, "LBL-ANL", SITE, URL))

    [entry] = gris.search(now, "(objectclass=GridFTPPerf)")
    assert entry.first("numtransfers") == "40"

    # New transfer lands; within the TTL the GRIS serves the cached copy,
    # after invalidation the provider re-renders from the grown state.
    warm.observe("LBL-ANL", make_record(start=now + 10.0, size=600_000_000))
    [cached] = gris.search(now + 1.0, "(objectclass=GridFTPPerf)")
    assert cached.first("numtransfers") == "40"
    gris.invalidate()
    [fresh] = gris.search(now + 2.0, "(objectclass=GridFTPPerf)")
    assert fresh.first("numtransfers") == "41"
