"""Replica-selection broker."""

import pytest

from repro.core import RankedReplica, ReplicaBroker, RiskAdjustedRanking
from repro.core.predictors import TotalAverage, classified_predictors
from repro.logs import Operation, TransferLog
from repro.mds import Entry, MdsReplicaBroker
from repro.storage import ReplicaCatalog
from repro.units import MB
from tests.conftest import make_record

CLIENT = "140.221.65.69"


def site_log(mean_bw, n=20, client=CLIENT, size=500 * MB):
    log = TransferLog()
    for i in range(n):
        log.append(
            make_record(start=1000.0 + i * 3600.0, size=size,
                        bandwidth=mean_bw, source_ip=client)
        )
    return log


@pytest.fixture
def broker():
    catalog = ReplicaCatalog()
    catalog.register("lfn://dataset", "LBL", 500 * MB)
    catalog.register("lfn://dataset", "ISI", 500 * MB)
    logs = {"LBL": site_log(8e6), "ISI": site_log(3e6)}
    return ReplicaBroker(catalog, logs, TotalAverage())


def test_ranks_fastest_first(broker):
    ranked = broker.rank("lfn://dataset", CLIENT, now=1e6)
    assert [r.site for r in ranked] == ["LBL", "ISI"]
    assert ranked[0].predicted_bandwidth == pytest.approx(8e6)


def test_select_returns_top(broker):
    assert broker.select("lfn://dataset", CLIENT, now=1e6).site == "LBL"


def test_estimated_time(broker):
    best = broker.select("lfn://dataset", CLIENT, now=1e6)
    assert best.estimated_time(500 * MB) == pytest.approx(500 * MB / 8e6)


def test_unknown_file_raises(broker):
    with pytest.raises(KeyError):
        broker.rank("lfn://ghost", CLIENT, now=0.0)


def test_history_filtered_by_client():
    """Only transfers to *this* client count."""
    catalog = ReplicaCatalog()
    catalog.register("f", "LBL", 500 * MB)
    log = site_log(9e6, client="9.9.9.9")  # someone else's transfers
    broker = ReplicaBroker(catalog, {"LBL": log}, TotalAverage())
    ranked = broker.rank("f", CLIENT, now=1e6)
    assert ranked[0].predicted_bandwidth is None
    assert ranked[0].history_length == 0


def test_history_excludes_writes():
    catalog = ReplicaCatalog()
    catalog.register("f", "LBL", 500 * MB)
    log = TransferLog()
    log.append(make_record(start=1.0, bandwidth=9e6, operation=Operation.WRITE))
    broker = ReplicaBroker(catalog, {"LBL": log}, TotalAverage())
    assert broker.rank("f", CLIENT, now=10.0)[0].predicted_bandwidth is None


def test_unknown_sites_ranked_last():
    catalog = ReplicaCatalog()
    catalog.register("f", "LBL", 500 * MB)
    catalog.register("f", "ISI", 500 * MB)
    broker = ReplicaBroker(
        catalog, {"LBL": site_log(2e6)}, TotalAverage()  # no ISI log at all
    )
    ranked = broker.rank("f", CLIENT, now=1e6)
    assert [r.site for r in ranked] == ["LBL", "ISI"]
    assert ranked[1].predicted_bandwidth is None


def test_classified_predictor_gets_file_size():
    """A classified broker predicts from same-class history only."""
    catalog = ReplicaCatalog()
    catalog.register("big", "LBL", 900 * MB)
    log = TransferLog()
    for i in range(10):
        log.append(make_record(start=1000.0 * (i + 1), size=10 * MB,
                               bandwidth=1e6))
    for i in range(10, 20):
        log.append(make_record(start=1000.0 * (i + 1), size=900 * MB,
                               bandwidth=8e6))
    broker = ReplicaBroker(catalog, {"LBL": log},
                           classified_predictors()["C-AVG"])
    ranked = broker.rank("big", CLIENT, now=1e6)
    assert ranked[0].predicted_bandwidth == pytest.approx(8e6)


def test_deterministic_tiebreak_on_equal_predictions():
    catalog = ReplicaCatalog()
    for site in ("ISI", "LBL"):
        catalog.register("f", site, 500 * MB)
    logs = {"LBL": site_log(5e6), "ISI": site_log(5e6)}
    ranked = ReplicaBroker(catalog, logs, TotalAverage()).rank("f", CLIENT, 1e6)
    assert [r.site for r in ranked] == ["ISI", "LBL"]  # catalog order on tie


class EqualDirectory:
    """A directory publishing the same average (5000K) for every host."""

    def __init__(self, hostnames):
        self.entries = []
        for hostname in hostnames:
            entry = Entry(f"hostname={hostname},o=grid")
            entry.add("objectclass", "GridFTPPerf")
            entry.add("hostname", hostname)
            entry.add("avgrdbandwidth", "5000K")
            self.entries.append(entry)

    def search(self, now, flt=None):
        return list(self.entries)


BROKERS = {
    "log": lambda catalog, logs: ReplicaBroker(
        catalog, logs, TotalAverage()).rank("f", CLIENT, 1e6),
    "risk-adjusted": lambda catalog, logs: RiskAdjustedRanking(
        ReplicaBroker(catalog, logs, TotalAverage())).rank("f", CLIENT, 1e6),
    "mds": lambda catalog, logs: MdsReplicaBroker(
        catalog, EqualDirectory(logs), {site: site for site in catalog.locations("f")}
    ).rank("f", now=0.0),
}


@pytest.mark.parametrize("rank", BROKERS.values(), ids=BROKERS.keys())
def test_every_broker_ranks_one_type_with_ties_in_catalog_order(rank):
    # Three sites measured at an equal 5 MB/s and one with nothing known,
    # registered out of order: the catalog sorts them, ties keep that
    # order, and the unknown site ranks last wherever it sits.
    catalog = ReplicaCatalog()
    for site in ("LBL", "CERN", "ISI", "ANL"):
        catalog.register("f", site, 500 * MB)
    ranked = rank(catalog, {site: site_log(5e6) for site in ("LBL", "ISI", "ANL")})
    assert all(isinstance(r, RankedReplica) for r in ranked)
    assert all(type(r).estimated_time is RankedReplica.estimated_time for r in ranked)
    assert [r.site for r in ranked] == ["ANL", "ISI", "LBL", "CERN"]
    assert [r.estimated_time(500 * MB) for r in ranked] == [
        pytest.approx(100.0)] * 3 + [None]
