"""The complete Figure 5 loop, end to end:

instrumented servers -> log providers -> per-site GRIS ->
organization GIIS -> a *remote* broker that sees only directory entries
-> replica choice -> an actual transfer that lands back in the logs.
"""

import pytest

from repro.mds import GIIS, GRIS, GridFTPInfoProvider, MdsReplicaBroker
from repro.storage import ReplicaCatalog
from repro.units import GB, MB
from repro.workload import AUG_2001, build_testbed
from repro.workload.controlled import CampaignConfig, ControlledCampaign


@pytest.fixture(scope="module")
def grid():
    """A testbed with 2 days of traffic and the full MDS stack wired."""
    bed = build_testbed(seed=19, start_time=AUG_2001)
    cfg = CampaignConfig(start_epoch=AUG_2001, days=2)
    campaigns = [ControlledCampaign(bed, s, "ANL", cfg) for s in ("LBL", "ISI")]
    for c in campaigns:
        c.start()
    bed.engine.run(until=cfg.end_epoch)
    for c in campaigns:
        c.stop()

    giis = GIIS("giis-grid", default_ttl=86_400.0)
    now = bed.engine.now
    for name in ("LBL", "ISI"):
        server = bed.servers[name]
        provider = GridFTPInfoProvider(
            log=server.monitor.log, site=server.site, url=server.url
        )
        gris = GRIS(f"gris-{name.lower()}", cache_ttl=0.0)
        gris.add_provider("gridftp", provider)
        giis.register(gris, now=now)

    catalog = ReplicaCatalog()
    for name in ("LBL", "ISI"):
        catalog.register("lfn://dataset", name, 1 * GB)
    broker = MdsReplicaBroker(
        catalog, giis,
        {name: bed.sites[name].hostname for name in ("LBL", "ISI")},
    )
    return bed, giis, broker


def test_directory_carries_both_sites(grid):
    bed, giis, _ = grid
    entries = giis.search(bed.engine.now, flt="(objectclass=GridFTPPerf)")
    hostnames = {e.first("hostname") for e in entries}
    assert hostnames == {"dpsslx04.lbl.gov", "jet.isi.edu"}


def test_remote_broker_ranks_from_directory_alone(grid):
    bed, _, broker = grid
    ranked = broker.rank("lfn://dataset", bed.engine.now)
    assert len(ranked) == 2
    assert all(r.predicted_bandwidth is not None for r in ranked)
    assert all(r.source_attribute.startswith("predictedrdbandwidth") for r in ranked)
    assert ranked[0].predicted_bandwidth >= ranked[1].predicted_bandwidth


def test_directory_choice_agrees_with_log_level_broker(grid):
    """The MDS broker (directory attributes) and the log-level broker
    (raw histories, total-average predictor) pick the same site — the
    provider publishes exactly that predictor's output."""
    from repro.core import ReplicaBroker
    from repro.core.predictors import classified_predictors

    bed, _, mds_broker = grid
    catalog = ReplicaCatalog()
    for name in ("LBL", "ISI"):
        catalog.register("lfn://dataset", name, 1 * GB)
    log_broker = ReplicaBroker(
        catalog,
        {name: bed.servers[name].monitor.log for name in ("LBL", "ISI")},
        classified_predictors()["C-AVG"],
    )
    now = bed.engine.now
    assert (
        mds_broker.select("lfn://dataset", now).site
        == log_broker.select("lfn://dataset", bed.sites["ANL"].address, now).site
    )


def test_choice_feeds_back_into_the_directory(grid):
    """Fetch from the chosen site; the provider (re-reading the live log
    on every uncached inquiry) reflects the new transfer on the next one."""
    bed, giis, broker = grid
    now = bed.engine.now
    choice = broker.select("lfn://dataset", now)
    before = {
        e.first("hostname"): int(e.first("numtransfers"))
        for e in giis.search(now, flt="(objectclass=GridFTPPerf)")
    }
    server = bed.servers[choice.site]
    outcome = bed.clients["ANL"].get(server, bed.data_path(1 * GB),
                                     streams=8, buffer=1 * MB)
    bed.engine.run(until=outcome.end_time + 1)
    after = {
        e.first("hostname"): int(e.first("numtransfers"))
        for e in giis.search(bed.engine.now, flt="(objectclass=GridFTPPerf)")
    }
    assert after[choice.hostname] == before[choice.hostname] + 1


def test_class_specific_attributes_drive_small_files(grid):
    bed, _, broker = grid
    broker.catalog.register("lfn://thumbnail", "LBL", 5 * MB)
    broker.catalog.register("lfn://thumbnail", "ISI", 5 * MB)
    ranked = broker.rank("lfn://thumbnail", bed.engine.now)
    for r in ranked:
        assert "10mbrange" in r.source_attribute
    # Small-class predictions are lower than 1GB-class ones (TCP startup).
    big = broker.rank("lfn://dataset", bed.engine.now)
    assert ranked[0].predicted_bandwidth < big[0].predicted_bandwidth
