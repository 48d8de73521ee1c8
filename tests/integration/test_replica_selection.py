"""Integration: the replica-selection use case end to end.

Two sites hold a replica; the LBL-ANL path is systematically less loaded
than the ISI-ANL path (testbed construction), so a broker fed each site's
transfer log should prefer LBL most of the time, and its choices should
beat always picking the slower site.
"""

import numpy as np
import pytest

from repro.core import ReplicaBroker, RiskAdjustedRanking
from repro.core.predictors import classified_predictors, paper_predictors, resolve
from repro.storage import ReplicaCatalog
from repro.units import GB, HOUR, MB
from repro.workload import AUG_2001, CampaignConfig, ControlledCampaign, build_testbed


@pytest.fixture(scope="module")
def broker_setup(august_outputs):
    catalog = ReplicaCatalog()
    logs = {}
    for output in august_outputs.values():
        catalog.register("lfn://physics/run42", output.server_site, 1 * GB)
        logs[output.server_site] = output.log
    client = "140.221.65.69"  # the ANL client both campaigns used
    return catalog, logs, client


def test_broker_ranks_both_sites(broker_setup):
    catalog, logs, client = broker_setup
    broker = ReplicaBroker(catalog, logs, paper_predictors()["AVG15"])
    ranked = broker.rank("lfn://physics/run42", client, now=2e9)
    assert len(ranked) == 2
    assert all(r.predicted_bandwidth is not None for r in ranked)


def test_broker_prefers_faster_link_on_average(broker_setup, august_outputs):
    catalog, logs, client = broker_setup
    broker = ReplicaBroker(catalog, logs, classified_predictors()["C-AVG15"])
    choice = broker.select("lfn://physics/run42", client, now=2e9)
    means = {
        output.server_site: np.mean([r.bandwidth for r in output.log.records()])
        for output in august_outputs.values()
    }
    truly_faster = max(means, key=means.get)
    assert choice.site == truly_faster


def test_predicted_bandwidths_plausible(broker_setup):
    catalog, logs, client = broker_setup
    broker = ReplicaBroker(catalog, logs, classified_predictors()["C-AVG"])
    for ranked in broker.rank("lfn://physics/run42", client, now=2e9):
        assert 1e6 < ranked.predicted_bandwidth < 20e6


def test_estimated_transfer_time_consistent(broker_setup):
    catalog, logs, client = broker_setup
    broker = ReplicaBroker(catalog, logs, paper_predictors()["AVG"])
    best = broker.select("lfn://physics/run42", client, now=2e9)
    eta = best.estimated_time(1 * GB)
    assert eta == pytest.approx(1 * GB / best.predicted_bandwidth)
    assert 30 < eta < 1000  # gigabyte over a loaded OC-3: O(minutes)


def replica_fetches(policy, seed=21, requests=60):
    """``(mean bandwidth, mean regret %)`` of a client at ANL fetching a
    500 MB replica from LBL or ISI, chosen by ``policy``.  Regret is
    against the path with more capacity free at each request.  Both logs
    are warmed first: without history the broker cold-starts onto one
    site and never tries the other.
    """
    bed = build_testbed(seed=seed, start_time=AUG_2001)
    servers = {site: bed.servers[site] for site in ("LBL", "ISI")}
    warm = CampaignConfig(start_epoch=AUG_2001, days=2)
    warmups = [ControlledCampaign(bed, site, "ANL", warm) for site in servers]
    for campaign in warmups:
        campaign.start()
    bed.engine.run(until=warm.end_epoch)
    for campaign in warmups:
        campaign.stop()

    catalog = ReplicaCatalog()
    for site in servers:
        catalog.register("lfn://data", site, 500 * MB)
    broker = ReplicaBroker(
        catalog, {site: server.monitor.log for site, server in servers.items()},
        resolve("C-AVG15", fallback=True),
    )
    risk_adjusted = RiskAdjustedRanking(broker, risk_aversion=0.5)
    rng = np.random.default_rng(seed)
    client, address = bed.clients["ANL"], bed.sites["ANL"].address
    realized, regret = [], []
    for i in range(requests):
        bed.engine.run(until=bed.engine.now + float(rng.uniform(0.5, 2.0)) * HOUR)
        now = bed.engine.now
        available = {s: bed.topology.path(s, "ANL").available(now) for s in servers}
        if policy == "broker":
            chosen = broker.select("lfn://data", address, now).site
        elif policy == "risk-adjusted":
            chosen = risk_adjusted.select("lfn://data", address, now).site
        elif policy == "random":
            chosen = str(rng.choice(sorted(servers)))
        else:  # round-robin
            chosen = sorted(servers)[i % 2]
        outcome = client.get(servers[chosen], bed.data_path(500 * MB),
                             streams=8, buffer=1 * MB)
        bed.engine.run(until=outcome.end_time)
        realized.append(outcome.bandwidth)
        best = max(available.values())
        regret.append(max(0.0, 1.0 - available[chosen] / best) * 100.0)
    return float(np.mean(realized)), float(np.mean(regret))


def test_brokers_beat_blind_choice_end_to_end():
    """Section 1's use case, closed loop: the predictive broker and its
    risk-adjusted variant realize more bandwidth than random or
    round-robin choice under the same arrivals, and regret less."""
    runs = {policy: replica_fetches(policy) for policy in
            ("broker", "risk-adjusted", "random", "round-robin")}
    means = {policy: mean for policy, (mean, _) in runs.items()}
    assert means["broker"] > means["random"]
    assert means["broker"] > means["round-robin"]
    assert means["risk-adjusted"] > means["random"]
    blind = min(runs["random"][1], runs["round-robin"][1])
    assert runs["broker"][1] < blind and runs["risk-adjusted"][1] < blind
