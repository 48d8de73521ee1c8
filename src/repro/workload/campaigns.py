"""Campaign drivers: run a "month" of controlled experiments.

These are the one-call entry points the analysis layer, benchmarks, and
examples use:

* :func:`run_link_campaign` — one link, one campaign on its own testbed.
* :func:`run_month` — both measured links (LBL->ANL and ISI->ANL) on one
  shared testbed/engine, exactly like the paper's data sets.  The two
  campaigns share the ANL client host, so their transfers contend for its
  disk — end-to-end effects the per-link view cannot explain.
* :func:`run_month_with_nws` — the same plus a five-minute NWS sensor on
  each path, producing the probe series of Figures 1–2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gridftp.transfer import TransferOutcome
from repro.logs.logfile import TransferLog
from repro.nws.sensor import NwsSensor, ProbeConfig
from repro.nws.series import TimeSeries
from repro.workload.controlled import CampaignConfig, ControlledCampaign
from repro.workload.scenarios import AUG_2001, Testbed, build_testbed

__all__ = ["CampaignOutput", "run_link_campaign", "run_month", "run_month_with_nws"]

#: The two measured links, (server, client) pairs, keyed by the paper's names.
PAPER_LINKS: Dict[str, tuple] = {
    "LBL-ANL": ("LBL", "ANL"),
    "ISI-ANL": ("ISI", "ANL"),
}


@dataclass
class CampaignOutput:
    """Everything one link's campaign produced."""

    link: str
    server_site: str
    client_site: str
    log: TransferLog
    outcomes: List[TransferOutcome]
    probes: Optional[TimeSeries] = None


def _attach_sensor(
    testbed: Testbed, server_site: str, client_site: str
) -> NwsSensor:
    path = testbed.topology.path(server_site, client_site)
    sensor = NwsSensor(
        engine=testbed.engine,
        path=path,
        rng=testbed.streams.get(f"nws:{server_site}-{client_site}"),
        config=ProbeConfig(),
    )
    sensor.start()
    return sensor


def run_link_campaign(
    server_site: str = "LBL",
    client_site: str = "ANL",
    seed: int = 0,
    config: Optional[CampaignConfig] = None,
) -> CampaignOutput:
    """Run one controlled campaign on its own testbed and return its log
    (two weeks from August 2001 unless ``config`` says otherwise)."""
    bed = build_testbed(seed=seed, start_time=AUG_2001)
    cfg = config or CampaignConfig(start_epoch=AUG_2001)
    campaign = ControlledCampaign(bed, server_site, client_site, cfg)
    campaign.start()
    bed.engine.run(until=cfg.end_epoch)
    campaign.stop()
    return CampaignOutput(
        link=f"{server_site}-{client_site}",
        server_site=server_site,
        client_site=client_site,
        log=bed.servers[server_site].monitor.log,
        outcomes=campaign.outcomes,
    )


def _run_shared(
    start_epoch: float, days: int, seed: int, with_nws: bool
) -> Dict[str, CampaignOutput]:
    bed = build_testbed(seed=seed, start_time=start_epoch)
    cfg = CampaignConfig(start_epoch=start_epoch, days=days)
    campaigns: Dict[str, ControlledCampaign] = {}
    sensors: Dict[str, NwsSensor] = {}
    for link, (server_site, client_site) in PAPER_LINKS.items():
        campaign = ControlledCampaign(bed, server_site, client_site, cfg)
        campaign.start()
        campaigns[link] = campaign
        if with_nws:
            sensors[link] = _attach_sensor(bed, server_site, client_site)
    bed.engine.run(until=cfg.end_epoch)
    outputs: Dict[str, CampaignOutput] = {}
    for link, campaign in campaigns.items():
        campaign.stop()
        sensor = sensors.get(link)
        if sensor is not None:
            sensor.stop()
        outputs[link] = CampaignOutput(
            link=link,
            server_site=campaign.server.site.name,
            client_site=campaign.client.site.name,
            log=campaign.server.monitor.log,
            outcomes=campaign.outcomes,
            probes=sensor.series if sensor is not None else None,
        )
    return outputs


def run_month(
    start_epoch: float = AUG_2001,
    days: int = 14,
    seed: int = 0,
) -> Dict[str, CampaignOutput]:
    """Both paper links on one shared testbed; keys ``LBL-ANL``/``ISI-ANL``."""
    return _run_shared(start_epoch, days, seed, with_nws=False)


def run_month_with_nws(
    start_epoch: float = AUG_2001,
    seed: int = 0,
) -> Dict[str, CampaignOutput]:
    """Like :func:`run_month` over two weeks, plus a 5-minute NWS sensor
    per path."""
    return _run_shared(start_epoch, 14, seed, with_nws=True)
