"""Workload generation: the testbed and the paper's controlled campaigns.

* :mod:`repro.workload.scenarios` — builds the three-site testbed (ANL,
  ISI, LBL) with OC-3-class wide-area links, per-link background load,
  disks, GridFTP servers/clients, and standard data files.
* :mod:`repro.workload.controlled` — the Section 6.1 campaign: daily
  transfers from 6 pm to 8 am, file sizes drawn uniformly from
  {1M … 1G}, random sleeps between transfers, 1 MB TCP buffers, 8
  parallel streams, for two weeks per "month".
* :mod:`repro.workload.campaigns` — convenience drivers that run the
  August/December campaigns over both links (optionally with concurrent
  NWS sensors) and hand back the logs the evaluation consumes.
* :mod:`repro.workload.open_workload` — Poisson-arrival request streams
  for logical files, the setting of the replica-selection example
  (``examples/replica_selection.py``).
"""

from repro.workload.scenarios import Testbed, build_testbed, AUG_2001, DEC_2001, PAPER_SIZES
from repro.workload.controlled import CampaignConfig, ControlledCampaign
from repro.workload.campaigns import (
    CampaignOutput,
    run_link_campaign,
    run_month,
    run_month_with_nws,
)
from repro.workload.open_workload import OpenWorkload, OpenWorkloadConfig
from repro.workload.active_probe import ActiveProbeConfig, ActiveProber

__all__ = [
    "Testbed",
    "build_testbed",
    "AUG_2001",
    "DEC_2001",
    "PAPER_SIZES",
    "CampaignConfig",
    "ControlledCampaign",
    "CampaignOutput",
    "run_link_campaign",
    "run_month",
    "run_month_with_nws",
    "OpenWorkload",
    "OpenWorkloadConfig",
    "ActiveProbeConfig",
    "ActiveProber",
]
