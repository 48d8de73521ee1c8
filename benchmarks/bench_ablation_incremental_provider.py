"""Ablation: batch vs incremental information provider.

Section 5.1's cost (1-2 s to process ~700 entries) is a rescan cost: the
provider walks the whole log per inquiry.  The incremental provider folds
each record into running summaries at append time (a binary search and
an O(n) memmove for the exact median's sorted column) and renders entries
in O(attributes).  This benchmark times an
inquiry against a large log under both designs and checks they publish
identical attributes.
"""

import pytest

from repro.logs import TransferLog
from repro.mds import GridFTPInfoProvider, IncrementalGridFTPInfoProvider
from repro.net import Site
from repro.workload import AUG_2001
from repro.workload.campaigns import run_link_campaign
from repro.workload.controlled import CampaignConfig


@pytest.fixture(scope="module")
def big_log():
    cfg = CampaignConfig(start_epoch=AUG_2001, days=28)
    output = run_link_campaign("LBL", "ANL", seed=6, config=cfg)
    log = TransferLog(host="dpsslx04.lbl.gov")
    for record in output.log.records():
        log.append(record)
    return log


@pytest.fixture(scope="module")
def site():
    return Site(name="LBL", domain="lbl.gov", address="131.243.2.91",
                hostname="dpsslx04.lbl.gov")


@pytest.mark.benchmark(group="ablation-provider")
def test_batch_provider_inquiry(benchmark, big_log, site):
    provider = GridFTPInfoProvider(log=big_log, site=site, url="u")
    now = big_log.latest().end_time + 1.0
    entries = benchmark(lambda: provider.entries(now))
    assert entries


@pytest.mark.benchmark(group="ablation-provider")
def test_incremental_provider_inquiry(benchmark, big_log, site):
    provider = IncrementalGridFTPInfoProvider(log=big_log, site=site, url="u")
    now = big_log.latest().end_time + 1.0
    entries = benchmark(lambda: provider.entries(now))
    assert entries

    # Parity with the batch provider on the attributes both publish.
    batch_entry = GridFTPInfoProvider(log=big_log, site=site, url="u").entries(now)[0]
    inc_entry = entries[0]
    for name in batch_entry.attribute_names():
        assert inc_entry.get(name) == batch_entry.get(name), name
    provider.close()
