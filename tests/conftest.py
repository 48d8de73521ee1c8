"""Shared fixtures.

Campaign runs are session-scoped: the full two-week dual-link campaign
takes under a second, but dozens of tests consume it, so it runs once.
"""

from __future__ import annotations

import pytest

from repro.core.classification import paper_classification
from repro.logs.record import Operation, TransferRecord
from repro.units import HOUR, MB
from repro.workload import AUG_2001, CampaignConfig, build_testbed, run_month
from repro.workload.campaigns import run_month_with_nws


@pytest.fixture
def classification():
    return paper_classification()


def make_record(
    *,
    start: float = 1000.0,
    duration: float = 10.0,
    size: int = 100 * MB,
    bandwidth: float | None = None,
    source_ip: str = "140.221.65.69",
    operation: Operation = Operation.READ,
    streams: int = 8,
    buffer: int = 1 * MB,
    file_name: str = "/home/ftp/data/100M",
    volume: str = "/home/ftp",
) -> TransferRecord:
    """A valid record with overridable fields, for unit tests."""
    return TransferRecord(
        source_ip=source_ip,
        file_name=file_name,
        file_size=size,
        volume=volume,
        start_time=start,
        end_time=start + duration,
        bandwidth=(
            bandwidth
            if bandwidth is not None
            else (size / duration if duration > 0 else 1.0)
        ),
        operation=operation,
        streams=streams,
        tcp_buffer=buffer,
    )


@pytest.fixture
def record_factory():
    return make_record


@pytest.fixture
def sample_records():
    """Twenty records over two days, mixed sizes, strictly ordered."""
    records = []
    sizes = [10 * MB, 100 * MB, 500 * MB, 1000 * MB] * 5
    for i, size in enumerate(sizes):
        start = 1_000_000.0 + i * 2 * HOUR
        records.append(
            make_record(start=start, duration=10.0 + i, size=size)
        )
    return records


@pytest.fixture
def testbed():
    """A fresh testbed per test (cheap: no campaign run)."""
    return build_testbed(seed=7, start_time=AUG_2001)


@pytest.fixture(scope="session")
def august_outputs():
    """The paper's August datasets: both links, seed 1."""
    return run_month(start_epoch=AUG_2001, seed=1)


@pytest.fixture(scope="session")
def august_with_nws():
    """August campaign with concurrent NWS sensors (Figures 1-2 data)."""
    return run_month_with_nws(seed=1)


@pytest.fixture(scope="session")
def short_campaign_output():
    """A 3-day single-link campaign for faster integration tests."""
    from repro.workload.campaigns import run_link_campaign

    cfg = CampaignConfig(start_epoch=AUG_2001, days=3)
    return run_link_campaign("LBL", "ANL", seed=3, config=cfg)
