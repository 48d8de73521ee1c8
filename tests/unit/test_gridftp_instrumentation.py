"""The monitor: record construction from a transfer outcome."""

import pytest

from repro.gridftp import Monitor, TransferEngine, TransferRequest
from repro.logs import Operation
from repro.storage import Disk
from repro.units import MB
from tests.unit.test_gridftp_transfer import make_path


@pytest.fixture
def outcome():
    engine = TransferEngine(rng=None)
    return engine.execute(
        make_path(),
        TransferRequest(size=100 * MB, streams=8, buffer=1 * MB, start_time=50.0),
        Disk("s"),
        Disk("d"),
    )


def test_record_fields_from_outcome(outcome):
    monitor = Monitor(host="lbl.gov")
    record = monitor.record(
        outcome,
        source_ip="140.221.65.69",
        file_name="/home/ftp/data/100M",
        volume="/home/ftp",
        operation=Operation.READ,
    )
    assert record.file_size == 100 * MB
    assert record.start_time == 50.0
    assert record.end_time == outcome.end_time
    assert record.bandwidth == pytest.approx(outcome.bandwidth)
    assert monitor.log.records() == [record]


def test_bandwidth_is_end_to_end_sustained(outcome):
    """BW = size / total time, including overheads — the paper's formula."""
    monitor = Monitor()
    record = monitor.record(
        outcome, source_ip="1.2.3.4", file_name="/v/f", volume="/v",
        operation=Operation.READ,
    )
    assert record.bandwidth == pytest.approx(100 * MB / outcome.duration)
    # Strictly less than the steady network rate: overheads are charged.
    assert record.bandwidth < outcome.network_timing.steady_rate

