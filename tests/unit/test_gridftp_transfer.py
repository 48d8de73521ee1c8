"""Transfer engine: end-to-end composition of network and disks."""

import numpy as np
import pytest

from repro.gridftp import TransferEngine, TransferRequest
from repro.gridftp.transfer import LOGGING_OVERHEAD, SERVER_OVERHEAD
from repro.net import ConstantLoad, Link, Site, Topology
from repro.storage import Disk, DiskSpec
from repro.units import MB


def make_path(capacity=20e6, rtt=0.05, load=0.5):
    topo = Topology()
    for name in "AB":
        topo.add_site(Site(name=name))
    topo.add_link(Link(a="A", b="B", capacity=capacity, rtt=rtt,
                       load=ConstantLoad(load)))
    return topo.path("A", "B")


@pytest.fixture
def disks():
    return Disk("src"), Disk("dst")


class TestRequest:
    @pytest.mark.parametrize("kw", [
        dict(size=0), dict(size=100, streams=0), dict(size=100, buffer=0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TransferRequest(**kw)


class TestEngine:
    def test_deterministic_without_rng(self, disks):
        engine = TransferEngine(rng=None)
        path = make_path()
        req = TransferRequest(size=100 * MB, streams=8, buffer=1 * MB)
        a = engine.execute(path, req, *disks)
        b = engine.execute(path, req, *disks)
        assert a.end_time == b.end_time

    def test_bandwidth_is_size_over_duration(self, disks):
        engine = TransferEngine(rng=None)
        out = engine.execute(make_path(), TransferRequest(size=100 * MB, streams=8,
                                                          buffer=1 * MB), *disks)
        assert out.bandwidth == pytest.approx(100 * MB / out.duration)

    def test_network_is_bottleneck_with_fast_disks(self, disks):
        engine = TransferEngine(rng=None)
        out = engine.execute(make_path(capacity=20e6, load=0.5),
                             TransferRequest(size=500 * MB, streams=8, buffer=1 * MB),
                             *disks)
        # Available = 10 MB/s; disks are 60/45 MB/s.
        assert out.cap == pytest.approx(10e6)

    def test_slow_disk_becomes_bottleneck(self):
        slow = Disk("slow", DiskSpec(sustained_read=2e6, contention_exponent=1.0))
        dst = Disk("dst")
        engine = TransferEngine(rng=None)
        out = engine.execute(make_path(capacity=20e6, load=0.0),
                             TransferRequest(size=100 * MB, streams=8, buffer=1 * MB),
                             slow, dst)
        assert out.cap == pytest.approx(2e6)

    def test_jitter_cannot_exceed_wire_capacity(self, disks):
        engine = TransferEngine(rng=np.random.default_rng(0))
        path = make_path(capacity=20e6, load=0.02)
        bws = [
            engine.execute(path, TransferRequest(size=500 * MB, streams=8,
                                                 buffer=1 * MB, start_time=float(i)),
                           *disks).bandwidth
            for i in range(50)
        ]
        assert max(bws) <= 20e6

    def test_jitter_adds_variance(self, disks):
        noisy = TransferEngine(rng=np.random.default_rng(0))
        path = make_path()
        req = TransferRequest(size=100 * MB, streams=8, buffer=1 * MB)
        bws = {round(noisy.execute(path, req, *disks).bandwidth) for _ in range(10)}
        assert len(bws) > 1

    def test_overhead_included_in_duration(self, disks):
        engine = TransferEngine(rng=None)
        out = engine.execute(make_path(), TransferRequest(size=1 * MB), *disks)
        assert out.overhead >= SERVER_OVERHEAD + LOGGING_OVERHEAD
        assert out.duration > out.network_timing.duration

    def test_small_files_get_lower_bandwidth(self, disks):
        engine = TransferEngine(rng=None)
        path = make_path()
        small = engine.execute(path, TransferRequest(size=1 * MB, streams=8,
                                                     buffer=1 * MB), *disks)
        large = engine.execute(path, TransferRequest(size=1000 * MB, streams=8,
                                                     buffer=1 * MB), *disks)
        assert small.bandwidth < large.bandwidth / 2
