"""TCP throughput model: the physics behind the paper's phenomena."""

import pytest

from repro.net import TcpConfig, TcpModel
from repro.units import MB


@pytest.fixture
def tcp():
    return TcpModel()


class TestConfig:
    def test_defaults(self):
        cfg = TcpConfig()
        assert cfg.initial_window == 2 * 1460

    @pytest.mark.parametrize("kw", [dict(mss=0), dict(initial_window_segments=0),
                                    dict(handshake_rtts=-1), dict(default_buffer=0)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TcpConfig(**kw)


class TestSteadyState:
    def test_window_limited(self, tcp):
        # 64 KB buffer on 50 ms path: 1.28 MB/s regardless of capacity.
        rate = tcp.steady_rate(rtt=0.05, available_bw=100e6, buffer=64_000, streams=1)
        assert rate == pytest.approx(64_000 / 0.05)

    def test_bandwidth_limited(self, tcp):
        # Big buffers: the bottleneck is the wire.
        rate = tcp.steady_rate(rtt=0.05, available_bw=10e6, buffer=1 * MB, streams=8)
        assert rate == pytest.approx(10e6)

    def test_parallel_streams_multiply_window_cap(self, tcp):
        one = tcp.steady_rate(rtt=0.05, available_bw=100e6, buffer=64_000, streams=1)
        eight = tcp.steady_rate(rtt=0.05, available_bw=100e6, buffer=64_000, streams=8)
        assert eight == pytest.approx(8 * one)

    def test_effective_window_floor_is_mss(self, tcp):
        w = tcp.effective_window(rtt=0.05, available_bw=1000.0, buffer=64_000, streams=8)
        assert w == tcp.config.mss


class TestTiming:
    def test_duration_components_sum(self, tcp):
        t = tcp.timing(100 * MB, rtt=0.05, available_bw=10e6, buffer=1 * MB, streams=8)
        assert t.duration == pytest.approx(t.setup_time + t.slow_start_time + t.steady_time)

    def test_small_transfer_finishes_in_slow_start(self, tcp):
        # Slow start can carry w_eff - iw = ~61 KB; 32 KB fits inside it.
        t = tcp.timing(32_000, rtt=0.05, available_bw=10e6, buffer=64_000, streams=1)
        assert t.steady_time == 0.0
        assert t.slow_start_time > 0.0
        assert t.setup_time + t.slow_start_time == pytest.approx(t.duration)

    def test_large_transfer_dominated_by_steady_state(self, tcp):
        t = tcp.timing(1000 * MB, rtt=0.05, available_bw=10e6, buffer=1 * MB, streams=8)
        assert t.setup_time + t.slow_start_time < 0.05 * t.duration
        assert t.bandwidth == pytest.approx(10e6, rel=0.05)

    def test_bandwidth_grows_with_size(self, tcp):
        """Section 4.3's observation: the basis for classification."""
        sizes = [1 * MB, 10 * MB, 100 * MB, 1000 * MB]
        bws = [
            tcp.bandwidth(s, rtt=0.055, available_bw=10e6, buffer=1 * MB, streams=8)
            for s in sizes
        ]
        assert bws == sorted(bws)
        assert bws[-1] > 2 * bws[0]

    def test_nws_probe_underestimates_gridftp(self, tcp):
        """The Figures 1-2 gap, at the model level."""
        probe = tcp.bandwidth(64_000, rtt=0.055, available_bw=10e6,
                              buffer=TcpConfig().default_buffer, streams=1)
        gridftp = tcp.bandwidth(500 * MB, rtt=0.055, available_bw=10e6,
                                buffer=1 * MB, streams=8)
        assert probe < 0.3e6           # paper: probes < 0.3 MB/s
        assert gridftp > 5 * probe     # order-of-magnitude gap

    def test_more_streams_never_slower(self, tcp):
        kw = dict(rtt=0.05, available_bw=10e6, buffer=64_000)
        b1 = tcp.bandwidth(100 * MB, streams=1, **kw)
        b8 = tcp.bandwidth(100 * MB, streams=8, **kw)
        assert b8 >= b1

    def test_shorter_rtt_faster_for_small_files(self, tcp):
        kw = dict(available_bw=10e6, buffer=1 * MB, streams=8)
        fast = tcp.bandwidth(5 * MB, rtt=0.02, **kw)
        slow = tcp.bandwidth(5 * MB, rtt=0.08, **kw)
        assert fast > slow

    def test_bandwidth_bounded_by_available(self, tcp):
        for size in (1 * MB, 100 * MB, 1000 * MB):
            bw = tcp.bandwidth(size, rtt=0.05, available_bw=10e6, buffer=1 * MB, streams=8)
            assert bw <= 10e6 + 1e-6

    @pytest.mark.parametrize("kw", [
        dict(size=0, rtt=0.05, available_bw=1e6, buffer=1000, streams=1),
        dict(size=100, rtt=0, available_bw=1e6, buffer=1000, streams=1),
        dict(size=100, rtt=0.05, available_bw=0, buffer=1000, streams=1),
        dict(size=100, rtt=0.05, available_bw=1e6, buffer=0, streams=1),
        dict(size=100, rtt=0.05, available_bw=1e6, buffer=1000, streams=0),
    ])
    def test_invalid_arguments(self, tcp, kw):
        with pytest.raises(ValueError):
            tcp.timing(kw.pop("size"), **kw)
