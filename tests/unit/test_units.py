"""Units and conversions."""

import pytest

from repro.units import (
    GB,
    KB,
    MB,
    bytes_per_sec_to_kbps,
    fmt_bandwidth,
    fmt_size,
    mbps_network_to_bytes_per_sec,
)


class TestConversions:
    def test_decimal_prefixes(self):
        assert KB == 1000 and MB == 10**6 and GB == 10**9

    def test_kbps_matches_paper_log(self):
        # Figure 3: 10240000 bytes in 4 s -> 2560 KB/s.
        assert bytes_per_sec_to_kbps(10_240_000 / 4) == 2560

    def test_network_mbps(self):
        # OC-3: 155 Mb/s = 19.375 MB/s.
        assert mbps_network_to_bytes_per_sec(155) == pytest.approx(19_375_000)


class TestFmtSize:
    @pytest.mark.parametrize(
        "size,expected",
        [(10 * MB, "10M"), (1 * GB, "1G"), (25 * MB, "25M"), (500, "500"), (2 * KB, "2K")],
    )
    def test_exact(self, size, expected):
        assert fmt_size(size) == expected

    def test_non_integral(self):
        assert fmt_size(1_500_000) == "1.5M"


class TestFmtBandwidth:
    def test_scales(self):
        assert fmt_bandwidth(6_062_000) == "6.06 MB/s"
        assert fmt_bandwidth(2_560) == "2.6 KB/s"
        assert fmt_bandwidth(999) == "999 B/s"
