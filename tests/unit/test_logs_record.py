"""TransferRecord validation and derived fields."""

import pytest

from repro.logs import Operation
from tests.conftest import make_record


class TestOperation:
    @pytest.mark.parametrize("text,expected", [
        ("read", Operation.READ), ("Write", Operation.WRITE), (" READ ", Operation.READ),
    ])
    def test_parse(self, text, expected):
        assert Operation.parse(text) is expected

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            Operation.parse("append")


class TestValidation:
    def test_valid_record(self):
        r = make_record()
        assert r.total_time == pytest.approx(10.0)

    @pytest.mark.parametrize("kw", [
        dict(size=0),
        dict(duration=0.0),
        dict(duration=-1.0),
        dict(bandwidth=0.0),
        dict(bandwidth=-5.0),
        dict(streams=0),
        dict(buffer=0),
        dict(source_ip=""),
        dict(file_name=""),
    ])
    def test_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            make_record(**kw)

    def test_bandwidth_ceiling_is_the_int64_one(self):
        # The largest float under 2**63 passes; 2**63 and the float64
        # range past it are refused (two rows near 1.6e308 on one link
        # made MED, MED5, AVG5 and C-MED answer inf).
        assert make_record(bandwidth=2.0 ** 63 - 1024).bandwidth == 2.0 ** 63 - 1024
        for bandwidth in (2.0 ** 63, 1.6e308, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="bandwidth"):
                make_record(bandwidth=bandwidth)
        with pytest.raises(ValueError, match="bandwidth"):
            # A derived bandwidth: 100 MB in about a picosecond.
            make_record(start=5.0, duration=1e-12)
        # The int64 fields hold 2**63 - 1 and refuse 2**63.
        for kwarg, field in (("size", "file_size"), ("streams", "streams"),
                             ("buffer", "tcp_buffer")):
            ceiling = make_record(**{kwarg: 2**63 - 1, "bandwidth": 1.0})
            assert getattr(ceiling, field) == 2**63 - 1
            with pytest.raises(ValueError, match=field):
                make_record(**{kwarg: 2**63, "bandwidth": 1.0})

    def test_nonfinite_timestamps(self):
        with pytest.raises(ValueError):
            make_record(start=float("nan"))

    def test_operation_coerced_from_string(self):
        r = make_record(operation="write")
        assert r.operation is Operation.WRITE


class TestDerived:
    def test_bandwidth_kbps_matches_paper_convention(self):
        # Figure 3: 10 MB in 4 s -> 2560 KB/s.
        r = make_record(size=10_240_000, duration=4.0)
        assert r.bandwidth_kbps == pytest.approx(2560)

    def test_as_row_matches_figure3_columns(self):
        row = make_record().as_row()
        assert list(row) == [
            "Source IP", "File Name", "File Size (Bytes)", "Volume",
            "StartTime", "EndTime", "TotalTime (Seconds)", "Bandwidth (KB/Sec)",
            "Read/Write", "Streams", "TCP-Buffer",
        ]
        assert row["Read/Write"] == "Read"
