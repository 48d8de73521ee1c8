"""Active GridFTP probing."""

import numpy as np
import pytest

from repro.core import History, paper_classification
from repro.core.predictors import resolve
from repro.units import HOUR, MB, MINUTE
from repro.workload import (
    AUG_2001,
    ActiveProbeConfig,
    ActiveProber,
    CampaignConfig,
    ControlledCampaign,
    build_testbed,
)


class TestConfig:
    def test_defaults(self):
        cfg = ActiveProbeConfig()
        assert cfg.size == 100 * MB
        assert cfg.bytes_per_day == pytest.approx(100 * MB * 48)

    @pytest.mark.parametrize("kw", [
        dict(size=0), dict(streams=0), dict(buffer=0), dict(period=0),
        dict(period_jitter=-1), dict(period=60.0, period_jitter=60.0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ActiveProbeConfig(**kw)


class TestProber:
    def run_probes(self, hours=6, period=30 * MINUTE):
        bed = build_testbed(seed=13, start_time=AUG_2001)
        prober = ActiveProber(
            bed, "LBL", "ANL",
            config=ActiveProbeConfig(period=period),
        )
        prober.start()
        bed.engine.run(until=AUG_2001 + hours * HOUR)
        prober.stop()
        return prober, bed

    def test_probe_rate(self):
        prober, _ = self.run_probes(hours=6)
        # 6 h / 30 min = 12, +/- jitter and transfer durations.
        assert 10 <= len(prober.outcomes) <= 14

    def test_probes_logged_at_server_like_real_transfers(self):
        prober, bed = self.run_probes(hours=3)
        records = bed.servers["LBL"].monitor.log.records()
        assert len(records) == len(prober.outcomes)
        for record in records:
            assert record.file_size == 100 * MB
            assert record.streams == 8
            assert record.source_ip == bed.sites["ANL"].address

    def test_regular_spacing(self):
        prober, _ = self.run_probes(hours=6)
        starts = [o.start_time for o in prober.outcomes]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        cfg = ActiveProbeConfig()
        for gap in gaps:
            assert cfg.period - cfg.period_jitter <= gap
            assert gap <= cfg.period + cfg.period_jitter + 60.0  # + transfer

    def test_same_site_rejected(self):
        bed = build_testbed(seed=0, start_time=AUG_2001)
        with pytest.raises(ValueError):
            ActiveProber(bed, "ANL", "ANL")

    def test_nonstandard_size_rejected(self):
        bed = build_testbed(seed=0, start_time=AUG_2001)
        with pytest.raises(ValueError):
            ActiveProber(bed, "LBL", "ANL",
                         config=ActiveProbeConfig(size=123_456_789))

    def test_double_start_rejected(self):
        bed = build_testbed(seed=0, start_time=AUG_2001)
        prober = ActiveProber(bed, "LBL", "ANL")
        prober.start()
        with pytest.raises(RuntimeError):
            prober.start()


def organic_100mb_error(active, seed=15, days=10):
    """``(C-AVG5 MAPE %, transfers scored, log length)`` on a campaign's
    own 100 MB-class transfers; probes, if any, are history only."""
    bed = build_testbed(seed=seed, start_time=AUG_2001)
    cfg = CampaignConfig(start_epoch=AUG_2001, days=days)
    campaign = ControlledCampaign(bed, "LBL", "ANL", cfg)
    campaign.start()
    prober = ActiveProber(bed, "LBL", "ANL") if active else None
    if prober:
        prober.start()
    bed.engine.run(until=cfg.end_epoch)
    campaign.stop()
    if prober:
        prober.stop()
    records = bed.servers["LBL"].monitor.log.records()
    organic = {(o.start_time, o.request.size) for o in campaign.outcomes}
    cls, predictor = paper_classification(), resolve("C-AVG5")
    history = History.from_records(records)
    errors = []
    for i, record in enumerate(records[15:], start=15):
        if ((record.start_time, record.file_size) not in organic
                or cls.classify(record.file_size) != "100MB"):
            continue
        predicted = predictor.predict(history.prefix(i),
                                      target_size=record.file_size,
                                      now=record.start_time)
        if predicted is not None:
            errors.append(abs(record.bandwidth - predicted) / record.bandwidth)
    return 100.0 * float(np.mean(errors)), len(errors), len(records)


def test_active_probing_cuts_same_class_error():
    """The Section 3 alternative the paper set aside: a 100 MB probe every
    30 minutes gives the campaign's 100 MB transfers fresh history."""
    passive, passive_n, passive_log = organic_100mb_error(active=False)
    active, active_n, active_log = organic_100mb_error(active=True)
    # Probe-induced disk contention shifts organic timings slightly.
    assert abs(active_n - passive_n) <= 0.1 * passive_n
    assert active_log > passive_log  # the probes were logged
    assert active < passive
