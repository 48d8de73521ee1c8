"""Backtested uncertainty and risk-adjusted ranking."""

import numpy as np
import pytest

from repro.core import (
    History,
    ReplicaBroker,
    RiskAdjustedRanking,
    backtest_error,
)
from repro.core.predictors import LastValue, TotalAverage
from repro.logs import TransferLog
from repro.storage import ReplicaCatalog
from repro.units import MB
from tests.conftest import make_record

CLIENT = "140.221.65.69"


def history_of(values):
    n = len(values)
    return History(
        times=np.arange(n, dtype=float) * 3600.0,
        values=np.asarray(values, dtype=float),
        sizes=np.full(n, 500 * MB),
    )


class TestBacktestError:
    def test_zero_error_on_constant_series(self):
        err = backtest_error(TotalAverage(), history_of([5e6] * 20))
        assert err == pytest.approx(0.0)

    def test_known_error_on_alternating_series(self):
        # LastValue on 10,20,10,20,... is always off by |20-10|/actual.
        values = [10.0, 20.0] * 10
        err = backtest_error(LastValue(), history_of(values))
        # Errors alternate 10/20=0.5 and 10/10=1.0 -> mean 0.75.
        assert err == pytest.approx(0.75)

    def test_noisier_history_higher_error(self):
        rng = np.random.default_rng(0)
        calm = history_of(5e6 * (1 + 0.05 * rng.standard_normal(30)))
        wild = history_of(5e6 * (1 + 0.5 * np.abs(rng.standard_normal(30)) + 0.01))
        assert backtest_error(TotalAverage(), wild) > backtest_error(TotalAverage(), calm)

    def test_abstains_when_too_short(self):
        assert backtest_error(TotalAverage(), history_of([5e6, 6e6])) is None


def site_log(values, client=CLIENT):
    log = TransferLog()
    for i, bw in enumerate(values):
        log.append(make_record(start=1000.0 + i * 3600.0, size=500 * MB,
                               bandwidth=float(bw), source_ip=client))
    return log


@pytest.fixture
def risky_world():
    """Site FAST: higher mean, wild variance.  Site STEADY: slightly lower
    mean, near-zero variance."""
    rng = np.random.default_rng(1)
    fast = 8e6 * np.abs(1 + 0.9 * rng.standard_normal(20)) + 1e5
    steady = np.full(20, 7e6)
    catalog = ReplicaCatalog()
    catalog.register("f", "FAST", 500 * MB)
    catalog.register("f", "STEADY", 500 * MB)
    logs = {"FAST": site_log(fast), "STEADY": site_log(steady)}
    return catalog, logs


class TestRiskAdjustedRanking:
    def test_zero_aversion_matches_plain_broker(self, risky_world):
        catalog, logs = risky_world
        broker = ReplicaBroker(catalog, logs, TotalAverage())
        plain = [r.site for r in broker.rank("f", CLIENT, now=1e9)]
        risk = RiskAdjustedRanking(broker, risk_aversion=0.0)
        adjusted = [r.site for r in risk.rank("f", CLIENT, now=1e9)]
        assert adjusted == plain

    def test_full_aversion_prefers_steady_site(self, risky_world):
        catalog, logs = risky_world
        broker = ReplicaBroker(catalog, logs, TotalAverage())
        risk = RiskAdjustedRanking(broker, risk_aversion=1.0)
        ranked = risk.rank("f", CLIENT, now=1e9)
        assert ranked[0].site == "STEADY"
        assert ranked[0].error == pytest.approx(0.0)
        assert ranked[1].error > 0.1

    def test_adjusted_bandwidth_formula(self, risky_world):
        catalog, logs = risky_world
        broker = ReplicaBroker(catalog, logs, TotalAverage())
        risk = RiskAdjustedRanking(broker, risk_aversion=0.5)
        for r in risk.rank("f", CLIENT, now=1e9):
            assert r.adjusted_bandwidth == pytest.approx(
                r.predicted_bandwidth * (1 - 0.5 * min(r.error, 1.0))
            )

    def test_unknown_error_discounted_by_default(self):
        catalog = ReplicaCatalog()
        catalog.register("f", "NEW", 500 * MB)
        catalog.register("f", "OLD", 500 * MB)
        logs = {
            "NEW": site_log([8e6, 8e6]),       # too short to backtest
            "OLD": site_log([7e6] * 20),       # zero backtest error
        }
        broker = ReplicaBroker(catalog, logs, TotalAverage())
        risk = RiskAdjustedRanking(broker, risk_aversion=1.0)
        ranked = risk.rank("f", CLIENT, now=1e9)
        # NEW predicts 8 MB/s but is discounted to 4; OLD keeps 7.
        assert ranked[0].site == "OLD"
        assert ranked[1].error is None

    def test_estimated_time(self, risky_world):
        catalog, logs = risky_world
        broker = ReplicaBroker(catalog, logs, TotalAverage())
        best = RiskAdjustedRanking(broker).select("f", CLIENT, now=1e9)
        assert best.estimated_time(500 * MB) == pytest.approx(
            500 * MB / best.predicted_bandwidth
        )

    @pytest.mark.parametrize("kw", [
        dict(risk_aversion=-0.1), dict(risk_aversion=1.1),
    ])
    def test_validation(self, risky_world, kw):
        catalog, logs = risky_world
        broker = ReplicaBroker(catalog, logs, TotalAverage())
        with pytest.raises(ValueError):
            RiskAdjustedRanking(broker, **kw)
