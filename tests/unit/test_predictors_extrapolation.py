"""The site-factor extrapolation model."""

import numpy as np
import pytest

from repro.core import History, paper_classification
from repro.core.predictors import SiteFactorModel
from repro.units import MB
from repro.workload import AUG_2001, CampaignConfig, ControlledCampaign, build_testbed


def pair_history(bandwidth, n=20, sizes=None, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    values = bandwidth * (1 + noise * rng.standard_normal(n))
    sizes_arr = np.asarray(sizes if sizes is not None else [500 * MB] * n)
    return History(
        times=np.arange(n, dtype=float) * 3600.0,
        values=np.abs(values),
        sizes=sizes_arr,
    )


def multiplicative_grid(source_factors, sink_factors, mu=8e6):
    """Pair histories following exactly bw = mu * a_src * b_dst."""
    pairs = {}
    for src, a in source_factors.items():
        for dst, b in sink_factors.items():
            if src != dst:
                pairs[(src, dst)] = pair_history(mu * a * b, seed=hash((src, dst)) % 2**31)
    return pairs


class TestFit:
    def test_recovers_multiplicative_structure(self):
        pairs = multiplicative_grid(
            {"A": 1.5, "B": 0.8}, {"C": 1.2, "D": 0.9}
        )
        model = SiteFactorModel(window=20)
        for (src, dst), history in pairs.items():
            predicted = model.predict_pair(pairs, src, dst)
            actual = float(np.median(history.values))
            assert predicted == pytest.approx(actual, rel=1e-6), (src, dst)

    def test_extrapolates_held_out_pair(self):
        full = multiplicative_grid({"A": 1.5, "B": 0.8}, {"C": 1.2, "D": 0.9})
        held_out = ("B", "D")
        observed = {k: v for k, v in full.items() if k != held_out}
        model = SiteFactorModel(window=20)
        predicted = model.predict_pair(observed, *held_out)
        actual = float(np.median(full[held_out].values))
        assert predicted == pytest.approx(actual, rel=1e-6)

    def test_too_few_pairs_abstains(self):
        pairs = {("A", "B"): pair_history(5e6)}
        assert SiteFactorModel().predict_pair(pairs, "A", "B") is None

    def test_empty_histories_ignored(self):
        pairs = {
            ("A", "C"): pair_history(5e6),
            ("B", "C"): pair_history(7e6),
            ("A", "D"): History.empty(),
        }
        model = SiteFactorModel()
        assert model.predict_pair(pairs, "B", "C") is not None

    def test_unknown_site_degrades_to_grid_level(self):
        pairs = multiplicative_grid({"A": 1.0, "B": 1.0}, {"C": 1.0, "D": 1.0})
        model = SiteFactorModel(window=20)
        stranger = model.predict_pair(pairs, "Z", "C")
        known = model.predict_pair(pairs, "A", "C")
        assert stranger == pytest.approx(known, rel=0.05)

    def test_degenerate_pair_rejected(self):
        pairs = {("A", "A"): pair_history(5e6), ("B", "C"): pair_history(5e6)}
        with pytest.raises(ValueError):
            SiteFactorModel().fit(pairs)


class TestClassFilter:
    def test_class_filtered_summary(self):
        cls = paper_classification()
        # Pair with mixed sizes; the 1GB-class observations are the fast ones.
        sizes = np.array([10 * MB] * 10 + [900 * MB] * 10)
        values = np.array([2e6] * 10 + [9e6] * 10, dtype=float)
        h = History(times=np.arange(20, dtype=float), values=values, sizes=sizes)
        pairs = {("A", "C"): h, ("B", "C"): h}
        model = SiteFactorModel(classification=cls, label="1GB")
        predicted = model.predict_pair(pairs, "A", "C")
        assert predicted == pytest.approx(9e6, rel=1e-6)

    def test_classification_requires_label(self):
        with pytest.raises(ValueError):
            SiteFactorModel(classification=paper_classification())

    @pytest.mark.parametrize("kw", [dict(window=0), dict(min_pairs=1)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SiteFactorModel(**kw)


def test_extrapolates_an_unseen_pair_of_the_testbed():
    """Section 7's 'no previous transfer data between two sites': fit on
    LBL->ANL and ISI->ANL, predict ISI->LBL, whose ground truth is a third
    campaign over a two-hop path the model never saw."""
    bed = build_testbed(seed=9, start_time=AUG_2001)
    cfg = CampaignConfig(start_epoch=AUG_2001, days=7)
    pairs = [("LBL", "ANL"), ("ISI", "ANL"), ("ISI", "LBL")]
    campaigns = [ControlledCampaign(bed, server, client, cfg)
                 for server, client in pairs]
    for campaign in campaigns:
        campaign.start()
    bed.engine.run(until=cfg.end_epoch)
    histories = {}
    for (server, client), campaign in zip(pairs, campaigns):
        campaign.stop()
        histories[(server, client)] = History.from_records([
            r for r in bed.servers[server].monitor.log.records()
            if r.source_ip == bed.sites[client].address
        ])
    truth = histories.pop(("ISI", "LBL"))
    cls = paper_classification()
    for label in ("100MB", "500MB", "1GB"):
        model = SiteFactorModel(window=50, classification=cls, label=label)
        predicted = model.predict_pair(histories, "ISI", "LBL")
        actual = float(np.median(truth.of_class(cls, label).values))
        assert max(predicted, actual) / min(predicted, actual) < 1.6, label
