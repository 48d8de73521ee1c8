"""Analysis computations on synthetic (fast) inputs."""

import numpy as np
import pytest

from repro.analysis import (
    compute_census,
    compute_class_errors,
    compute_classification_impact,
    compute_relative_table,
    render_census,
    render_class_errors,
    render_classification_impact,
    render_relative_table,
)
from repro.analysis.summary import check_summary_claims, render_summary
from repro.core.predictors.registry import PAPER_PREDICTOR_NAMES
from repro.logs import TransferLog
from repro.units import HOUR, MB
from repro.workload.campaigns import CampaignOutput
from tests.conftest import make_record


def synthetic_output(link="LBL-ANL", n=60, seed=0):
    """A log with size-dependent bandwidth plus noise."""
    rng = np.random.default_rng(seed)
    log = TransferLog()
    sizes = [10 * MB, 100 * MB, 500 * MB, 1000 * MB]
    base = {10 * MB: 2e6, 100 * MB: 6e6, 500 * MB: 8e6, 1000 * MB: 9e6}
    # Small transfers are noisier (startup effects amplify load jitter).
    sigma = {10 * MB: 0.45, 100 * MB: 0.18, 500 * MB: 0.15, 1000 * MB: 0.15}
    for i in range(n):
        size = sizes[i % 4]
        bw = base[size] * float(rng.lognormal(0, sigma[size]))
        log.append(make_record(start=1e6 + i * 2 * HOUR, size=size, bandwidth=bw))
    return CampaignOutput(
        link=link, server_site="LBL", client_site="ANL",
        log=log, outcomes=[],
    )


@pytest.fixture(scope="module")
def errors():
    return compute_class_errors("LBL-ANL", synthetic_output().log.records())


class TestCensus:
    def test_counts(self, classification):
        months = {"August": {"LBL-ANL": synthetic_output()}}
        census = compute_census(months)
        assert census.count("August", "LBL-ANL", "All") == 60
        assert census.count("August", "LBL-ANL", "10MB") == 15
        assert sum(
            census.count("August", "LBL-ANL", lbl) for lbl in classification.labels
        ) == 60

    def test_render(self):
        months = {"Aug": {"L": synthetic_output()}, "Dec": {"L": synthetic_output()}}
        text = render_census(compute_census(months))
        assert "All" in text and "Aug" in text and "Dec" in text


class TestClassErrors:
    def test_all_predictors_present(self, errors):
        for label in ("10MB", "100MB", "500MB", "1GB"):
            assert set(errors.classified[label]) == set(PAPER_PREDICTOR_NAMES)
            assert set(errors.unclassified[label]) == set(PAPER_PREDICTOR_NAMES)

    def test_classification_beats_mixing_on_small_class(self, errors):
        # Size-dependent series: unclassified history mixes 2-9 MB/s.
        assert errors.classified["10MB"]["AVG"] < errors.unclassified["10MB"]["AVG"]

    def test_best_worst_helpers(self, errors):
        assert errors.best("1GB") <= errors.worst("1GB")

    def test_render_mentions_figure(self, errors):
        text = render_class_errors(errors, "100MB")
        assert "Figure 9" in text and "AVG25hr" in text


class TestClassificationImpact:
    def test_improvement_positive_on_synthetic(self, errors):
        impact = compute_classification_impact(errors)
        assert impact.mean_improvement() > 0

    def test_per_predictor_tables_complete(self, errors):
        impact = compute_classification_impact(errors)
        assert set(impact.classified_avg) == set(PAPER_PREDICTOR_NAMES)

    def test_render(self, errors):
        impact = compute_classification_impact(errors)
        text = render_classification_impact(impact)
        assert "Figure 12" in text and "mean reduction" in text


class TestRelativeTable:
    def test_best_percentages_sum_to_100(self, errors, classification):
        table = compute_relative_table("LBL-ANL", errors.result,
                                       predictor_names=tuple(f"C-{n}" for n in PAPER_PREDICTOR_NAMES))
        for label in classification.labels:
            perf = table.per_class[label]
            if perf.compared:
                total_best = sum(perf.best_pct(n) for n in table.predictor_names)
                assert total_best == pytest.approx(100.0)

    def test_render(self, errors):
        table = compute_relative_table("LBL-ANL", errors.result)
        text = render_relative_table(table, "10MB")
        assert "Figure 18" in text


class TestSummary:
    def test_claims_on_synthetic(self, errors):
        claims = check_summary_claims(errors)
        assert claims.classification_helps
        assert claims.small_files_harder
        text = render_summary(claims)
        assert "Section 6.2 claims" in text
        assert "LBL-ANL" in text
