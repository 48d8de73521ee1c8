"""End-to-end campaign properties: the regenerated datasets look like the
paper's (Section 6.1 / Figure 7)."""

import numpy as np
import pytest

from repro.analysis import compute_census
from repro.core import paper_classification
from repro.units import MB
from repro.workload import DEC_2001, run_month


class TestTransferCensus:
    def test_transfer_counts_in_paper_range(self, august_outputs):
        """Figure 7: 350-450 transfers per link per two-week month."""
        for link, output in august_outputs.items():
            assert 330 <= len(output.log.records()) <= 560, link

    def test_class_mix_matches_uniform_size_draws(self, august_outputs):
        cls = paper_classification()
        for output in august_outputs.values():
            records = output.log.records()
            fractions = {
                label: sum(1 for r in records if cls.classify(r.file_size) == label)
                / len(records)
                for label in cls.labels
            }
            # Expected: 5/13, 3/13, 3/13, 2/13.
            assert fractions["10MB"] == pytest.approx(5 / 13, abs=0.08)
            assert fractions["100MB"] == pytest.approx(3 / 13, abs=0.08)
            assert fractions["500MB"] == pytest.approx(3 / 13, abs=0.08)
            assert fractions["1GB"] == pytest.approx(2 / 13, abs=0.08)

    def test_census_holds_in_both_months(self, august_outputs):
        """Figure 7's table, as ``repro report census`` computes it."""
        months = {"August": august_outputs,
                  "December": run_month(start_epoch=DEC_2001, seed=1)}
        census = compute_census(months)
        expected = dict(zip(paper_classification().labels,
                            (5 / 13, 3 / 13, 3 / 13, 2 / 13)))
        for month in months:
            for link in ("LBL-ANL", "ISI-ANL"):
                total = census.count(month, link, "All")
                assert 330 <= total <= 560, (month, link)
                assert total == sum(census.count(month, link, label)
                                    for label in expected)
                for label, fraction in expected.items():
                    observed = census.count(month, link, label) / total
                    assert observed == pytest.approx(fraction, abs=0.08)


class TestBandwidthShape:
    def test_bandwidth_range_matches_figures_1_2(self, august_outputs):
        """GridFTP end-to-end bandwidth swings over the paper's 1.5-10 MB/s scale."""
        for link, output in august_outputs.items():
            bw = np.array([r.bandwidth for r in output.log.records()])
            assert bw.min() < 3e6, link      # deep lows exist
            assert bw.max() > 8e6, link      # highs approach the wire
            assert bw.max() / bw.min() > 4, link

    def test_bandwidth_never_exceeds_wire(self, august_outputs):
        oc3 = 155e6 / 8
        for output in august_outputs.values():
            for record in output.log.records():
                assert record.bandwidth <= oc3

    def test_bandwidth_correlates_with_file_size(self, august_outputs):
        """Section 4.3: the correlation classification exploits."""
        for output in august_outputs.values():
            records = output.log.records()
            sizes = np.array([r.file_size for r in records], dtype=float)
            bws = np.array([r.bandwidth for r in records])
            rho = np.corrcoef(np.log(sizes), bws)[0, 1]
            assert rho > 0.5

    def test_small_files_slower_on_average(self, august_outputs):
        cls = paper_classification()
        for output in august_outputs.values():
            records = output.log.records()
            small = [r.bandwidth for r in records
                     if cls.classify(r.file_size) == "10MB"]
            large = [r.bandwidth for r in records
                     if cls.classify(r.file_size) == "1GB"]
            assert np.mean(small) < np.mean(large)


class TestLogIntegrity:
    def test_records_sorted_by_end_time(self, august_outputs):
        for output in august_outputs.values():
            ends = [r.end_time for r in output.log.records()]
            assert ends == sorted(ends)

    def test_all_records_carry_campaign_parameters(self, august_outputs):
        for output in august_outputs.values():
            for record in output.log.records():
                assert record.streams == 8
                assert record.tcp_buffer == 1 * MB
                assert record.operation.value == "read"

    def test_no_transfers_outside_daily_window(self, august_outputs):
        from repro.units import DAY, HOUR

        for output in august_outputs.values():
            for record in output.log.records():
                hour = (record.start_time % DAY) / HOUR
                assert hour >= 18.0 or hour < 8.0, hour


class TestDeterminism:
    def test_same_seed_reproduces_identical_logs(self):
        from repro.workload import run_month

        a = run_month(seed=123)
        b = run_month(seed=123)
        for link in a:
            assert a[link].log.records() == b[link].log.records()

    def test_different_seeds_differ(self):
        from repro.workload import run_month

        a = run_month(seed=123)
        b = run_month(seed=124)
        assert a["LBL-ANL"].log.records() != b["LBL-ANL"].log.records()


class TestSharedTestbedContention:
    def test_both_links_ran_on_one_engine(self, august_outputs):
        lbl = august_outputs["LBL-ANL"]
        isi = august_outputs["ISI-ANL"]
        # Campaigns overlap in time: both logs span the same fortnight.
        lbl_span = (lbl.log.records()[0].start_time, lbl.log.records()[-1].end_time)
        isi_span = (isi.log.records()[0].start_time, isi.log.records()[-1].end_time)
        assert max(lbl_span[0], isi_span[0]) < min(lbl_span[1], isi_span[1])
