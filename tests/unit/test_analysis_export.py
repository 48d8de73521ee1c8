"""CSV export of figure data."""

import csv
from pathlib import Path

import pytest

from repro.analysis.census import compute_census
from repro.analysis.errors import compute_class_errors
from repro.analysis.export import (
    export_all,
    export_bandwidth_series,
    export_census,
    export_class_errors,
    export_classification_impact,
    export_relative_performance,
)
from repro.analysis.relative_perf import compute_relative_table
from repro.core.predictors.registry import PAPER_PREDICTOR_NAMES
from tests.unit.test_analysis_tables import synthetic_output


def read_csv(path: Path):
    with path.open() as handle:
        return list(csv.reader(handle))


@pytest.fixture(scope="module")
def output():
    return synthetic_output()


@pytest.fixture(scope="module")
def errors(output):
    return compute_class_errors("LBL-ANL", output.log.records())


class TestSeriesExport:
    def test_gridftp_rows_written(self, output, tmp_path):
        path = export_bandwidth_series(output, tmp_path)
        rows = read_csv(path)
        assert rows[0] == ["series", "time", "bandwidth_bytes_per_sec", "file_size"]
        gridftp_rows = [r for r in rows[1:] if r[0] == "gridftp"]
        assert len(gridftp_rows) == len(output.log.records())

    def test_probe_rows_when_present(self, output, tmp_path):
        from repro.nws import TimeSeries

        probes = TimeSeries()
        probes.append(1.0, 150_000.0)
        output_with = type(output)(
            link=output.link, server_site=output.server_site,
            client_site=output.client_site, log=output.log,
            outcomes=[], probes=probes,
        )
        rows = read_csv(export_bandwidth_series(output_with, tmp_path))
        assert any(r[0] == "nws_probe" for r in rows[1:])


class TestTableExports:
    def test_census(self, output, tmp_path):
        census = compute_census({"Aug": {"LBL-ANL": output}})
        rows = read_csv(export_census(census, tmp_path))
        assert rows[0] == ["class", "link", "Aug"]
        assert len(rows) == 1 + 5  # All + four classes

    def test_class_errors(self, errors, tmp_path):
        rows = read_csv(export_class_errors(errors, tmp_path))
        assert len(rows) == 1 + 4 * len(PAPER_PREDICTOR_NAMES)
        labels = {r[0] for r in rows[1:]}
        assert labels == {"10MB", "100MB", "500MB", "1GB"}

    def test_classification_impact(self, errors, tmp_path):
        rows = read_csv(export_classification_impact(errors, tmp_path))
        assert len(rows) == 1 + len(PAPER_PREDICTOR_NAMES)
        for row in rows[1:]:
            # reduction = unclassified - classified (when both finite)
            classified, unclassified, reduction = map(float, row[1:])
            if classified == classified and unclassified == unclassified:
                assert reduction == pytest.approx(unclassified - classified)

    def test_relative_performance(self, errors, tmp_path):
        table = compute_relative_table(
            "LBL-ANL", errors.result,
            predictor_names=tuple(f"C-{n}" for n in PAPER_PREDICTOR_NAMES),
        )
        rows = read_csv(export_relative_performance(table, tmp_path))
        assert len(rows) == 1 + 4 * 15


class TestExportAll:
    def test_writes_every_artifact(self, output, tmp_path):
        months = {"Aug": {"LBL-ANL": output}}
        written = export_all(months, tmp_path / "figures")
        names = {p.name for p in written}
        assert names == {
            "fig07_census.csv",
            "fig01_02_LBL-ANL.csv",
            "fig08_11_LBL-ANL.csv",
            "fig12_13_LBL-ANL.csv",
            "fig14_21_LBL-ANL.csv",
        }
        assert all(p.exists() and p.stat().st_size > 0 for p in written)

    def test_creates_directory(self, output, tmp_path):
        target = tmp_path / "deep" / "nested"
        export_all({"Aug": {"LBL-ANL": output}}, target)
        assert target.is_dir()
