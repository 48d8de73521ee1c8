"""Dataset: multi-link construction, merging, parallel evaluation."""

import numpy as np
import pytest

from repro.core.engine import evaluate, evaluate_dataset
from repro.data import Dataset
from repro.logs.logfile import TransferLog
from repro.logs.ulm import format_record

from tests.conftest import make_record


def _records(n, source="140.221.65.69", start=1_000_000.0):
    return [
        make_record(start=start + 1000.0 * i, source_ip=source,
                    size=(i % 4 + 1) * 10_000_000)
        for i in range(n)
    ]


@pytest.fixture
def two_logs(tmp_path):
    paths = []
    for name, start in [("LBL-ANL", 1_000_000.0), ("ISI-ANL", 2_000_000.0)]:
        path = tmp_path / f"{name}.ulm"
        path.write_text(
            "\n".join(format_record(r) for r in _records(25, start=start)) + "\n"
        )
        paths.append(path)
    return paths


class TestConstruction:
    def test_from_ulm_links_by_stem(self, two_logs):
        dataset = Dataset.from_ulm(two_logs)
        assert dataset.links() == ["LBL-ANL", "ISI-ANL"]
        assert dataset.total_records == 50
        assert len(dataset["LBL-ANL"]) == 25

    def test_duplicate_stems_merge(self, tmp_path, two_logs):
        dataset = Dataset.from_ulm([two_logs[0], two_logs[0]])
        assert dataset.links() == ["LBL-ANL"]
        assert len(dataset["LBL-ANL"]) == 50

    def test_from_logs(self):
        log = TransferLog()
        log.extend(_records(5))
        dataset = Dataset.from_logs({"x": log})
        assert dataset["x"].to_records() == log.records()

    def test_rejects_non_frames(self):
        with pytest.raises(TypeError):
            Dataset({"x": [1, 2, 3]})

    def test_merge(self, two_logs):
        a = Dataset.from_ulm(two_logs[0])
        b = Dataset.from_ulm(two_logs[1])
        merged = a.merge(b)
        assert merged.links() == ["LBL-ANL", "ISI-ANL"]


class TestEvaluateDataset:
    def test_matches_serial_evaluate(self, two_logs):
        dataset = Dataset.from_ulm(two_logs)
        parallel = evaluate_dataset(dataset, ["C-AVG15", "AVG"], training=5)
        for link in dataset:
            serial = evaluate(dataset[link], ["C-AVG15", "AVG"], training=5)
            for spec in ("C-AVG15", "AVG"):
                assert np.array_equal(
                    parallel[link][spec].predicted, serial[spec].predicted
                )
                assert np.array_equal(
                    parallel[link][spec].indices, serial[spec].indices
                )

    def test_forced_serial_matches_pool(self, two_logs):
        dataset = Dataset.from_ulm(two_logs)
        together = evaluate_dataset(dataset, "AVG", training=5)
        assert list(together) == dataset.links()
        for link in dataset:
            alone = evaluate(dataset[link], "AVG", training=5)
            assert np.array_equal(
                together[link]["AVG"].predicted, alone["AVG"].predicted
            )

    def test_empty_dataset(self):
        assert evaluate_dataset(Dataset({})) == {}

    def test_bad_spec_raises_before_spawning(self, two_logs):
        dataset = Dataset.from_ulm(two_logs)
        with pytest.raises(KeyError):
            evaluate_dataset(dataset, "NOPE")
