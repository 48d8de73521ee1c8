"""Dataset: multi-link construction, partitioning, parallel evaluation."""

import numpy as np
import pytest

from repro.core.engine import evaluate, evaluate_dataset
from repro.data import Dataset, TransferFrame
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
        dataset = Dataset.from_ulm(two_logs, cache=False)
        assert dataset.links() == ["LBL-ANL", "ISI-ANL"]
        assert dataset.total_records == 50
        assert len(dataset["LBL-ANL"]) == 25

    def test_explicit_links(self, two_logs):
        dataset = Dataset.from_ulm(two_logs, cache=False, links=["a", "b"])
        assert dataset.links() == ["a", "b"]

    def test_duplicate_stems_merge(self, tmp_path, two_logs):
        dataset = Dataset.from_ulm([two_logs[0], two_logs[0]], cache=False)
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

    def test_partition_by_source(self):
        mixed = TransferFrame.from_records(
            _records(4, source="10.0.0.1") + _records(4, source="10.0.0.2")
        )
        dataset = Dataset.partition_by_link(mixed, key="sources")
        assert dataset.links() == ["10.0.0.1", "10.0.0.2"]
        assert all(
            (dataset[link].sources == link).all() for link in dataset
        )
        assert dataset.total_records == len(mixed)

    def test_partition_by_callable(self):
        frame = TransferFrame.from_records(_records(6))
        dataset = Dataset.partition_by_link(
            frame, key=lambda f: np.where(f.sizes > 20_000_000, "big", "small")
        )
        assert set(dataset.links()) == {"big", "small"}

    def test_merge(self, two_logs):
        a = Dataset.from_ulm(two_logs[0], cache=False)
        b = Dataset.from_ulm(two_logs[1], cache=False)
        merged = a.merge(b)
        assert merged.links() == ["LBL-ANL", "ISI-ANL"]


class TestEvaluateDataset:
    def test_matches_serial_evaluate(self, two_logs):
        dataset = Dataset.from_ulm(two_logs, cache=False)
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
        dataset = Dataset.from_ulm(two_logs, cache=False)
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
        dataset = Dataset.from_ulm(two_logs, cache=False)
        with pytest.raises(KeyError):
            evaluate_dataset(dataset, "NOPE")
