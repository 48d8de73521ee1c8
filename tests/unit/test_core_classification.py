"""File-size classification."""

import numpy as np
import pytest

from repro.core import Classification
from repro.units import MB


class TestPaperClasses:
    def test_labels(self, classification):
        assert classification.labels == ("10MB", "100MB", "500MB", "1GB")

    @pytest.mark.parametrize("size,label", [
        (1 * MB, "10MB"), (25 * MB, "10MB"), (49 * MB, "10MB"),
        (50 * MB, "100MB"), (150 * MB, "100MB"),
        (250 * MB, "500MB"), (500 * MB, "500MB"),
        (750 * MB, "1GB"), (1000 * MB, "1GB"), (10_000 * MB, "1GB"),
    ])
    def test_boundaries(self, classification, size, label):
        assert classification.classify(size) == label

    def test_index(self, classification):
        sizes = [1 * MB, 50 * MB - 1, 50 * MB, 750 * MB - 1, 750 * MB, 900 * MB]
        assert [classification.index(size) for size in sizes] == [0, 0, 1, 2, 3, 3]
        assert classification.indices(np.array(sizes)).tolist() == [0, 0, 1, 2, 3, 3]
        with pytest.raises(ValueError, match="size must be positive"):
            classification.indices(np.array([1 * MB, 0]))

    def test_bounds(self, classification):
        assert classification.bounds("10MB") == (0, 50 * MB)
        assert classification.bounds("100MB") == (50 * MB, 250 * MB)
        lo, hi = classification.bounds("1GB")
        assert lo == 750 * MB and hi == float("inf")

    def test_unknown_label(self, classification):
        with pytest.raises(KeyError):
            classification.bounds("2GB")

    def test_nonpositive_size(self, classification):
        with pytest.raises(ValueError):
            classification.classify(0)

    def test_class_sizes_covers_all(self, classification):
        bounds = [classification.bounds(label) for label in classification.labels]
        assert len(bounds) == 4
        # Contiguity: each class starts where the previous ended.
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo


class TestCustomClassification:
    def test_two_classes(self):
        cls = Classification(edges=(100 * MB,), labels=("small", "large"))
        assert cls.classify(1) == "small"
        assert cls.classify(100 * MB) == "large"

    @pytest.mark.parametrize("edges,labels", [
        ((), ("a", "b")),                      # label/edge count mismatch
        ((10, 5), ("a", "b", "c")),            # not increasing
        ((10, 10), ("a", "b", "c")),           # duplicate edge
        ((0,), ("a", "b")),                    # non-positive edge
        ((10,), ("a", "a")),                   # duplicate labels
    ])
    def test_validation(self, edges, labels):
        with pytest.raises(ValueError):
            Classification(edges=edges, labels=labels)
