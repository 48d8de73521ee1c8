"""Observation history views."""

import numpy as np
import pytest

from repro.core import History, Observation
from repro.units import HOUR, MB


@pytest.fixture
def history():
    return History(
        times=np.array([0.0, 1 * HOUR, 2 * HOUR, 3 * HOUR]),
        values=np.array([1e6, 2e6, 3e6, 4e6]),
        sizes=np.array([10 * MB, 100 * MB, 600 * MB, 900 * MB]),
    )


class TestConstruction:
    def test_from_records(self, sample_records):
        h = History.from_records(sample_records)
        assert len(h) == len(sample_records)
        assert h.values[0] == pytest.approx(sample_records[0].bandwidth)
        assert h.sizes[3] == sample_records[3].file_size

    def test_empty(self):
        assert len(History.empty()) == 0

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            History(np.array([1.0]), np.array([1.0, 2.0]), np.array([1]))

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            History(np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([1, 1]))


class TestAccess:
    def test_getitem(self, history):
        obs = history[1]
        assert obs == Observation(time=1 * HOUR, bandwidth=2e6, size=100 * MB)

    def test_iteration(self, history):
        assert [o.bandwidth for o in history] == [1e6, 2e6, 3e6, 4e6]


class TestViews:
    def test_prefix(self, history):
        p = history.prefix(2)
        assert len(p) == 2
        assert list(p.values) == [1e6, 2e6]
        with pytest.raises(ValueError):
            history.prefix(-1)

    def test_prefix_shares_memory(self, history):
        p = history.prefix(3)
        assert np.shares_memory(p.values, history.values)

    def test_last(self, history):
        assert list(history.last(2).values) == [3e6, 4e6]
        assert len(history.last(100)) == 4

    def test_last_zero_is_empty_view(self, history):
        # Degenerate window, same semantics as prefix(0).
        assert len(history.last(0)) == 0
        assert len(history.prefix(0)) == 0

    def test_last_negative_rejected(self, history):
        with pytest.raises(ValueError):
            history.last(-1)

    def test_since(self, history):
        w = history.since(1.5 * HOUR)
        assert list(w.values) == [3e6, 4e6]

    def test_of_class(self, history, classification):
        small = history.of_class(classification, "10MB")
        assert list(small.sizes) == [10 * MB]
        big = history.of_class(classification, "1GB")
        assert list(big.values) == [4e6]
        empty = history.of_class(classification, "100MB")
        assert len(empty) == 1  # the 100 MB observation


class TestTrustedViews:
    """Views by slice or mask are built without re-checking the order:
    their parent was checked, and they keep its order."""

    def test_views_skip_the_order_check(self, history, classification, monkeypatch):
        def no_diff(*args, **kwargs):
            raise AssertionError("a view re-checked its parent's order")

        monkeypatch.setattr(np, "diff", no_diff)
        views = [history.prefix(3), history.last(2), history.since(1.5 * HOUR),
                 history.of_class(classification, "1GB")]
        assert [len(v) for v in views] == [3, 2, 2, 1]
        for view in views:
            assert type(view) is History
            assert view.times.dtype == np.float64 and view.sizes.dtype == np.int64
