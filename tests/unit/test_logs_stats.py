"""Bandwidth summary statistics over a log's columns."""

import numpy as np
import pytest

from repro.data import TransferFrame
from repro.logs import BandwidthSummary, Operation, summarize_frame_by_class, summarize_values
from repro.units import MB
from tests.conftest import make_record


def test_empty_summary():
    s = summarize_values(np.empty(0))
    assert s == BandwidthSummary.empty()
    assert s.coefficient_of_variation == 0.0


def test_summary_statistics():
    s = summarize_values([8e6, 2e6, 6e6, 4e6])
    assert s.count == 4
    assert s.minimum == 2e6 and s.maximum == 8e6
    assert s.mean == pytest.approx(5e6)
    assert s.median == pytest.approx(5e6)
    assert s.stddev == pytest.approx(2.2360679e6, rel=1e-6)
    assert s.coefficient_of_variation == pytest.approx(s.stddev / s.mean)


def test_summary_by_operation():
    """Direction is filtered on the frame, then the column is summarized."""
    frame = TransferFrame.from_records([
        make_record(bandwidth=1e6),
        make_record(bandwidth=9e6, operation=Operation.WRITE),
    ])
    assert summarize_values(frame.reads().bandwidths).mean == pytest.approx(1e6)
    assert summarize_values(frame.writes().bandwidths).mean == pytest.approx(9e6)
    assert summarize_values(frame.bandwidths).count == 2


def test_summarize_by_class(classification):
    frame = TransferFrame.from_records([
        make_record(size=900 * MB, bandwidth=9e6),
        make_record(size=10 * MB, bandwidth=2e6),
        make_record(size=20 * MB, bandwidth=4e6),
    ])
    per = summarize_frame_by_class(frame, classification.classify)
    assert list(per) == ["10MB", "1GB"]  # only classes that occur, sorted
    assert per["10MB"].count == 2
    assert per["10MB"].mean == pytest.approx(3e6)
    assert per["1GB"].maximum == pytest.approx(9e6)
    assert summarize_frame_by_class(TransferFrame.empty(), classification.classify) == {}


def test_summarize_by_class_respects_operation(classification):
    frame = TransferFrame.from_records([
        make_record(size=10 * MB, operation=Operation.WRITE),
        make_record(size=10 * MB),
    ])
    per = summarize_frame_by_class(frame.reads(), classification.classify)
    assert per["10MB"].count == 1
