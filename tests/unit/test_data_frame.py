"""TransferFrame: construction, views, sorting, record round-trips."""

import numpy as np
import pytest

from repro.data import OP_READ, OP_WRITE, TransferFrame
from repro.data.buffer import ColumnBuffer
from repro.data.frame import COLUMN_NAMES
from repro.logs.record import Operation
from repro.units import MB

from tests.conftest import make_record


@pytest.fixture
def frame(sample_records):
    return TransferFrame.from_records(sample_records)


class TestConstruction:
    def test_empty(self):
        frame = TransferFrame.empty()
        assert len(frame) == 0
        assert frame.to_records() == []
        assert frame.is_sorted

    def test_from_records_round_trips(self, sample_records, frame):
        assert len(frame) == len(sample_records)
        assert frame.to_records() == sample_records

    def test_single_record_round_trip(self):
        record = make_record(operation=Operation.WRITE)
        frame = TransferFrame.from_records([record])
        assert frame[0] == record
        assert frame.ops[0] == OP_WRITE

    def test_mismatched_column_lengths_rejected(self, frame):
        arrays = {name: getattr(frame, name) for name in COLUMN_NAMES}
        arrays["sizes"] = arrays["sizes"][:-1]
        with pytest.raises(ValueError, match="length"):
            TransferFrame(**arrays)

    def test_equals(self, sample_records, frame):
        assert frame.equals(TransferFrame.from_records(sample_records))
        assert not frame.equals(frame.prefix(3))

    def test_equals_tells_negative_zero_from_zero(self):
        # A start time of -0.0 is a valid record, and == calls it 0.0.
        negative, positive = (
            TransferFrame.from_records([make_record(start=start)])
            for start in (-0.0, 0.0))
        assert negative.start_times[0] == positive.start_times[0]
        assert not negative.equals(positive)
        assert negative.equals(negative.view(slice(0, 1)))

    def test_equals_requires_the_same_column_kinds(self, frame):
        other = frame.view(slice(0, len(frame)))
        other.sizes = other.sizes.astype(np.float64)
        assert np.array_equal(frame.sizes, other.sizes)
        assert not frame.equals(other)


class TestViews:
    def test_prefix(self, frame, sample_records):
        assert frame.prefix(0).to_records() == []
        assert frame.prefix(3).to_records() == sample_records[:3]
        with pytest.raises(ValueError):
            frame.prefix(-1)

    def test_prefix_is_zero_copy(self, frame):
        view = frame.prefix(5)
        assert view.end_times.base is not None

    def test_reads_writes_partition(self):
        records = [
            make_record(start=1000.0 * (i + 1),
                        operation=Operation.READ if i % 2 else Operation.WRITE)
            for i in range(6)
        ]
        frame = TransferFrame.from_records(records)
        assert len(frame.reads()) == 3
        assert len(frame.writes()) == 3
        assert set(frame.reads().ops.tolist()) == {OP_READ}
        assert frame.reads().to_records() + frame.writes().to_records() == \
            [r for r in records if r.operation is Operation.READ] + \
            [r for r in records if r.operation is Operation.WRITE]

    def test_boolean_mask_view(self, frame):
        big = frame.view(frame.sizes >= 500 * MB)
        assert (big.sizes >= 500 * MB).all()


class TestSorting:
    def test_sort_by_end_time_is_stable(self):
        # Two records with equal end times keep their original order.
        a = make_record(start=1000.0, duration=10.0, size=10 * MB)
        b = make_record(start=1005.0, duration=5.0, size=100 * MB)
        late = make_record(start=900.0, duration=200.0)
        frame = TransferFrame.from_records([late, a, b])
        ordered = frame.sort_by_end_time()
        assert ordered.is_sorted
        assert ordered.to_records() == [a, b, late]

    def test_sorted_frame_returned_as_is(self, frame):
        assert frame.sort_by_end_time() is frame

    def test_merge(self, sample_records):
        left = TransferFrame.from_records(sample_records[::2])
        right = TransferFrame.from_records(sample_records[1::2])
        merged = left.merge(right)
        assert merged.to_records() == sample_records


class TestPredictorBridge:
    def test_history_is_zero_copy(self, frame):
        history = frame.history()
        assert len(history) == len(frame)
        assert np.shares_memory(history.times, frame.end_times)
        assert np.shares_memory(history.values, frame.bandwidths)

    def test_anchors_are_start_times(self, frame):
        assert np.array_equal(frame.anchors, frame.start_times)


class TestColumnBuffer:
    DTYPES = (("key", np.dtype(np.float64)), ("val", np.dtype(np.int64)))

    def test_append_and_views(self):
        buf = ColumnBuffer(self.DTYPES, capacity=2)
        buf.append((1.0, 10))
        buf.append((2.0, 20))
        buf.append((3.0, 30))  # forces growth
        keys, vals = buf.views()
        assert keys.tolist() == [1.0, 2.0, 3.0]
        assert vals.tolist() == [10, 20, 30]

    @staticmethod
    def _merge_row(buf, row):
        buf.extend_sorted(tuple(np.array([x]) for x in row))

    def test_snapshot_survives_growth_and_insert(self):
        buf = ColumnBuffer(self.DTYPES, capacity=2)
        buf.append((1.0, 10))
        buf.append((3.0, 30))
        keys, vals = buf.views()
        self._merge_row(buf, (2.0, 20))   # out-of-order: fresh arrays
        buf.append((4.0, 40))
        assert keys.tolist() == [1.0, 3.0]
        assert vals.tolist() == [10, 30]
        assert buf.column("key").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_late_rows_grow_the_buffer_as_appends_do(self):
        buf = ColumnBuffer(self.DTYPES, capacity=2)
        for i in range(400):
            buf.append((float(i), i))
        capacity = buf.capacity
        for i in range(20):  # one late row at a time, each a merge
            self._merge_row(buf, (10.5 + i, -i))
        assert len(buf) == 420 and buf.capacity == capacity == 512

    def test_append_refuses_a_key_before_the_tail(self):
        buf = ColumnBuffer(self.DTYPES, capacity=2)
        buf.append((1.0, 10))
        buf.append((3.0, 30))
        with pytest.raises(ValueError, match="extend_sorted"):
            buf.append((2.0, 20))
        buf.append((3.0, 31))  # an equal key is in order
        assert buf.column("val").tolist() == [10, 30, 31]

    def test_extend_sorted_matches_appends(self):
        sequential = ColumnBuffer(self.DTYPES, capacity=4)
        bulk = ColumnBuffer(self.DTYPES, capacity=4)
        for key, val in [(1.0, 1), (5.0, 5)]:
            sequential.append((key, val))
            bulk.append((key, val))
        batch_rows = [(2.0, 2), (5.0, 50), (7.0, 7)]
        for row in batch_rows:
            self._merge_row(sequential, row)
        bulk.extend_sorted((
            np.array([r[0] for r in batch_rows]),
            np.array([r[1] for r in batch_rows]),
        ))
        # A row lands after the rows that share its key.
        assert sequential.column("val").tolist() == [1, 2, 5, 50, 7]
        assert bulk.column("key").tolist() == sequential.column("key").tolist()
        assert bulk.column("val").tolist() == sequential.column("val").tolist()

    def test_extend_sorted_rejects_unsorted_batch(self):
        buf = ColumnBuffer(self.DTYPES)
        with pytest.raises(ValueError, match="non-decreasing"):
            buf.extend_sorted((np.array([2.0, 1.0]), np.array([1, 2])))
