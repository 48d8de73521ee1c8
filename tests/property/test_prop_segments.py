"""A segment returns every float64 bit pattern it was given.

Format 2 stores ``times`` and ``values`` as byte planes, so a round trip
is a transpose and its inverse around deflate.  Every 64-bit pattern is
a float64 that must come back bit-exactly: NaN payloads and signs, ±0.0,
±inf, subnormals.  ``sizes`` and ``ops`` span their whole dtypes.  The
tier-1 profile runs 150 examples; the exhaustive one 2,000.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.store import segments as seg

#: Patterns a uniform draw would rarely hit.
SPECIAL = [
    0x0000000000000000, 0x8000000000000000,  # +0.0, -0.0
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x7FF8000000000000, 0xFFF8000000000001,  # quiet NaNs, one with a payload
    0x7FF0000000000001, 0x7FF7FFFFFFFFFFFF,  # signalling NaN payloads
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # smallest normal, largest finite
]


def _column(draw, rows, dtype, special=()):
    """``rows`` values of ``dtype`` from raw bytes (every pattern is
    reachable), with some rows overwritten by ``special`` patterns."""
    width = np.dtype(dtype).itemsize
    column = np.frombuffer(draw(st.binary(
        min_size=width * rows, max_size=width * rows)), dtype=dtype).copy()
    if rows and special:
        bits = column.view(np.uint64)
        for at, pattern in draw(st.lists(st.tuples(
                st.integers(0, rows - 1), st.sampled_from(special)),
                max_size=8)):
            bits[at] = pattern
    return column


@st.composite
def segments(draw, max_rows):
    rows = draw(st.integers(0, max_rows))
    return (draw(st.integers(0, 2 ** 63)),
            _column(draw, rows, "<f8", SPECIAL),
            _column(draw, rows, "<f8", SPECIAL),
            _column(draw, rows, "<i8"),
            _column(draw, rows, "i1"),
            draw(st.integers(0, 2 ** 64 - 1)))


def assert_round_trip(segment):
    start_row, times, values, sizes, ops, max_offset = segment
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / seg.segment_name(start_row)
        seg.write_segment(path, start_row, times, values, sizes, ops,
                          max_offset=max_offset, fsync=False)
        assert seg.read_framing(path) == (start_row, len(times), max_offset)
        data = seg.read_segment(path)
    assert data[:3] == (start_row, len(times), max_offset)
    for got, want in zip(data[3:], (times, values, sizes, ops)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _one(bits):
    column = np.array([bits], dtype=np.uint64).view(np.float64)
    return (0, column, column[::-1].copy(), np.array([-1], dtype=np.int64),
            np.array([1], dtype=np.int8), 0)


@given(segments(max_rows=300))
@example((5, np.empty(0), np.empty(0), np.empty(0, dtype=np.int64),
          np.empty(0, dtype=np.int8), 0))
@example(_one(0x7FF8DEADBEEF0001))
@example(_one(0x8000000000000000))
@settings(max_examples=150, deadline=None)
def test_every_float64_bit_pattern_round_trips(segment):
    assert_round_trip(segment)


@pytest.mark.exhaustive
@given(segments(max_rows=5_000))
@settings(max_examples=2_000, deadline=None)
def test_every_float64_bit_pattern_round_trips_exhaustive(segment):
    assert_round_trip(segment)
