"""The two window kernels of the replay are their NumPy definitions, bit
for bit.

* :func:`repro.logs.stats.median` (every ``MED{n}`` window, ``MED`` in
  the generic walk, the size model's load level) returns what
  ``np.median`` returns: same bits at every length from 1 to 60, odd and
  even, with ties, signed zeros, subnormals and magnitudes from 1e-300
  to 1e300 in one window, and row by row over a 2-D stack of windows.
* ``core.fast._windowed_median`` (the vectorized ``MED{n}``) applies
  it to every prefix and to the stack of full windows, for odd and even
  widths alike.
* ``core.fast._range_min`` (the AR floor's window minimum) returns
  ``values[lo:hi].min()`` for every range, and NaN for an empty one,
  with window starts in any order: AR's come from start-time anchors.

The tier-1 profile runs 200 examples each; the exhaustive one 3,000
columns and 1,000 series of up to 600 values.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fast import _range_min, _windowed_median
from repro.logs.stats import median

#: Values a uniform draw rarely repeats or reaches: ties come from here.
POOL = [0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1e-300, 1e300, 1.5e7, 1.5e7 + 2.0 ** -29, 8.988465674311579e307]

finite = st.floats(allow_nan=False, allow_infinity=False)
columns = st.lists(st.one_of(finite, st.sampled_from(POOL)), min_size=1, max_size=60)


def assert_median_is_numpy(values):
    column = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # two values near the float max
        want = np.median(column)
        got = median(column)
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes(), (values, got, want)
    # A 2-D stack gets the same rule a row.
    rows = np.vstack([column, column[::-1], np.roll(column, 1)])
    with np.errstate(over="ignore"):
        assert median(rows).tobytes() == np.median(rows, axis=1).tobytes(), values


@st.composite
def ranges(draw, max_size):
    n = draw(st.integers(0, max_size))
    values = np.array(draw(st.lists(finite, min_size=n, max_size=n)),
                      dtype=np.float64)
    # Ends anywhere in [0, n], each start anywhere at or before its end.
    bounds = draw(st.lists(
        st.integers(0, n).flatmap(lambda hi: st.tuples(st.integers(0, hi), st.just(hi))),
        max_size=max_size))
    lo = np.array([b[0] for b in bounds], dtype=np.int64)
    hi = np.array([b[1] for b in bounds], dtype=np.int64)
    return values, lo, hi


def assert_range_min_is_slice_min(values, lo, hi):
    got = _range_min(values, lo, hi)
    assert got.shape == lo.shape
    for k, (j, i) in enumerate(zip(lo, hi)):
        if i > j:
            assert got[k] == values[j:i].min(), (j, i)
        else:
            assert np.isnan(got[k]), (j, i)


class TestMedian:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_every_length_odd_and_even(self, n):
        rng = np.random.default_rng(n)
        mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        assert_median_is_numpy(mixed.tolist())
        assert_median_is_numpy(rng.integers(0, 3, n).astype(float).tolist())

    @given(columns)
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([5e-324, 5e-324])
    @example([8.988465674311579e307, 8.988465674311579e307])
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, values):
        assert_median_is_numpy(values)

    @pytest.mark.exhaustive
    @given(columns)
    @settings(max_examples=3_000, deadline=None)
    def test_matches_numpy_exhaustive(self, values):
        assert_median_is_numpy(values)

    def test_empty_has_no_median(self):
        with pytest.raises(IndexError):
            median(np.empty(0))

    @pytest.mark.parametrize("window", range(1, 9))
    def test_windowed_kernel_is_numpy_per_window(self, window):
        rng = np.random.default_rng(window)
        values = rng.integers(1, 6, 40) * 10.0 ** rng.integers(-3, 3, 40)
        want = [np.nan] + [np.median(values[max(0, i - window):i])
                           for i in range(1, len(values))]
        got = _windowed_median(values, window)
        assert got.tobytes() == np.array(want).tobytes()


class TestRangeMinimum:
    def test_non_monotone_starts(self):
        values = np.array([5.0, 1.0, 4.0, 0.5, 3.0, 2.0])
        lo = np.array([3, 0, 2, 2, 6, 0])
        hi = np.array([6, 2, 3, 2, 6, 6])
        got = _range_min(values, lo, hi)
        np.testing.assert_array_equal(got, [0.5, 1.0, 4.0, np.nan, np.nan, 0.5])

    @given(ranges(max_size=70))
    @settings(max_examples=200, deadline=None)
    def test_matches_slice_min(self, case):
        assert_range_min_is_slice_min(*case)

    @pytest.mark.exhaustive
    @given(ranges(max_size=600))
    @settings(max_examples=1_000, deadline=None)
    def test_matches_slice_min_exhaustive(self, case):
        assert_range_min_is_slice_min(*case)
