"""Incremental sufficient statistics for the live serving path.

Every Figure 4 predictor is defined by a handful of running moments —
*Using Regression Techniques to Predict Large Data Transfers* (Vazhkudai
& Schopf) spells this out for the regression family, and the rest are
classical streaming summaries.  This module folds one observation into
those moments in O(1)/O(log n) and answers the *current* prediction
without touching the history arrays, so a warm ``predict`` under live
ingest no longer pays the O(n) recompute that the version-keyed LRU
cannot absorb (every append kills its entries):

* ``AVG`` — a longdouble running sum and count (the all-data ``AR``'s);
* ``LV`` — the last value;
* ``AVG{n}`` / ``MED{n}`` — the last :data:`RING_CAPACITY` rows of the
  series column (any window that fits is answerable);
* ``MED`` — the classic dual-heap running median;
* ``AVG{h}hr`` — a cursor into the series column with lazy front expiry
  and a longdouble window sum;
* ``AR`` / ``AR{d}d`` — incremental lag-pair accumulators
  (``Σx, Σy, Σxx, Σxy, m`` in longdouble, exactly the prefix-sum
  statistics of :mod:`repro.core.fast`), plus a cursor and a monotonic
  min chain of column indices for the clamp floor on the windowed
  variants;
* ``C-`` variants — a bank of the same summaries per observed size
  class.

Every window above is a suffix of one ``(time, value)`` series, so each
series is held once, as a float64 column; the windows keep indices into
it and the prefix behind all of them is dropped as they advance.

Numerical contract: answers match the generic predictors within the
established longdouble tolerance — bit-identical for ``LV``, ``MED``,
``MED{n}``, ``AVG{n}`` (same values reduced in the same order), and
within a few ulps for the running sums; the AR family carries the same
sufficient-statistics-vs-two-pass tolerance the vectorized kernels
already established (see ``tests/integration/test_fast_evaluate_parity``).

Time-window summaries expire lazily from the front and therefore assume
query anchors move forward.  A query anchored *before* an already
expired boundary raises :class:`StreamingUnavailable`; the serving layer
falls back to a snapshot recompute, so correctness never depends on the
anchor pattern.

A bank grows one way: :meth:`StreamingBank.extend` folds an in-order run
of rows (:meth:`StreamingBank.add` is its one-row form, bit for bit), and
:meth:`StreamingBank.rebuild` — what the owner does after rows landed
out of order (overlapping transfers), counted — is ``extend`` of the
whole sorted history into fresh series.  So however a link's rows
arrived, the accumulators are those of the in-order fold, and differ
between two banks only by what their windows have expired since.
"""

from __future__ import annotations

import heapq
import struct
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.classification import Classification
from repro.core.predictors.arima import ArModel, fit_ar1_sums
from repro.core.predictors.base import Predictor
from repro.core.predictors.classified import ClassifiedPredictor
from repro.core.predictors.last_value import LastValue
from repro.core.predictors.mean import TemporalAverage, TotalAverage, WindowedAverage
from repro.core.predictors.median import TotalMedian, WindowedMedian
from repro.units import DAY, HOUR

__all__ = [
    "RING_CAPACITY",
    "StreamingUnavailable",
    "SeriesSummaries",
    "StreamingBank",
]

#: Largest count window answerable (the column always keeps this many rows);
#: covers the paper's ``AVG5/15/25`` and ``MED5/15/25``.
RING_CAPACITY = 25

#: Temporal-mean windows kept incrementally (hours).
TEMPORAL_HOURS: Tuple[float, ...] = (5.0, 15.0, 25.0)

#: AR fit windows kept incrementally (days); ``None`` (all data) is always kept.
AR_DAYS: Tuple[float, ...] = (5.0, 10.0)


#: Where every longdouble sum starts (scalars are immutable: ``+=`` rebinds).
_ZERO = np.longdouble(0.0)


class StreamingUnavailable(RuntimeError):
    """The bank cannot answer this query; recompute from a snapshot.

    Raised for predictors outside the banked battery (``SIZE``, hybrids,
    non-standard windows) and for time-window queries anchored before an
    already expired boundary.
    """


def _fold_sum(current: np.longdouble, values: np.ndarray,
              ufunc: np.ufunc = np.add) -> np.longdouble:
    """``current + v0 + v1 + ...`` bit-identically to the scalar loop
    (``current - v0 - v1 - ...`` with ``ufunc=np.subtract``).

    ``ufunc.accumulate`` materializes every partial sum left to right —
    unlike ``sum()``/``.sum()``, which use pairwise summation — so the
    final element is exactly the chained ``+=`` (``-=``) the per-record
    path performs.  This is what lets :meth:`StreamingBank.extend` and
    window expiry vectorize the longdouble running sums without
    perturbing a single bit.  A handful of terms (a live tail expiring
    one row per arrival) *is* that loop: the array machinery only pays
    for itself on longer runs.
    """
    if len(values) <= 4:
        for value in values.tolist():
            current = current + value if ufunc is np.add else current - value
        return current
    acc = np.empty(len(values) + 1, dtype=np.longdouble)
    acc[0] = current
    acc[1:] = values
    return ufunc.accumulate(acc)[-1]


# ----------------------------------------------------------------------
# per-series summaries
# ----------------------------------------------------------------------
class _RunningMedian:
    """``MED``: dual-heap running median, O(log n) per add, O(1) per query."""

    __slots__ = ("_lower", "_upper")

    def __init__(self) -> None:
        self._lower: List[float] = []  # max-heap (negated)
        self._upper: List[float] = []  # min-heap

    def add(self, value: float) -> None:
        heapq.heappush(self._lower, -value)
        heapq.heappush(self._upper, -heapq.heappop(self._lower))
        if len(self._upper) > len(self._lower):
            heapq.heappush(self._lower, -heapq.heappop(self._upper))

    def build(self, values: np.ndarray) -> None:
        ordered = np.sort(values)
        k = (len(ordered) + 1) // 2
        # An ascending list is a valid min-heap; the negated, reversed
        # lower half likewise — no heapify needed.
        self._lower = (-ordered[k - 1::-1]).tolist()
        self._upper = ordered[k:].tolist()

    def value(self) -> Optional[float]:
        if not self._lower:
            return None
        if len(self._lower) > len(self._upper):
            return float(-self._lower[0])
        return float((-self._lower[0] + self._upper[0]) / 2.0)


def _expired(cursor, col: "SeriesSummaries", cutoff: float) -> int:
    """Rows at ``cursor.start`` older than ``cutoff`` (boundary recorded)."""
    if cutoff < cursor._expired_to:
        raise StreamingUnavailable(
            f"window start {cutoff} precedes expired boundary {cursor._expired_to}"
        )
    cursor._expired_to = cutoff
    start, n = cursor.start, col._n
    if start == n or not col._times[start] < cutoff:
        return 0
    return int(col._times[start:n].searchsorted(cutoff, side="left"))


class _TemporalMean:
    """``AVG{h}hr``: a cursor into the series column + the window sum."""

    __slots__ = ("seconds", "start", "_sum", "_expired_to")

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = 0
        self._sum = _ZERO
        self._expired_to = -np.inf

    def add(self, value: float) -> None:
        self._sum += value

    def extend(self, values: np.ndarray) -> None:
        self._sum = _fold_sum(self._sum, values)

    def value(self, col: "SeriesSummaries", anchor: float) -> Optional[float]:
        expired = _expired(self, col, anchor - self.seconds)
        if expired:
            stop = self.start + expired
            self._sum = _fold_sum(self._sum, col._values[self.start:stop], np.subtract)
            self.start = stop
            col._trim()
        live = col._n - self.start
        return float(self._sum / live) if live else None


class _ArSummary:
    """``AR`` / ``AR{d}d``: lag-pair sufficient statistics.

    The fit (and its singular rule) is
    :func:`repro.core.predictors.arima.fit_ar1_sums` over the sufficient
    statistics ``m, Σx, Σy, Σxx, Σxy`` kept here in longdouble — what the
    generic predictor computes from the window and the vectorized kernel
    in :mod:`repro.core.fast` from prefix sums.  The all-data variant
    needs only running scalars; the windowed variants add a cursor into
    the series column and a monotonic min chain of column indices for
    the clamp floor.
    """

    __slots__ = (
        "seconds", "count", "start", "_sum", "_last", "_min",
        "_m", "_sx", "_sy", "_sxx", "_sxy", "_mins", "_expired_to",
    )

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self.count = 0
        self.start = 0
        self._sum = _ZERO
        self._last = 0.0
        self._min = np.inf
        self._m = 0
        self._sx = self._sy = self._sxx = self._sxy = _ZERO
        self._mins: List[int] = []  # windowed only: monotonic min chain
        self._expired_to = -np.inf

    def add(self, col: "SeriesSummaries", value: float) -> None:
        if self.count:
            x = np.longdouble(self._last)  # float64 operands widen exactly
            self._m += 1
            self._sx += x
            self._sy += value
            self._sxx += x * x
            self._sxy += x * value
        self.count += 1
        self._sum += value
        self._last = value
        if self.seconds is None:
            if value < self._min:
                self._min = value
        else:
            mins, values = self._mins, col._values
            while mins and values[mins[-1]] >= value:
                mins.pop()
            mins.append(col._n - 1)

    def _push_mins(self, col: "SeriesSummaries", values: np.ndarray) -> None:
        """Fold the column's last ``len(values)`` rows into the min chain.

        The sequential pop-while replayed wholesale: survivors of the
        old chain are those strictly below the batch minimum, and the
        appended entries are the batch's strictly-decreasing
        suffix-minima chain.
        """
        mins, column = self._mins, col._values
        batch_min = values.min()
        while mins and column[mins[-1]] >= batch_min:
            mins.pop()
        suffix_min = np.minimum.accumulate(values[::-1])[::-1]
        keep = values < np.concatenate([suffix_min[1:], [np.inf]])
        mins.extend((np.flatnonzero(keep) + (col._n - len(values))).tolist())

    def extend(self, col: "SeriesSummaries", values: np.ndarray) -> None:
        """Fold an in-order batch; identical final state to n ``add``\\ s.

        The lag-pair sums are linear folds, so they vectorize through
        :func:`_fold_sum` over the per-pair longdouble terms (the x
        vector is the previous value shifted by one, seeded with the
        carried ``_last``).
        """
        n = len(values)
        wide = values.astype(np.longdouble)
        if self.count:
            x = np.empty(n, dtype=np.longdouble)
            x[0] = np.longdouble(self._last)
            x[1:] = wide[:-1]
            y = wide
        else:
            x, y = wide[:-1], wide[1:]
        if len(x):
            self._m += len(x)
            self._sx = _fold_sum(self._sx, x)
            self._sy = _fold_sum(self._sy, y)
            self._sxx = _fold_sum(self._sxx, x * x)
            self._sxy = _fold_sum(self._sxy, x * y)
        self.count += n
        self._sum = _fold_sum(self._sum, values)
        self._last = float(values[-1])
        if self.seconds is None:
            low = float(values.min())
            if low < self._min:
                self._min = low
        else:
            self._push_mins(col, values)

    def _expire(self, col: "SeriesSummaries", expired: int) -> None:
        """Advance the cursor past ``expired`` rows, unfolding each row
        and its lag pair — the per-row ``-=`` chain as subtracting folds."""
        stop = self.start + expired
        wide = col._values[self.start:min(stop + 1, col._n)].astype(np.longdouble)
        x, y = wide[:expired], wide[1:]  # y is one short when the window empties
        self._sum = _fold_sum(self._sum, x, np.subtract)
        self.count -= expired
        if len(y):
            x = x[:len(y)]
            self._m -= len(y)
            self._sx = _fold_sum(self._sx, x, np.subtract)
            self._sy = _fold_sum(self._sy, y, np.subtract)
            self._sxx = _fold_sum(self._sxx, x * x, np.subtract)
            self._sxy = _fold_sum(self._sxy, x * y, np.subtract)
        self.start = stop
        del self._mins[:bisect_left(self._mins, stop)]
        col._trim()

    def value(self, col: "SeriesSummaries", anchor: float,
              min_points: int, clamp: float) -> Optional[float]:
        if self.seconds is not None:
            expired = _expired(self, col, anchor - self.seconds)
            if expired:
                self._expire(col, expired)
        n = self.count
        if n == 0:
            return None
        mean = float(self._sum / n)
        if n < min_points or self._m < 2:
            return mean
        fit = fit_ar1_sums(self._m, self._sx, self._sy, self._sxx, self._sxy)
        if fit is None:
            return mean
        a, b = fit
        prediction = float(a + b * np.longdouble(self._last))
        floor = clamp * (self._min if self.seconds is None
                         else col._values[self._mins[0]])
        return max(prediction, float(floor))


#: The checkpoint of one series: these scalars; one longdouble per
#: ``AVG{h}hr`` (its sum) and five per AR (sum, Σx, Σy, Σxx, Σxy); and
#: the two min chains as u4.  No row is stored: a series is a view of
#: the link's rows (see :meth:`StreamingBank.load_state`), its live
#: column their last ``live``, ``_dropped`` the rest.
#: :meth:`SeriesSummaries._dump` and :meth:`SeriesSummaries._load` walk
#: it in this order and nothing else knows it.
_SERIES = struct.Struct(
    "<" + "Id" * len(TEMPORAL_HOURS)   # AVG{h}hr: start, expired_to
    + "qqdd" * (1 + len(AR_DAYS))      # AR, AR{d}d: count, m, min, expired_to
    + "II" * len(AR_DAYS)              # AR{d}d: start, min-chain length
    + "I")                             # live: the column's length
_SERIES_LONGDOUBLES = len(TEMPORAL_HOURS) + 5 * (1 + len(AR_DAYS))

#: What a bank's checkpoint opens with: rebuilds, class series held (the
#: class indexes follow, one byte each, in series order).
_BANK = struct.Struct("<qH")

_COLUMNS = ("_times", "_values")


class SeriesSummaries:
    """All banked summaries for one observation series.

    One instance serves the 15 context-insensitive predictors; the
    classified variants use one instance per observed size class.  The
    series itself is held once, as an append-only float64 ``(times,
    values)`` column (amortised-doubling buffers, ``_n`` live rows):
    count windows are views of its tail, time windows are cursors into
    it, and :meth:`_trim` drops the prefix no window can reach any more.
    """

    __slots__ = ("count", "last", "last_time", "_times", "_values",
                 "_n", "_dropped", "_median", "_temporal", "_ar", "_cursors")

    def __init__(self) -> None:
        self.count = 0
        self.last: Optional[float] = None
        self.last_time = -np.inf
        self._times = self._values = np.empty(0, dtype=np.float64)
        self._n = 0
        #: Values trimmed off the column, oldest first: with the column,
        #: everything ``MED`` has seen.
        self._dropped: List[np.ndarray] = []
        self._median = _RunningMedian()
        self._temporal = {h: _TemporalMean(h * HOUR) for h in TEMPORAL_HOURS}
        self._ar = {d: _ArSummary(None if d is None else d * DAY)
                    for d in (None, *AR_DAYS)}
        self._cursors = (*self._temporal.values(),
                         *(self._ar[d] for d in AR_DAYS))

    def _move(self, lo: int, capacity: int) -> None:
        """Rows ``lo:_n`` of every column, at the front of new buffers."""
        for name in _COLUMNS:
            new = np.empty(capacity, dtype=np.float64)
            new[:self._n - lo] = getattr(self, name)[lo:self._n]
            setattr(self, name, new)

    def _reserve(self, n: int) -> None:
        """Make room for ``n`` rows (doubling)."""
        if n > len(self._times):
            self._move(0, max(n, 2 * len(self._times), 16))

    def _trim(self) -> None:
        """Drop the dead prefix once it is more than half the column.

        Dead rows lie before every cursor and outside the last
        :data:`RING_CAPACITY`; the rule reads only ``_n`` and the
        cursors, so a revived bank trims exactly where the original would.
        """
        n = self._n
        if 2 * self._cursors[-1].start <= n:
            return  # the widest window alone rules it out, as it mostly does
        dead = min(min(c.start for c in self._cursors), n - RING_CAPACITY)
        if 2 * dead <= n:
            return
        self._dropped.append(self._values[:dead].copy())
        self._move(dead, n - dead)
        self._n = n - dead
        for cursor in self._cursors:
            cursor.start -= dead
        for d in AR_DAYS:
            self._ar[d]._mins = [i - dead for i in self._ar[d]._mins]

    def add(self, time: float, value: float) -> None:
        n = self._n
        self._reserve(n + 1)
        self._times[n] = time
        self._values[n] = value
        self._n = n + 1
        self.count += 1
        self.last = value
        self.last_time = time
        self._median.add(value)
        for summary in self._temporal.values():
            summary.add(value)
        for summary in self._ar.values():
            summary.add(self, value)

    def extend(self, times: np.ndarray, values: np.ndarray) -> None:
        """Fold an in-order batch; same final state as n ``add`` calls.

        The column takes the batch in one slice assignment and the
        running sums vectorize (:func:`_fold_sum`).  The dual-heap
        median is sequential, so it takes the rows one by one — except
        into an empty series, where one sort seeds both heaps (``MED``
        depends on the values seen, not on the heaps' layout).
        """
        k = len(values)
        if k == 0:
            return
        n = self._n
        self._reserve(n + k)
        self._times[n:n + k] = times
        self._values[n:n + k] = values
        self._n = n + k
        self.count += k
        self.last = float(values[-1])
        self.last_time = float(times[-1])
        if self.count == k:
            self._median.build(values)
        else:
            median = self._median
            for value in values.tolist():
                median.add(value)
        for summary in self._temporal.values():
            summary.extend(values)
        for summary in self._ar.values():
            summary.extend(self, values)

    def window_values(self, window: int) -> np.ndarray:
        """The last ``window`` values, oldest first (fewer if short)."""
        return self._values[max(self._n - window, 0):self._n]

    # -- checkpoint state (the layout is _SERIES, above) ---------------
    def _dump(self, out) -> None:
        """Append this series to ``out`` (three lists: fixed, ld, idx)."""
        fixed, ld, idx = out
        fields: list = []
        for summary in self._temporal.values():
            fields += (summary.start, summary._expired_to)
            ld.append(summary._sum)
        for ar in self._ar.values():
            fields += (ar.count, ar._m, ar._min, ar._expired_to)
            ld += (ar._sum, ar._sx, ar._sy, ar._sxx, ar._sxy)
        for ar in self._cursors[-len(AR_DAYS):]:
            fields += (ar.start, len(ar._mins))
            idx += ar._mins
        fixed.append(_SERIES.pack(*fields, self._n))

    def _load(self, src, times: np.ndarray, values: np.ndarray) -> None:
        """Restore what :meth:`_dump` wrote over the series' rows, oldest
        first: the live column is their tail, ``_dropped`` the rest."""
        field = iter(src.unpack(_SERIES)).__next__
        wide = iter(src.ld(_SERIES_LONGDOUBLES)).__next__
        for summary in self._temporal.values():
            summary.start, summary._expired_to = field(), field()
            summary._sum = wide()
        for ar in self._ar.values():
            ar.count, ar._m, ar._min, ar._expired_to = (
                field(), field(), field(), field())
            ar._sum, ar._sx, ar._sy, ar._sxx, ar._sxy = (
                wide(), wide(), wide(), wide(), wide())
        for ar in self._cursors[-len(AR_DAYS):]:
            ar.start, ar._mins = field(), src.idx(field()).tolist()
        n = self._n = field()
        src.require(n <= len(values), "a column longer than its series")
        src.require(all(c.start <= n for c in self._cursors),
                    "a window starts beyond its column")
        src.require(all(i < n for d in AR_DAYS for i in self._ar[d]._mins),
                    "a min-chain entry beyond its column")
        gone = len(values) - n
        self._times, self._values = times[gone:].copy(), values[gone:].copy()
        self._dropped = [values[:gone].copy()] if gone else []
        self.count = len(values)
        # MED depends on the values it has seen, not on the heaps' layout.
        self._median.build(values)
        if n:  # the newest row is every summary's "last"
            self.last, self.last_time = float(values[-1]), float(times[-1])
            for ar in self._ar.values():
                ar._last = self.last


# ----------------------------------------------------------------------
# the per-link bank
# ----------------------------------------------------------------------
class StreamingBank:
    """Per-link incremental summaries: the link's series and one per class.

    Owned by a :class:`~repro.service.state.LinkState`; all mutation and
    all queries happen under the owner's per-link lock (time-window
    queries expire entries lazily, so even reads mutate).

    Parameters
    ----------
    classification:
        Size classes for the ``C-`` summary banks (must be the same
        object the serving layer resolves ``C-`` specs with).
    on_rebuild:
        Called with a reason string (``"out_of_order"`` or ``"revive"``
        from the service) whenever the bank is rebuilt from the history
        arrays.

    ``add`` / ``extend`` / ``rebuild`` accept ``op`` / ``ops`` and never read it.
    """

    def __init__(
        self,
        classification: Classification,
        on_rebuild: Optional[Callable[[str], None]] = None,
    ) -> None:
        if len(classification.labels) > 256:
            raise ValueError("a class index is kept in one byte")
        self.classification = classification
        self.on_rebuild = on_rebuild
        self.rebuilds = 0
        self.count = 0
        self._global = SeriesSummaries()
        #: One series per observed class, keyed by its index in
        #: ``classification.labels`` (a row's tag, :meth:`_tags`).
        self._classes: Dict[int, SeriesSummaries] = {}
        self._tag_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _tag(self, size: int) -> int:
        tag = self._tag_cache.get(size)
        if tag is None:
            if len(self._tag_cache) > 4096:  # fuzz-resistant bound
                self._tag_cache.clear()
            tag = self._tag_cache[size] = self.classification.index_of(size)
        return tag

    def _tags(self, sizes: np.ndarray) -> np.ndarray:
        """One classify per *distinct* size, scattered back."""
        unique_sizes, inverse = np.unique(sizes, return_inverse=True)
        return np.array([self._tag(int(s)) for s in unique_sizes],
                        dtype=np.uint8)[inverse]

    def add(self, time: float, value: float, size: int, op: int) -> None:
        """Fold one in-order observation; O(1) amortized."""
        self.count += 1
        tag = self._tag(int(size))
        self._global.add(time, value)
        series = self._classes.get(tag)
        if series is None:
            series = self._classes[tag] = SeriesSummaries()
        series.add(time, value)

    def extend(
        self,
        times: np.ndarray,
        values: np.ndarray,
        sizes: np.ndarray,
        ops: np.ndarray,
    ) -> None:
        """Fold an in-order batch, bit-identical to sequential :meth:`add`.

        The batch scatters into per-class subsequences exactly once;
        each series then folds its own subsequence in arrival order,
        which is precisely what the interleaved per-record path would
        have fed it.  Longdouble sums vectorize via :func:`_fold_sum`;
        heap-backed structures keep per-record folds.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = len(values)
        if n == 0:
            return
        self.count += n
        tags = self._tags(np.asarray(sizes))
        self._global.extend(times, values)
        # First-occurrence order (dict.fromkeys, not set): new class
        # series are created in the order the per-record path would have.
        for tag in dict.fromkeys(tags.tolist()):
            mask = tags == tag
            series = self._classes.get(tag)
            if series is None:
                series = self._classes[tag] = SeriesSummaries()
            series.extend(times[mask], values[mask])

    def rebuild(
        self,
        times: np.ndarray,
        values: np.ndarray,
        sizes: np.ndarray,
        ops: np.ndarray,
        reason: str = "bulk",
    ) -> None:
        """Start over from the full arrays: :meth:`extend` into fresh
        series, so a rebuilt bank is the folded one bit for bit (but for
        windows the folded one has already expired).

        What the owner does after rows landed out of order, which moves
        every positional window, and what a checkpointless revival does.
        """
        self.count = 0
        self._global = SeriesSummaries()
        self._classes = {}
        self.extend(times, values, sizes, ops)
        self.rebuilds += 1
        if self.on_rebuild is not None:
            self.on_rebuild(reason)

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def state(self) -> tuple:
        """Every accumulator, as one part of a checkpoint: ``(fixed, ld,
        f8, idx)`` — bytes, then a longdouble, a float64 and a uint32 pool.

        ``fixed`` is :data:`_BANK`, the class indexes, then the link's
        :data:`_SERIES` and one per class.  No row is written, and the
        f8 pool is empty: every series is a view of the link's rows
        sorted by end time, which its durable store holds (see
        :meth:`load_state`).

        Longdouble sums are preserved verbatim and ``MED`` is the values
        themselves, so a bank restored with :meth:`load_state` over the
        same rows answers every query bit-identically to the original —
        the property the evict→revive parity gate in the durable store
        rests on.  The classification itself is *not* captured (it is
        identity-compared in :meth:`answer`); callers must pair the
        state with a fingerprint of the classification it was built
        against.
        """
        out = fixed, ld, idx = [], [], []
        fixed += (_BANK.pack(self.rebuilds, len(self._classes)),
                  bytes(self._classes))
        for series in (self._global, *self._classes.values()):
            series._dump(out)
        return (b"".join(fixed), np.array(ld, dtype=np.longdouble),
                np.empty(0), np.array(idx, dtype=np.uint32))

    def load_state(self, src, times: np.ndarray, values: np.ndarray,
                   sizes: np.ndarray) -> None:
        """Restore :meth:`state` from a :class:`repro.store.checkpoint.Reader`
        over it and the rows the bank held: the link's, stably sorted by
        end time (its ``LinkState`` buffer's order).  The link series is
        all of them, a class series those :meth:`_tags` gives its index;
        what does not add up raises the reader's error."""
        self.rebuilds, classes = src.unpack(_BANK)
        held = list(src.raw(classes))
        tags = self._tags(sizes)
        src.require(len(set(held)) == classes
                    and set(held) == set(tags.tolist()),
                    "the class series are not the rows' classes")
        self._global = SeriesSummaries()
        self._global._load(src, times, values)
        self.count = len(values)
        self._classes = {}
        for tag in held:
            mask = tags == tag
            series = self._classes[tag] = SeriesSummaries()
            series._load(src, times[mask], values[mask])
        src.finish()

    # ------------------------------------------------------------------
    # predictor queries
    # ------------------------------------------------------------------
    def answer(
        self,
        predictor: Predictor,
        size: int,
        now: Optional[float],
    ) -> Optional[float]:
        """What ``predictor.predict(history, size, now)`` would return.

        Raises :class:`StreamingUnavailable` for predictors outside the
        banked battery or anchors behind an expired window boundary; the
        caller recomputes from a snapshot in that case.
        """
        if isinstance(predictor, ClassifiedPredictor):
            if predictor.classification is not self.classification:
                raise StreamingUnavailable("classification mismatch")
            series = self._classes.get(self._tag(int(size)))
            value = self._answer_series(predictor.base, series, now)
            if value is None and predictor.fallback:
                value = self._answer_series(predictor.base, self._global, now)
            return value
        return self._answer_series(predictor, self._global, now)

    def _answer_series(
        self,
        base: Predictor,
        series: Optional[SeriesSummaries],
        now: Optional[float],
    ) -> Optional[float]:
        if series is None or series.count == 0:
            # Every banked base predictor abstains on an empty history
            # (checked before its anchor default kicks in).
            if type(base) in _BANKED_TYPES:
                return None
            raise StreamingUnavailable(f"unbanked predictor {base!r}")
        # Each branch mirrors one predictor's semantics exactly.
        kind = type(base)
        if kind is TotalAverage:
            total = series._ar[None]  # the all-data AR's sum and count are AVG's
            return float(total._sum / total.count)
        if kind is LastValue:
            return series.last
        if kind is WindowedAverage or kind is WindowedMedian:
            if base.window > RING_CAPACITY:
                raise StreamingUnavailable(f"window {base.window} exceeds ring")
            tail = series.window_values(base.window)
            return float(tail.mean() if kind is WindowedAverage else np.median(tail))
        if kind is TotalMedian:
            return series._median.value()
        anchor = now if now is not None else series.last_time
        if kind is TemporalAverage:
            if base.hours not in series._temporal:
                raise StreamingUnavailable(f"no {base.hours}hr window banked")
            return series._temporal[base.hours].value(series, anchor)
        if kind is ArModel:
            if base.window_days not in series._ar:
                raise StreamingUnavailable(f"no {base.window_days}d window banked")
            return series._ar[base.window_days].value(
                series, anchor, base.min_points, base.clamp)
        raise StreamingUnavailable(f"unbanked predictor {base!r}")


_BANKED_TYPES = (
    TotalAverage, LastValue, WindowedAverage, WindowedMedian,
    TotalMedian, TemporalAverage, ArModel,
)
