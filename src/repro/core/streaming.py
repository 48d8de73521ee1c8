"""Incremental sufficient statistics for the live serving path.

Every Figure 4 predictor is defined by a handful of running moments —
*Using Regression Techniques to Predict Large Data Transfers* (Vazhkudai
& Schopf) spells this out for the regression family, and the rest are
classical streaming summaries.  This module folds one observation into
those moments in O(1) amortised (``MED``'s one shift of a sorted column
aside) and answers the *current* prediction without touching the history
arrays, so a warm ``predict`` under live ingest no longer pays the O(n)
recompute that the version-keyed LRU cannot absorb (every append kills
its entries):

* ``AVG`` — a longdouble running sum and count (the all-data ``AR``'s);
* ``LV`` — the last value;
* ``AVG{n}`` / ``MED{n}`` — the series' last :data:`RING_CAPACITY` rows
  (any window that fits is answerable);
* ``MED`` — every value seen, as one sorted float64 column
  (:class:`repro.logs.stats.RunningMedian`: 8 B a value, an insert is a
  binary search and an O(n) shift of the tail);
* ``AVG{h}hr`` — a cursor into the series with lazy front expiry and a
  longdouble window sum;
* ``AR`` / ``AR{d}d`` — incremental lag-pair accumulators
  (``Σx, Σy, Σxx, Σxy, m`` in longdouble, exactly the prefix-sum
  statistics of :mod:`repro.core.fast`), plus a cursor and a monotonic
  min chain of row indices (the window's strict suffix minima) for the
  clamp floor on the windowed variants;
* ``C-`` variants — a bank of the same summaries per observed size
  class.

Every window above is a suffix of one ``(time, value)`` series, and
every series is some of the link's rows, which the bank holds once:
``(time, value, size, op)`` columns sorted by end time, whose views are
the link's ``history()``.  The link series reads those columns in place;
a class series keeps a ``uint32`` column of its rows' positions in them
(4 B a row), and a time window's expiry searches the link's times, then
those positions.  The windows keep row indices into their series, and
one that has expired nothing holds the all-data sums (:func:`_share`).

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

A bank grows one way: :meth:`StreamingBank.extend` takes rows in arrival
order (:meth:`StreamingBank.add` is its one-row form, bit for bit) and
folds an in-order run into the series.  Rows that land out of order
(overlapping transfers) are merged into the columns, and every series
is folded again from the first row, counted as a rebuild — as is
:meth:`StreamingBank.rebuild`, a bank started over from given rows.  So
however a link's rows arrived, the accumulators are those of the
in-order fold, and differ between two banks only by what their windows
have expired since.

The columns grow one way too: amortised doubling into *fresh* arrays
(:func:`_fresh`), never in place, so a snapshot (:meth:`StreamingBank.views`)
taken at any moment stays consistent however the bank grows; an in-order
row is written past every snapshot's end.  The bank holds no lock: its
owner serializes mutation.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.classification import Classification
from repro.core.predictors.arima import CLAMP, MIN_POINTS, ArModel, fit_ar1_sums
from repro.core.predictors.base import Predictor
from repro.core.predictors.classified import ClassifiedPredictor
from repro.core.predictors.last_value import LastValue
from repro.core.predictors.mean import TemporalAverage, TotalAverage, WindowedAverage
from repro.core.predictors.median import TotalMedian, WindowedMedian
from repro.logs.stats import RunningMedian, median
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


def _fold_sums(currents, terms, ufunc: np.ufunc = np.add) -> np.ndarray:
    """:func:`_fold_sum` of each of ``terms`` (equal lengths) onto its
    entry of ``currents``, as one 2-D ``accumulate``: still left to right
    along each row, so bit-identical to the separate folds."""
    acc = np.empty((len(currents), len(terms[0]) + 1), dtype=np.longdouble)
    acc[:, 0] = currents
    acc[:, 1:] = terms
    return ufunc.accumulate(acc, axis=1, out=acc)[:, -1]


def _fresh(column: np.ndarray, n: int, need: int) -> np.ndarray:
    """A new array holding ``column``'s first ``n`` entries, with room
    for ``need``: as long as ``column``, doubled when that is too short.

    Every column a bank grows — its rows, a class series' positions —
    grows through this, so a view of the old array stays valid.
    """
    size = len(column)
    fresh = np.empty(size if need <= size else max(need, 2 * size),
                     dtype=column.dtype)
    fresh[:n] = column[:n]
    return fresh


def _suffix_minima(values: np.ndarray) -> List[int]:
    """Positions of the values below every value after them, ascending:
    a windowed AR's min chain over its window's rows.

    Like :func:`_fold_sum`, a short run is a loop and a long one numpy's
    (they cost the same near 100 values).
    """
    if len(values) <= 100:
        chain, low = [], np.inf
        for i, value in zip(range(len(values) - 1, -1, -1),
                            reversed(values.tolist())):
            if value < low:
                chain.append(i)
                low = value
        return chain[::-1]
    suffix_min = np.minimum.accumulate(values[::-1])[::-1]
    chain = np.flatnonzero(values[:-1] < suffix_min[1:]).tolist()
    chain.append(len(values) - 1)  # the last value is below nothing after it
    return chain


# ----------------------------------------------------------------------
# per-series summaries
# ----------------------------------------------------------------------
def _expired(cursor, col: "SeriesSummaries", cutoff: float) -> int:
    """Rows at ``cursor.start`` older than ``cutoff`` (boundary recorded)."""
    if cutoff < cursor._expired_to:
        raise StreamingUnavailable(
            f"window start {cutoff} precedes expired boundary {cursor._expired_to}"
        )
    cursor._expired_to = cutoff
    start = cursor.start
    if start == col.count or not col._time(start) < cutoff:
        return 0
    return col._before(start, cutoff)


class _TemporalMean:
    """``AVG{h}hr``: a cursor into the series + the window sum."""

    __slots__ = ("seconds", "start", "_sum", "_expired_to")
    #: Its longdouble sums, by slot (see :func:`_share`).
    SUMS = ("_sum",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = 0
        self._sum = _ZERO
        self._expired_to = -np.inf

    def add(self, col: "SeriesSummaries", value: float) -> None:
        self._sum += value

    def extend(self, col: "SeriesSummaries", values: np.ndarray) -> None:
        self._sum = _fold_sum(self._sum, values)

    def value(self, col: "SeriesSummaries", anchor: float) -> Optional[float]:
        expired = _expired(self, col, anchor - self.seconds)
        if expired:
            stop = self.start + expired
            self._sum = _fold_sum(self._sum, col._values(self.start, stop),
                                  np.subtract)
            self.start = stop
        live = col.count - self.start
        return float(self._sum / live) if live else None


class _ArSummary:
    """``AR`` / ``AR{d}d``: lag-pair sufficient statistics.

    The fit (and its singular rule) is
    :func:`repro.core.predictors.arima.fit_ar1_sums` over the sufficient
    statistics ``m, Σx, Σy, Σxx, Σxy`` kept here in longdouble — what the
    generic predictor computes from the window and the vectorized kernel
    in :mod:`repro.core.fast` from prefix sums.  The all-data variant
    needs only running scalars, and takes its clamp floor from ``MED``'s
    sorted column; the windowed variants add a cursor into the series
    and a monotonic min chain of the series' row indices for theirs.  A
    window's row count is where its cursor stands, as ``AVG{h}hr``'s is,
    and ``m`` is one less.
    """

    __slots__ = ("seconds", "start", "_sum",
                 "_sx", "_sy", "_sxx", "_sxy", "_mins", "_expired_to")
    #: Its longdouble sums, by slot (see :func:`_share`).
    SUMS = ("_sum", "_sx", "_sy", "_sxx", "_sxy")

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self.start = 0
        self._sum = _ZERO
        self._sx = self._sy = self._sxx = self._sxy = _ZERO
        self._mins: List[int] = []  # windowed only: monotonic min chain
        self._expired_to = -np.inf

    def rows(self, col: "SeriesSummaries") -> int:
        """Rows in the window: all of the series' for ``AR``."""
        return col.count if self.seconds is None else col.count - self.start

    def add(self, col: "SeriesSummaries", value: float) -> None:
        if self.rows(col) > 1:  # the series holds the new row already
            x = np.longdouble(col._value(col.count - 2))  # widens exactly
            self._sx += x
            self._sy += value
            self._sxx += x * x
            self._sxy += x * value
        self._sum += value

    def push_min(self, col: "SeriesSummaries", value: float) -> None:
        """Fold the series' newest row into the min chain."""
        mins = self._mins
        while mins and col._value(mins[-1]) >= value:
            mins.pop()
        mins.append(col.count - 1)

    def push_mins(self, col: "SeriesSummaries", low: float,
                  chain: List[int]) -> None:
        """Fold a batch of the series' newest rows into the min chain.

        The sequential pop-while replayed wholesale: survivors of the
        old chain are those strictly below the batch minimum ``low``,
        and the appended entries are the batch's suffix-minima
        ``chain`` (series row indices, which every window shares).
        """
        mins = self._mins
        while mins and col._value(mins[-1]) >= low:
            mins.pop()
        mins += chain

    def extend(self, col: "SeriesSummaries", values: np.ndarray) -> None:
        """Fold an in-order batch; identical final sums to n ``add``\\ s.

        The five sums are linear folds of per-row longdouble terms, so
        they vectorize as one :func:`_fold_sums`: y is the batch, x the
        row before each (seeded with the row before the batch).  A
        window's first row has no lag pair; it goes into ``_sum`` alone.
        """
        n = len(values)
        total = self._sum
        if self.rows(col) > n:  # the series holds the batch already
            wide = np.empty(n + 1, dtype=np.longdouble)
            wide[0] = col._value(col.count - n - 1)
            wide[1:] = values
        else:
            wide = values.astype(np.longdouble)
            total = total + wide[0]
        x, y = wide[:-1], wide[1:]
        self._sum, self._sx, self._sy, self._sxx, self._sxy = _fold_sums(
            (total, self._sx, self._sy, self._sxx, self._sxy),
            (y, x, y, x * x, x * y))

    def _expire(self, col: "SeriesSummaries", expired: int) -> None:
        """Advance the cursor past ``expired`` rows, unfolding each row
        and its lag pair — the per-row ``-=`` chain as subtracting folds."""
        stop = self.start + expired
        wide = col._values(self.start, min(stop + 1, col.count)).astype(
            np.longdouble)
        x, y = wide[:expired], wide[1:]  # y is one short when the window empties
        self._sum = _fold_sum(self._sum, x, np.subtract)
        if len(y):
            x = x[:len(y)]
            self._sx, self._sy, self._sxx, self._sxy = _fold_sums(
                (self._sx, self._sy, self._sxx, self._sxy),
                (x, y, x * x, x * y), np.subtract)
        self.start = stop
        del self._mins[:bisect_left(self._mins, stop)]

    def value(self, col: "SeriesSummaries", anchor: float) -> Optional[float]:
        if self.seconds is not None:
            expired = _expired(self, col, anchor - self.seconds)
            if expired:
                self._expire(col, expired)
        n = self.rows(col)
        if n == 0:
            return None
        mean = float(self._sum / n)
        if n < MIN_POINTS:  # fewer than two lag pairs
            return mean
        fit = fit_ar1_sums(n - 1, self._sx, self._sy, self._sxx, self._sxy)
        if fit is None:
            return mean
        a, b = fit
        prediction = float(a + b * np.longdouble(col.last))
        floor = CLAMP * (col._median.minimum() if self.seconds is None
                         else col._value(self._mins[0]))
        return max(prediction, float(floor))


def _share(cursor, whole: _ArSummary) -> None:
    """Give a window whose cursor is still at row 0 the all-data sums.

    Such a window has subtracted nothing, so its sums are the fold of
    every row of the series, which the all-data ``AR``'s are: the same
    terms in the same order, bit for bit (``AVG{h}hr``'s one sum is that
    ``AR``'s ``_sum``).  So a series folds each distinct accumulator
    once, and a checkpoint stores none of these.
    """
    for name in cursor.SUMS:
        setattr(cursor, name, getattr(whole, name))


#: The checkpoint of one series: these scalars, then in cursor order the
#: longdouble sums (``SUMS``: one for ``AVG{h}hr``, five for ``AR{d}d``)
#: of each window whose cursor has left row 0 — only what the rows cannot
#: give back.  Such a sum depends on when each expiry ran (its ``-=``
#: interleaves with the ``+=`` of new rows).  The all-data sums are the
#: fold of the series' rows in order, as every bank's are however its rows
#: arrived, and a window still at row 0 holds those (:func:`_share`).  No
#: row is stored: a series is some of the link's rows (see
#: :meth:`StreamingBank.load_state`), its count theirs, and each min chain
#: their suffix minima from its window's start.
#: :meth:`SeriesSummaries._dump` and :meth:`SeriesSummaries._load` walk it
#: in this order and nothing else knows it.
_SERIES = struct.Struct(  # a window's start and expired_to, per cursor
    "<" + "Id" * (len(TEMPORAL_HOURS) + len(AR_DAYS)))

#: What a bank's checkpoint opens with: rebuilds, class series held (the
#: class indexes follow, one byte each, in series order).
_BANK = struct.Struct("<qH")

#: A link's columns, as the bank holds them, sorted by end time.
_DTYPES = (np.dtype(np.float64),  # end time
           np.dtype(np.float64),  # bandwidth
           np.dtype(np.int64),    # size
           np.dtype(np.int8))     # operation

#: Slots a bank's columns start with.
_INITIAL_ROWS = 64


class SeriesSummaries:
    """All banked summaries for one observation series: the link's.

    One instance serves the 15 context-insensitive predictors over every
    row of the link; the classified variants use one
    :class:`_ClassSeries` per observed size class.  No series holds a
    row.  This one reads the bank's columns in place (its row ``i`` is
    the link's row ``i``), a class series through a column of row
    positions.  ``rows`` is the bank's list of columns, which growth
    refills in place.  Count windows are the last rows, time windows are
    cursors (row indices into the series).
    """

    __slots__ = ("count", "last", "last_time", "_rows",
                 "_median", "_temporal", "_ar", "_cursors")

    def __init__(self, rows: List[np.ndarray]) -> None:
        self.count = 0
        self.last: Optional[float] = None
        self.last_time = -np.inf
        self._rows = rows
        self._median = RunningMedian()
        self._temporal = {h: _TemporalMean(h * HOUR) for h in TEMPORAL_HOURS}
        self._ar = {d: _ArSummary(None if d is None else d * DAY)
                    for d in (None, *AR_DAYS)}
        self._cursors = (*self._temporal.values(),
                         *(self._ar[d] for d in AR_DAYS))

    # -- the series' rows: the link's, in place -------------------------
    def _time(self, i: int) -> float:
        return self._rows[0][i]

    def _value(self, i: int) -> float:
        return self._rows[1][i]

    def _values(self, lo: int, hi: int) -> np.ndarray:
        return self._rows[1][lo:hi]

    def _before(self, start: int, cutoff: float) -> int:
        """Rows from ``start`` on that end before ``cutoff``."""
        return int(self._rows[0][start:self.count].searchsorted(
            cutoff, side="left"))

    def add(self, time: float, value: float) -> None:
        """Fold the link's newest row (the bank holds it already)."""
        self.count += 1
        self.last = value
        self.last_time = time
        self._median.add(value)
        self._fold_once(lambda summary: summary.add(self, value))
        for ar in self._cursors[-len(AR_DAYS):]:
            ar.push_min(self, value)

    def extend(self, times: np.ndarray, values: np.ndarray) -> None:
        """Fold an in-order batch; same final state as n ``add`` calls.

        The running sums vectorize (:func:`_fold_sum`) and the median's
        sorted column merges the batch in with one stable sort (``MED``
        depends on the values seen, not on the order they came in).
        """
        k = len(values)
        if k == 0:
            return
        self.count += k
        self.last = float(values[-1])
        self.last_time = float(times[-1])
        self._median.extend(values)
        self._fold_once(lambda summary: summary.extend(self, values))
        # One suffix-minima chain of the batch serves every window.
        chain = _suffix_minima(values)
        low = values[chain[0]]
        first = self.count - k
        chain = [first + i for i in chain]
        for ar in self._cursors[-len(AR_DAYS):]:
            ar.push_mins(self, low, chain)

    def _fold_once(self, fold: Callable) -> None:
        """``fold`` the newest rows into the all-data sums, then into each
        window's own once its cursor has left row 0; until then a window
        takes the all-data sums (:func:`_share`), so each distinct
        accumulator folds once."""
        whole = self._ar[None]
        fold(whole)
        for cursor in self._cursors:
            if cursor.start:
                fold(cursor)
            else:
                _share(cursor, whole)

    def window_values(self, window: int) -> np.ndarray:
        """The last ``window`` values, oldest first (fewer if short)."""
        return self._values(max(self.count - window, 0), self.count)

    # -- checkpoint state (the layout is _SERIES, above) ---------------
    def _dump(self, out) -> None:
        """Append this series to ``out`` (two lists: fixed, ld)."""
        fixed, ld = out
        fixed.append(_SERIES.pack(
            *(field for cursor in self._cursors
              for field in (cursor.start, cursor._expired_to))))
        ld += [getattr(cursor, name) for cursor in self._cursors if cursor.start
               for name in cursor.SUMS]

    def _load(self, src, values: np.ndarray) -> None:
        """Restore what :meth:`_dump` wrote over the series' rows, whose
        values are ``values`` (a class series' ``_pos`` is set already).
        What the file leaves out comes back from them."""
        fields = src.unpack(_SERIES)
        starts = fields[0::2]
        count = self.count = len(values)
        src.require(max(starts) <= count, "a window starts beyond its column")
        # The all-data sums are the rows' fold, as the live path's are.
        whole = self._ar[None]
        if count:  # the newest row is the series' "last"
            whole.extend(self, values)
            self.last, self.last_time = float(values[-1]), float(self._time(count - 1))
        for cursor, start, expired_to in zip(self._cursors, starts, fields[1::2]):
            cursor.start, cursor._expired_to = start, expired_to
            if start:  # a moved window's sums are in the file
                for name, total in zip(cursor.SUMS, src.ld(len(cursor.SUMS))):
                    setattr(cursor, name, total)
            else:
                _share(cursor, whole)
        # MED is every value the series has seen, sorted; nothing stores it.
        self._median.extend(values)
        # A min chain is its window's suffix minima: the later window's
        # chain is the other's tail.
        low = min(starts[-len(AR_DAYS):])
        chain = [low + i for i in _suffix_minima(values[low:])]
        for ar in self._cursors[-len(AR_DAYS):]:
            ar._mins = chain[bisect_left(chain, ar.start):]


class _ClassSeries(SeriesSummaries):
    """The series of one size class: the link's rows of that class,
    through ``_pos``, a ``uint32`` column of their positions (4 B a row,
    grown as the bank's columns are).

    A time window's expiry stays a binary search: the link's rows that
    end before the cutoff are its first ``p``, so the class's are those
    at positions below ``p``.
    """

    __slots__ = ("_pos",)

    def __init__(self, rows: List[np.ndarray]) -> None:
        super().__init__(rows)
        self._pos = np.empty(16, dtype=np.uint32)

    def _time(self, i: int) -> float:
        return self._rows[0][self._pos[i]]

    def _value(self, i: int) -> float:
        return self._rows[1][self._pos[i]]

    def _values(self, lo: int, hi: int) -> np.ndarray:
        return self._rows[1][self._pos[lo:hi]]

    def _before(self, start: int, cutoff: float) -> int:
        # The class's rows are among the link's first ``last + 1``.
        last = int(self._pos[self.count - 1])
        p = self._rows[0][:last + 1].searchsorted(cutoff, side="left")
        # A uint32 needle: any other dtype would convert the whole column.
        return int(self._pos[start:self.count].searchsorted(
            np.uint32(p), side="left"))

    def add(self, time: float, value: float, row: int) -> None:
        """Fold the link's row ``row``, the newest of this class."""
        n = self.count
        if n == len(self._pos):
            self._pos = _fresh(self._pos, n, n + 1)
        self._pos[n] = row
        super().add(time, value)

    def extend(self, times: np.ndarray, values: np.ndarray,
               rows: np.ndarray) -> None:
        """Fold the link's rows ``rows``, in order, all of this class."""
        n, k = self.count, len(rows)
        if n + k > len(self._pos):
            self._pos = _fresh(self._pos, n, n + k)
        self._pos[n:n + k] = rows
        super().extend(times, values)


# ----------------------------------------------------------------------
# the per-link bank
# ----------------------------------------------------------------------
class StreamingBank:
    """A link's rows and its incremental summaries: the link's series
    and one per class.

    The rows are ``(end time, bandwidth, size, operation)`` columns
    sorted by end time, of which the first :attr:`count` slots hold
    rows; :meth:`views` are their zero-copy snapshots, which stay
    consistent however the bank grows.  Owned by a
    :class:`~repro.service.state.LinkState`; all mutation and all
    queries happen under the owner's per-link lock (time-window queries
    expire entries lazily, so even reads mutate).

    Parameters
    ----------
    classification:
        Size classes for the ``C-`` summary banks (must be the same
        object the serving layer resolves ``C-`` specs with).
    on_rebuild:
        Called with a reason string (``"out_of_order"`` here, or what
        the caller of :meth:`rebuild` gives) whenever the summaries are
        folded again from the first row.
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
        #: Rows the bank holds: the first ``count`` slots of ``_columns``.
        self.count = 0
        #: The columns, one list for the bank's life between rebuilds:
        #: growth refills it in place, and the series read through it.
        self._columns = [np.empty(_INITIAL_ROWS, dtype=dt) for dt in _DTYPES]
        self._global = SeriesSummaries(self._columns)
        #: One series per observed class, keyed by its index in
        #: ``classification.labels`` (a row's tag).
        self._classes: Dict[int, _ClassSeries] = {}

    def views(self) -> Tuple[np.ndarray, ...]:
        """``(times, values, sizes, ops)``: zero-copy views of the rows."""
        n = self.count
        return tuple(column[:n] for column in self._columns)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, time: float, value: float, size: int, op: int) -> None:
        """Hold and fold one row; O(1) amortized when it ends no earlier
        than the last (else it is a batch of one for :meth:`extend`)."""
        columns = self._columns
        row = self.count
        if row and time < columns[0][row - 1]:
            return self.extend((time,), (value,), (size,), (op,))
        if row == len(columns[0]):
            columns[:] = [_fresh(column, row, row + 1) for column in columns]
        for column, item in zip(columns, (time, value, size, op)):
            column[row] = item
        self.count = row + 1
        tag = self.classification.index(size)
        self._global.add(time, value)
        series = self._classes.get(tag)
        if series is None:
            series = self._classes[tag] = _ClassSeries(columns)
        series.add(time, value, row)

    def extend(self, times, values, sizes, ops) -> None:
        """Hold and fold a batch of rows in arrival order.

        Rows in end-time order, none before the last held, are written
        at the tail and fold in bit-identically to sequential
        :meth:`add`.  If any row ends before its predecessor (or before
        the last held), the batch is merged into fresh columns at once —
        stable by end time, so held rows stay ahead of equal keys and
        the batch keeps its arrival order, as one sorted insert per row
        would — and the summaries are folded again from the first row,
        once: that moves every positional window (``on_rebuild`` hears
        ``"out_of_order"``).
        """
        batch = [np.asarray(column, dtype=dt)
                 for column, dt in zip((times, values, sizes, ops), _DTYPES)]
        keys = batch[0]
        k = len(keys)
        if k == 0:
            return
        columns, n = self._columns, self.count
        if (n and keys[0] < columns[0][n - 1]) or (np.diff(keys) < 0).any():
            order = np.argsort(np.concatenate([columns[0][:n], keys]),
                               kind="stable")
            for i, (column, new) in enumerate(zip(columns, batch)):
                merged = _fresh(column, 0, n + k)
                merged[:n + k] = np.concatenate([column[:n], new])[order]
                columns[i] = merged
            self.count = n + k
            self._refold("out_of_order")
            return
        if n + k > len(columns[0]):
            columns[:] = [_fresh(column, n, n + k) for column in columns]
        for column, new in zip(columns, batch):
            column[n:n + k] = new
        self.count = n + k
        self._fold(n)

    def _fold(self, lo: int) -> None:
        """Fold the rows from ``lo`` on, which end no earlier than those
        folded.

        The rows scatter into per-class subsequences exactly once; each
        series then folds its own subsequence in arrival order, which is
        precisely what the interleaved per-row path would have fed it.
        Longdouble sums vectorize via :func:`_fold_sum`; the min chains
        and the median fold the batch wholesale too.
        """
        if lo == self.count:
            return
        times, values, sizes, _ = (column[lo:self.count] for column in self._columns)
        tags = self.classification.indices(sizes)
        self._global.extend(times, values)
        # First-occurrence order (dict.fromkeys, not set): new class
        # series are created in the order the per-row path would have.
        for tag in dict.fromkeys(tags.tolist()):
            mask = tags == tag
            series = self._classes.get(tag)
            if series is None:
                series = self._classes[tag] = _ClassSeries(self._columns)
            series.extend(times[mask], values[mask], lo + np.flatnonzero(mask))

    def _refold(self, reason: str) -> None:
        """Fresh summaries over every row held, counted as a rebuild."""
        self._global = SeriesSummaries(self._columns)
        self._classes = {}
        self._fold(0)
        self.rebuilds += 1
        if self.on_rebuild is not None:
            self.on_rebuild(reason)

    def _hold(self, columns) -> None:
        """Hold a copy of ``columns`` — rows sorted by end time — in
        fresh arrays, in place of every row held; what is not parallel
        or not sorted raises ``ValueError``."""
        n = len(columns[0])
        if any(len(column) != n for column in columns):
            raise ValueError("columns must be parallel")
        held = []
        for values, dt in zip(columns, _DTYPES):
            column = np.empty(max(n, _INITIAL_ROWS), dtype=dt)
            column[:n] = values
            held.append(column)
        if (np.diff(held[0][:n]) < 0).any():
            raise ValueError("rows must be sorted by end time")
        self._columns, self.count = held, n

    def rebuild(
        self,
        times: np.ndarray,
        values: np.ndarray,
        sizes: np.ndarray,
        ops: np.ndarray,
        reason: str = "bulk",
    ) -> None:
        """Start over from these rows, sorted by end time: a copy of
        them, and every summary folded from the first, so a rebuilt bank
        is the folded one bit for bit (but for windows the folded one
        has already expired).  What a checkpointless revival does."""
        self._hold((times, values, sizes, ops))
        self._refold(reason)

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def state(self) -> tuple:
        """The accumulators the rows cannot give back, as one part of a
        checkpoint: ``(fixed, ld, f8)`` — bytes, then a longdouble and a
        float64 pool.

        ``fixed`` is :data:`_BANK`, the class indexes, then the link's
        :data:`_SERIES` and one per class.  No row is written, and the
        f8 pool is empty: every series is some of the link's rows,
        which its durable store holds (see :meth:`load_state`).

        The sums of the windows that have moved are kept verbatim, and
        the all-data sums, ``MED`` and the min chains come back from the
        rows, so a bank restored with :meth:`load_state` over the same
        rows answers every query bit-identically to the original — the
        property the evict→revive parity gate in the durable store rests
        on.  The classification itself is *not* captured (it is
        identity-compared in :meth:`answer`); callers must pair the
        state with a fingerprint of the classification it was built
        against.
        """
        out = fixed, ld = [], []
        fixed += (_BANK.pack(self.rebuilds, len(self._classes)),
                  bytes(self._classes))
        for series in (self._global, *self._classes.values()):
            series._dump(out)
        return b"".join(fixed), np.array(ld, dtype=np.longdouble), np.empty(0)

    def load_state(self, src, columns: Tuple[np.ndarray, ...], n: int) -> None:
        """Hold a copy of ``columns`` — a link's ``(times, values, sizes,
        ops)``, stably sorted by end time (else ``ValueError``) — and
        restore :meth:`state` from a :class:`repro.store.checkpoint.Reader`
        over it, taken when the bank held their first ``n``.  The link
        series is those rows, a class series those
        :meth:`Classification.indices` gives its index; what does not
        add up raises the reader's error.  The rows past ``n`` then fold
        in as :meth:`extend` would, and must end no earlier than those."""
        self.rebuilds, classes = src.unpack(_BANK)
        held = list(src.raw(classes))
        self._hold(columns)
        rows = self._columns
        tags = self.classification.indices(rows[2][:n])
        counts = np.bincount(tags).tolist()
        src.require(sorted(held) == [tag for tag, k in enumerate(counts) if k],
                    "the class series are not the rows' classes")
        self._global = SeriesSummaries(rows)
        self._global._load(src, rows[1][:n])
        # Each class's rows, in order: one stable sort, cut at the counts.
        order = np.argsort(tags, kind="stable").astype(np.uint32)
        classed, ends = rows[1][order], list(accumulate(counts))
        self._classes = {}
        for tag in held:
            lo, hi = ends[tag] - counts[tag], ends[tag]
            series = self._classes[tag] = _ClassSeries(rows)
            series._pos = order[lo:hi]
            series._load(src, classed[lo:hi])
        src.finish()
        self._fold(n)

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
            series = self._classes.get(self.classification.index(size))
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
            return float(series._ar[None]._sum / series.count)  # AR's sum is AVG's
        if kind is LastValue:
            return series.last
        if kind is WindowedAverage or kind is WindowedMedian:
            if base.window > RING_CAPACITY:
                raise StreamingUnavailable(f"window {base.window} exceeds ring")
            tail = series.window_values(base.window)
            return float(tail.mean()) if kind is WindowedAverage else median(tail)
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
            return series._ar[base.window_days].value(series, anchor)
        raise StreamingUnavailable(f"unbanked predictor {base!r}")


_BANKED_TYPES = (
    TotalAverage, LastValue, WindowedAverage, WindowedMedian,
    TotalMedian, TemporalAverage, ArModel,
)
