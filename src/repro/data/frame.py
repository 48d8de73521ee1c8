"""The columnar transfer-history substrate.

A :class:`TransferFrame` holds one set of completed transfers as parallel
column arrays — the columnar twin of a ``List[TransferRecord]``.  Every
layer that used to carry its own in-memory representation of transfer
history (``TransferLog`` record lists, the immutable ``core.History``
arrays, the service's growable ``LinkState`` buffers) now stores or
derives from a frame:

* numeric columns (``start_times``, ``end_times``, ``bandwidths``,
  ``sizes``, ``ops``, ``streams``, ``buffers``) are NumPy arrays, so
  filters, summaries, and the vectorized prediction kernels run at C
  speed over any number of records;
* string columns (``sources``, ``files``, ``volumes``) are NumPy unicode
  arrays, which round-trip losslessly through the binary sidecar cache
  (:mod:`repro.data.ingest`) as fixed-width bytes, without pickling;
* views (:meth:`view`, :meth:`reads`, :meth:`prefix`) slice all columns
  together, zero-copy for contiguous selections.

Frames are value-like: construction validates column lengths, and
:meth:`history` exposes the predictor-facing
:class:`~repro.core.history.History` view (end time / bandwidth / size)
without copying.  Row order is preserved as given; consumers that need
the end-time-sorted invariant call :meth:`sort_by_end_time`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence

import numpy as np

from repro.logs.record import Operation, TransferRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layer cycle
    from repro.core.history import History

__all__ = ["OP_READ", "OP_WRITE", "TransferFrame"]

#: Operation codes in the ``ops`` column (shared with the service layer).
OP_READ, OP_WRITE = 0, 1

#: (name, dtype) of the numeric columns, in canonical order.
NUMERIC_COLUMNS = (
    ("start_times", np.float64),
    ("end_times", np.float64),
    ("bandwidths", np.float64),
    ("sizes", np.int64),
    ("ops", np.int8),
    ("streams", np.int64),
    ("buffers", np.int64),
)

#: Names of the string columns, in canonical order.
STRING_COLUMNS = ("sources", "files", "volumes")

COLUMN_NAMES = tuple(name for name, _ in NUMERIC_COLUMNS) + STRING_COLUMNS


def _op_code(operation: Operation) -> int:
    return OP_READ if operation is Operation.READ else OP_WRITE


class TransferFrame:
    """Column arrays for one set of transfers, in row order."""

    __slots__ = COLUMN_NAMES

    def __init__(
        self,
        *,
        start_times: np.ndarray,
        end_times: np.ndarray,
        bandwidths: np.ndarray,
        sizes: np.ndarray,
        ops: np.ndarray,
        streams: np.ndarray,
        buffers: np.ndarray,
        sources: np.ndarray,
        files: np.ndarray,
        volumes: np.ndarray,
    ):
        self.start_times = np.asarray(start_times, dtype=np.float64)
        self.end_times = np.asarray(end_times, dtype=np.float64)
        self.bandwidths = np.asarray(bandwidths, dtype=np.float64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.ops = np.asarray(ops, dtype=np.int8)
        self.streams = np.asarray(streams, dtype=np.int64)
        self.buffers = np.asarray(buffers, dtype=np.int64)
        self.sources = np.asarray(sources, dtype=np.str_)
        self.files = np.asarray(files, dtype=np.str_)
        self.volumes = np.asarray(volumes, dtype=np.str_)
        n = len(self.end_times)
        for name in COLUMN_NAMES:
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"column {name!r} has length {len(getattr(self, name))}, "
                    f"expected {n}"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "TransferFrame":
        return cls(
            start_times=np.empty(0),
            end_times=np.empty(0),
            bandwidths=np.empty(0),
            sizes=np.empty(0, dtype=np.int64),
            ops=np.empty(0, dtype=np.int8),
            streams=np.empty(0, dtype=np.int64),
            buffers=np.empty(0, dtype=np.int64),
            sources=np.empty(0, dtype="U1"),
            files=np.empty(0, dtype="U1"),
            volumes=np.empty(0, dtype="U1"),
        )

    @classmethod
    def from_records(cls, records: Iterable[TransferRecord]) -> "TransferFrame":
        """One pass over records, preserving their order."""
        rows = list(records)
        n = len(rows)
        if n == 0:
            return cls.empty()
        return cls(
            start_times=np.fromiter((r.start_time for r in rows), np.float64, n),
            end_times=np.fromiter((r.end_time for r in rows), np.float64, n),
            bandwidths=np.fromiter((r.bandwidth for r in rows), np.float64, n),
            sizes=np.fromiter((r.file_size for r in rows), np.int64, n),
            ops=np.fromiter((_op_code(r.operation) for r in rows), np.int8, n),
            streams=np.fromiter((r.streams for r in rows), np.int64, n),
            buffers=np.fromiter((r.tcp_buffer for r in rows), np.int64, n),
            sources=np.array([r.source_ip for r in rows], dtype=np.str_),
            files=np.array([r.file_name for r in rows], dtype=np.str_),
            volumes=np.array([r.volume for r in rows], dtype=np.str_),
        )

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.end_times)

    def record(self, index: int) -> TransferRecord:
        """Materialize one row back into a :class:`TransferRecord`."""
        return TransferRecord(
            source_ip=str(self.sources[index]),
            file_name=str(self.files[index]),
            file_size=int(self.sizes[index]),
            volume=str(self.volumes[index]),
            start_time=float(self.start_times[index]),
            end_time=float(self.end_times[index]),
            bandwidth=float(self.bandwidths[index]),
            operation=Operation.READ if self.ops[index] == OP_READ else Operation.WRITE,
            streams=int(self.streams[index]),
            tcp_buffer=int(self.buffers[index]),
        )

    def __getitem__(self, index: int) -> TransferRecord:
        return self.record(index)

    def __iter__(self) -> Iterator[TransferRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def to_records(self) -> List[TransferRecord]:
        """Materialize every row (the bridge back to the row-at-a-time APIs)."""
        return [self.record(i) for i in range(len(self))]

    def equals(self, other: "TransferFrame") -> bool:
        """Exact column-wise equality (for tests and cache validation)."""
        if len(self) != len(other):
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in COLUMN_NAMES
        )

    def __repr__(self) -> str:
        return f"<TransferFrame n={len(self)}>"

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def view(self, selector) -> "TransferFrame":
        """All columns under one selector (zero-copy for slices)."""
        return TransferFrame(
            **{name: getattr(self, name)[selector] for name in COLUMN_NAMES}
        )

    def prefix(self, n: int) -> "TransferFrame":
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self.view(slice(0, n))

    def reads(self) -> "TransferFrame":
        """Rows the server read and sent (client *get*)."""
        return self.view(self.ops == OP_READ)

    def writes(self) -> "TransferFrame":
        """Rows the server stored (client *put*)."""
        return self.view(self.ops == OP_WRITE)

    @property
    def is_sorted(self) -> bool:
        """True when end times are non-decreasing (the log invariant)."""
        return len(self) < 2 or bool((np.diff(self.end_times) >= 0).all())

    def sort_by_end_time(self) -> "TransferFrame":
        """Stable end-time sort (rows with equal end times keep their order)."""
        if self.is_sorted:
            return self
        order = np.argsort(self.end_times, kind="stable")
        return self.view(order)

    def merge(self, other: "TransferFrame") -> "TransferFrame":
        """Concatenate and end-time-sort two frames (stable: self first)."""
        merged = TransferFrame(
            **{
                name: np.concatenate(
                    [getattr(self, name), getattr(other, name)]
                )
                for name in COLUMN_NAMES
            }
        )
        return merged.sort_by_end_time()

    # ------------------------------------------------------------------
    # predictor-facing view
    # ------------------------------------------------------------------
    def history(self) -> "History":
        """Zero-copy :class:`~repro.core.history.History` over this frame.

        The import is deferred: ``repro.core`` sits above ``repro.data``
        in the layer DAG, and this convenience must not pull the higher
        layer in at import time.
        """
        from repro.core.history import History

        return History(self.end_times, self.bandwidths, self.sizes)

    @property
    def anchors(self) -> np.ndarray:
        """Prediction anchor times — each transfer's *start* (the moment
        a replica decision would be made), matching the record-based
        evaluation path."""
        return self.start_times

    # ------------------------------------------------------------------
    # (de)serialization to plain arrays (the sidecar cache payload)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        return {name: getattr(self, name) for name in COLUMN_NAMES}

    @classmethod
    def from_arrays(cls, arrays) -> "TransferFrame":
        missing = [name for name in COLUMN_NAMES if name not in arrays]
        if missing:
            raise ValueError(f"missing columns: {missing}")
        return cls(**{name: arrays[name] for name in COLUMN_NAMES})


def frame_of(records: Sequence[TransferRecord]) -> TransferFrame:
    """Module-level alias used by layers that only need construction."""
    return TransferFrame.from_records(records)
