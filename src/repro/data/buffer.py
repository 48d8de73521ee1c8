"""Growable, snapshot-safe column storage.

A :class:`ColumnBuffer` is the mutable counterpart of a
:class:`~repro.data.frame.TransferFrame` column set: capacity-doubling
parallel arrays kept sorted by one key column.  It carries the invariant
the service layer depends on for lock-free reads:

* a snapshot (:meth:`views`) is a set of zero-copy views of the first
  ``n`` slots;
* an in-order append writes only at index ``n`` — outside every existing
  view;
* growth and an out-of-order merge allocate *fresh* arrays rather than
  resizing in place;

so a snapshot taken at any moment stays internally consistent forever.
Callers serialize mutation themselves (the service uses a per-link
lock); this class holds no locks.

:meth:`append` writes one in-order row; :meth:`extend_sorted` merges a
presorted batch — of any length, anywhere in the key range — in one
vectorized pass, and is the only way a row lands before the tail.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["ColumnBuffer"]

_INITIAL_CAPACITY = 64


class ColumnBuffer:
    """Parallel arrays sorted by the first column, with snapshot views."""

    __slots__ = ("names", "_columns", "_n")

    def __init__(
        self,
        dtypes: Sequence[Tuple[str, np.dtype]],
        capacity: int = _INITIAL_CAPACITY,
    ):
        if not dtypes:
            raise ValueError("at least one column is required")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.names = tuple(name for name, _ in dtypes)
        self._columns = [np.empty(capacity, dtype=dt) for _, dt in dtypes]
        self._n = 0

    @classmethod
    def from_columns(
        cls,
        dtypes: Sequence[Tuple[str, np.dtype]],
        columns: Sequence[np.ndarray],
    ) -> "ColumnBuffer":
        """Load a buffer from materialized columns (the spill/load seam).

        The durable store spills a link's history as raw columns and
        hands them back here on revival; rows must already be sorted by
        the key column.  Same snapshot semantics as a buffer grown by
        appends: the columns are copied into fresh backing arrays.
        """
        if len(columns) != len(dtypes):
            raise ValueError(f"expected {len(dtypes)} columns, got {len(columns)}")
        n = len(columns[0])
        buffer = cls(dtypes, capacity=max(n, _INITIAL_CAPACITY))
        for target, values in zip(buffer._columns, columns):
            if len(values) != n:
                raise ValueError("columns must be parallel")
            target[:n] = values
        if n > 1 and (np.diff(buffer._columns[0][:n].astype(np.float64)) < 0).any():
            raise ValueError("key column must be non-decreasing")
        buffer._n = n
        return buffer

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return len(self._columns[0])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _grow(self, capacity: int) -> None:
        """Reallocate (never resize in place: snapshots alias the buffers)."""
        n = self._n
        fresh = []
        for old in self._columns:
            new = np.empty(capacity, dtype=old.dtype)
            new[:n] = old[:n]
            fresh.append(new)
        self._columns = fresh

    def append(self, values: Sequence) -> None:
        """Write one row at the tail, O(1) amortized.

        The key must not fall before the current tail (``ValueError``):
        a row out of order is a batch of one for :meth:`extend_sorted`.
        """
        if len(values) != len(self._columns):
            raise ValueError(
                f"expected {len(self._columns)} values, got {len(values)}"
            )
        n = self._n
        if n and values[0] < self._columns[0][n - 1]:
            raise ValueError("key falls before the tail; use extend_sorted")
        if n == self.capacity:
            self._grow(max(2 * n, _INITIAL_CAPACITY))
        for column, value in zip(self._columns, values):
            column[n] = value
        self._n = n + 1

    def extend_sorted(self, batch: Sequence[np.ndarray]) -> None:
        """Merge a batch of rows already sorted by the key column.

        Equal keys keep arrival order: existing rows stay ahead of
        incoming ones, and incoming rows keep their batch order.
        Appending at the tail reuses spare capacity (those slots are
        outside every snapshot); anything else merges into fresh arrays.
        """
        if len(batch) != len(self._columns):
            raise ValueError(
                f"expected {len(self._columns)} columns, got {len(batch)}"
            )
        keys = np.asarray(batch[0])
        k = len(keys)
        if k == 0:
            return
        if len(keys) > 1 and (np.diff(keys) < 0).any():
            raise ValueError("batch key column must be non-decreasing")
        n = self._n
        if n == 0 or keys[0] >= self._columns[0][n - 1]:
            # Tail append: write into spare slots, growing first if needed.
            if n + k > self.capacity:
                self._grow(max(2 * self.capacity, n + k))
            for column, values in zip(self._columns, batch):
                column[n : n + k] = values
        else:
            # Interleaved: stable argsort of the concatenated keys keeps
            # existing rows ahead of batch rows on ties.
            capacity = max(2 * self.capacity, n + k)
            order = np.argsort(
                np.concatenate([self._columns[0][:n], keys]), kind="stable"
            )
            fresh = []
            for old, values in zip(self._columns, batch):
                merged = np.concatenate([old[:n], np.asarray(values, dtype=old.dtype)])
                new = np.empty(capacity, dtype=old.dtype)
                new[: n + k] = merged[order]
                fresh.append(new)
            self._columns = fresh
        self._n = n + k

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def views(self) -> Tuple[np.ndarray, ...]:
        """Zero-copy views of the first ``n`` slots of every column."""
        n = self._n
        return tuple(column[:n] for column in self._columns)

    def column(self, name: str) -> np.ndarray:
        return self._columns[self.names.index(name)][: self._n]

    def as_dict(self) -> Dict[str, np.ndarray]:
        return dict(zip(self.names, self.views()))

    def __repr__(self) -> str:
        return f"<ColumnBuffer {self.names} n={self._n} cap={self.capacity}>"
