"""File-size classification (the context-sensitive factor, Section 4.3).

Transfer bandwidth correlates strongly with file size — small transfers
pay TCP start-up costs in full — so filtering history to transfers of a
similar size improves prediction accuracy (the paper measures a 5–10 %
average improvement).  The paper partitions its testbed data into four
classes by achievable bandwidth:

=============  ============  ==================
Range          Label         Representative
=============  ============  ==================
0 – 50 MB      ``10MB``      small transfers
50 – 250 MB    ``100MB``     medium
250 – 750 MB   ``500MB``     large
> 750 MB       ``1GB``       very large
=============  ============  ==================

The labels follow Figure 7's row names.  The class *edges* are explicitly
testbed-specific in the paper ("these classes apply to the set of hosts
for our testbed only"), so :class:`Classification` takes arbitrary edges —
``tests/integration/test_prediction_pipeline.py::TestClassEdges`` varies
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.units import MB

__all__ = ["Classification", "paper_classification", "PAPER_CLASS_LABELS"]

PAPER_CLASS_LABELS: Tuple[str, ...] = ("10MB", "100MB", "500MB", "1GB")


@dataclass(frozen=True)
class Classification:
    """A partition of file sizes into labelled, contiguous classes.

    ``edges`` are the *upper* bounds (exclusive) of all classes but the
    last, which is unbounded.  ``labels`` has one more entry than
    ``edges``.
    """

    edges: Tuple[int, ...]
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.edges) + 1:
            raise ValueError(
                f"need len(labels) == len(edges)+1, got {len(self.labels)} labels "
                f"for {len(self.edges)} edges"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate class labels: {self.labels}")
        if any(e <= 0 for e in self.edges):
            raise ValueError("edges must be positive")
        if list(self.edges) != sorted(self.edges) or len(set(self.edges)) != len(self.edges):
            raise ValueError(f"edges must be strictly increasing: {self.edges}")

    def classify(self, size: int) -> str:
        """Label of the class containing ``size`` bytes."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        for edge, label in zip(self.edges, self.labels):
            if size < edge:
                return label
        return self.labels[-1]

    def index_of(self, size: int) -> int:
        """Index of the class containing ``size``."""
        return self.labels.index(self.classify(size))

    def bounds(self, label: str) -> Tuple[int, float]:
        """``[lo, hi)`` byte bounds of the labelled class (hi may be inf)."""
        try:
            i = self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown class label {label!r}") from None
        lo = self.edges[i - 1] if i > 0 else 0
        hi: float = self.edges[i] if i < len(self.edges) else float("inf")
        return lo, hi

    def class_sizes(self) -> List[Tuple[str, int, float]]:
        """All ``(label, lo, hi)`` triples in order."""
        return [(label, *self.bounds(label)) for label in self.labels]


def paper_classification() -> Classification:
    """The paper's testbed classes: 0–50, 50–250, 250–750, >750 MB."""
    return Classification(
        edges=(50 * MB, 250 * MB, 750 * MB),
        labels=PAPER_CLASS_LABELS,
    )
