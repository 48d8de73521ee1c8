"""Multi-link collections of transfer frames.

A :class:`Dataset` maps link names to :class:`TransferFrame` columns —
the unit the production layers move around: the CLI bulk-loads one per
``repro evaluate``/``repro serve`` invocation, the analysis layer walks
the predictor battery over each link
(:func:`repro.core.engine.evaluate_dataset`), and campaign outputs
convert straight into one.

Construction never mutates frames; a dataset is an ordered, read-only
mapping.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Union

from repro.data.frame import TransferFrame
from repro.data.ingest import load_ulm

__all__ = ["Dataset"]


class Dataset(Mapping[str, TransferFrame]):
    """An ordered link -> :class:`TransferFrame` mapping."""

    def __init__(self, frames: Mapping[str, TransferFrame]):
        for link, frame in frames.items():
            if not link:
                raise ValueError("link names must be non-empty")
            if not isinstance(frame, TransferFrame):
                raise TypeError(
                    f"link {link!r}: expected TransferFrame, got {type(frame).__name__}"
                )
        self._frames: Dict[str, TransferFrame] = dict(frames)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_ulm(
        cls,
        paths: Union[str, Path, Sequence[Union[str, Path]]],
    ) -> "Dataset":
        """Load ULM files, one link per file named by the file's stem,
        each through :func:`repro.data.ingest.load_ulm`."""
        if isinstance(paths, (str, Path)):
            paths = [paths]
        frames: Dict[str, TransferFrame] = {}
        for path in map(Path, paths):
            name = path.stem
            frame = load_ulm(path)
            frames[name] = frames[name].merge(frame) if name in frames else frame
        return cls(frames)

    @classmethod
    def from_logs(cls, logs: Mapping[str, object]) -> "Dataset":
        """Many links from a link -> :class:`TransferLog` mapping."""
        return cls({link: log.to_frame() for link, log in logs.items()})

    # ------------------------------------------------------------------
    # mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, link: str) -> TransferFrame:
        return self._frames[link]

    def __iter__(self) -> Iterator[str]:
        return iter(self._frames)

    def __len__(self) -> int:
        return len(self._frames)

    def links(self) -> List[str]:
        return list(self._frames)

    @property
    def total_records(self) -> int:
        return sum(len(frame) for frame in self._frames.values())

    def merge(self, other: "Dataset") -> "Dataset":
        """Union of two datasets; shared links merge record-wise."""
        frames = dict(self._frames)
        for link, frame in other.items():
            frames[link] = frames[link].merge(frame) if link in frames else frame
        return Dataset(frames)

    def __repr__(self) -> str:
        return f"<Dataset links={self.links()} records={self.total_records}>"
