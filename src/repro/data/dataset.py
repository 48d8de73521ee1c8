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
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

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
        cache: bool = True,
        links: Optional[Sequence[str]] = None,
    ) -> "Dataset":
        """Load ULM files, one link per file (default link: the file stem).

        Goes through :func:`repro.data.ingest.load_ulm`, so repeat loads
        of unchanged files come from the binary sidecar cache.
        """
        if isinstance(paths, (str, Path)):
            paths = [paths]
        paths = [Path(p) for p in paths]
        if links is not None and len(links) != len(paths):
            raise ValueError(
                f"{len(links)} link names for {len(paths)} paths"
            )
        names = list(links) if links is not None else [p.stem for p in paths]
        frames: Dict[str, TransferFrame] = {}
        for name, path in zip(names, paths):
            frame = load_ulm(path, cache=cache)
            frames[name] = frames[name].merge(frame) if name in frames else frame
        return cls(frames)

    @classmethod
    def from_log(cls, link: str, log) -> "Dataset":
        """One link from a live :class:`~repro.logs.logfile.TransferLog`."""
        return cls({link: log.to_frame()})

    @classmethod
    def from_logs(cls, logs: Mapping[str, object]) -> "Dataset":
        """Many links from a link -> :class:`TransferLog` mapping."""
        return cls({link: log.to_frame() for link, log in logs.items()})

    @classmethod
    def partition_by_link(
        cls,
        frame: TransferFrame,
        key: Union[str, Callable[[TransferFrame], np.ndarray]] = "sources",
    ) -> "Dataset":
        """Split one mixed frame into per-link frames.

        ``key`` names a string column (``"sources"`` — the remote peer,
        the paper's notion of a link — or ``"volumes"``) or is a callable
        producing one label per row.  Row order inside each partition is
        preserved; links appear in sorted label order.
        """
        if callable(key):
            labels = np.asarray(key(frame), dtype=np.str_)
            if len(labels) != len(frame):
                raise ValueError(
                    f"key callable produced {len(labels)} labels for "
                    f"{len(frame)} rows"
                )
        else:
            if key not in ("sources", "volumes", "files"):
                raise ValueError(f"cannot partition on column {key!r}")
            labels = getattr(frame, key)
        frames: Dict[str, TransferFrame] = {}
        for label in np.unique(labels):
            frames[str(label)] = frame.view(labels == label)
        return cls(frames)

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
