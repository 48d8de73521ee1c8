"""Logical volumes and the replica catalog.

The GridFTP log's ``Volume`` field names the logical volume a file was read
from or written to; :class:`LogicalVolume` models one (a directory tree on
one disk).  :class:`ReplicaCatalog` is the Data Grid piece the paper's
introduction motivates: a mapping from logical file names to the set of
sites holding physical copies, which the replica-selection broker consults
before asking predictors to rank the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.storage.disk import Disk

__all__ = ["LogicalVolume", "ReplicaCatalog"]


class LogicalVolume:
    """A named file tree backed by one disk.

    File paths are stored relative to the volume root (``/home/ftp`` in the
    paper's sample log).
    """

    def __init__(self, root: str, disk: Disk):
        if not root.startswith("/"):
            raise ValueError(f"volume root must be absolute, got {root!r}")
        self.root = root.rstrip("/") or "/"
        self.disk = disk
        self._files: Dict[str, int] = {}

    def add_file(self, path: str, size: int) -> str:
        """Register a file; returns its absolute path within the volume."""
        if size < 0:
            raise ValueError(f"file size must be non-negative, got {size}")
        abspath = self.abspath(path)
        self._files[abspath] = size
        return abspath

    def abspath(self, path: str) -> str:
        if path.startswith("/"):
            if not path.startswith(self.root):
                raise ValueError(f"{path!r} is outside volume {self.root!r}")
            return path
        return f"{self.root}/{path}"

    def has(self, path: str) -> bool:
        return self.abspath(path) in self._files

    def size_of(self, path: str) -> int:
        abspath = self.abspath(path)
        try:
            return self._files[abspath]
        except KeyError:
            raise FileNotFoundError(f"{abspath} not in volume {self.root}") from None

    def remove(self, path: str) -> None:
        abspath = self.abspath(path)
        if abspath not in self._files:
            raise FileNotFoundError(f"{abspath} not in volume {self.root}")
        del self._files[abspath]

    def files(self) -> Iterator[Tuple[str, int]]:
        """Iterate ``(absolute path, size)`` pairs in insertion order."""
        return iter(self._files.items())

    def __len__(self) -> int:
        return len(self._files)


@dataclass
class ReplicaCatalog:
    """Logical file name -> sites holding a replica.

    This stands in for the Globus replica catalog the paper's
    replica-selection use case assumes (reference [41]).
    """

    _entries: Dict[str, Set[str]] = field(default_factory=dict)
    _sizes: Dict[str, int] = field(default_factory=dict)

    def register(self, logical_name: str, site: str, size: int) -> None:
        """Record that ``site`` holds a copy of ``logical_name``.

        All replicas of a logical file must agree on size; a mismatch is a
        catalog-corruption error, not a silent overwrite.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        known = self._sizes.get(logical_name)
        if known is not None and known != size:
            raise ValueError(
                f"replica size mismatch for {logical_name!r}: {known} vs {size}"
            )
        self._sizes[logical_name] = size
        self._entries.setdefault(logical_name, set()).add(site)

    def locations(self, logical_name: str) -> List[str]:
        """Sites holding a copy, sorted for determinism."""
        sites = self._entries.get(logical_name)
        if not sites:
            raise KeyError(f"no replicas registered for {logical_name!r}")
        return sorted(sites)

    def size_of(self, logical_name: str) -> int:
        try:
            return self._sizes[logical_name]
        except KeyError:
            raise KeyError(f"no replicas registered for {logical_name!r}") from None

    def logical_names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, logical_name: str) -> bool:
        return logical_name in self._entries
