"""Deterministic consistent-hash placement of links onto shards.

Every process that touches the fleet — the front tier routing a
request, a worker checking ownership, the bench partitioning load —
must agree on where a link lives, across interpreter restarts and
machine boundaries.  Python's builtin ``hash()`` is salted per process,
so the ring hashes with BLAKE2b instead: stable, seedless, and cheap
(one digest per lookup, ~1µs).

The ring is the classic Karger construction: each shard owns
:data:`REPLICAS` pseudo-random points on a 64-bit circle; a link belongs to
the shard owning the first point at or after the link's own hash.
Replicas smooth the load split (64 points per shard keeps the
imbalance under ~20% for realistic link populations) and keep
remappings local when the shard count changes: growing N shards to
N+1 moves only ~1/(N+1) of the links.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Tuple

from repro.digests import blake2b

__all__ = ["ShardRing", "stable_hash"]

#: Points each shard owns on the ring.
REPLICAS = 64


def stable_hash(key: str) -> int:
    """A process-stable 64-bit hash of ``key`` (BLAKE2b, first 8 bytes)."""
    digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash ring mapping link names to shard indexes.

    >>> ring = ShardRing(4)
    >>> ring.shard_of("LBL-ANL") == ring.shard_of("LBL-ANL")
    True

    Instances are immutable after construction and safe to share across
    threads.  Two rings built with the same ``shards`` agree
    exactly — including rings built in different processes, which is the
    whole point.
    """

    __slots__ = ("shards", "_points", "_owners")

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(REPLICAS):
                points.append((stable_hash(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_of(self, link: str) -> int:
        """The shard index owning ``link``."""
        if self.shards == 1:
            return 0
        index = bisect.bisect(self._points, stable_hash(link))
        if index == len(self._points):
            index = 0  # wrap: past the last point lands on the first
        return self._owners[index]

    def partition(self, links: Iterable[str]) -> Dict[int, List[str]]:
        """Group ``links`` by owning shard (order preserved per shard)."""
        groups: Dict[int, List[str]] = {}
        for link in links:
            groups.setdefault(self.shard_of(link), []).append(link)
        return groups

    def __repr__(self) -> str:
        return f"<ShardRing shards={self.shards} replicas={REPLICAS}>"
