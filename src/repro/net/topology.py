"""Sites, links, and routed paths.

A :class:`Topology` is an undirected graph of :class:`Site` nodes joined by
:class:`Link` edges, held as an adjacency map.  Routing takes the shortest
path by RTT, mirroring the fact that on the paper's testbed (ANL, ISI, LBL
over ESnet) each site pair effectively had one stable route.

Each link owns a background-load model (attached separately, see
:mod:`repro.net.load`); a :class:`Path` aggregates its links' RTTs and
exposes the instantaneous bottleneck availability used by the TCP model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.net.load import ConstantLoad, LoadModel

__all__ = ["Site", "Link", "Path", "Topology"]


@dataclass(frozen=True)
class Site:
    """A testbed site hosting a GridFTP endpoint.

    Attributes
    ----------
    name:
        Short identifier (``"ANL"``).
    domain:
        DNS domain used when rendering LDIF distinguished names.
    address:
        Dotted-quad used in log records' ``Source IP`` field.
    hostname:
        Fully qualified host running the GridFTP server.
    """

    name: str
    domain: str = "example.org"
    address: str = "0.0.0.0"
    hostname: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")
        if not self.hostname:
            object.__setattr__(self, "hostname", f"{self.name.lower()}.{self.domain}")


@dataclass
class Link:
    """An undirected wide-area link.

    Attributes
    ----------
    a, b:
        Endpoint site names.
    capacity:
        Raw capacity in bytes/second.
    rtt:
        One-way-pair round-trip time contribution in seconds.
    load:
        Background utilization model in ``[0, 1)``; defaults to idle.
    """

    a: str
    b: str
    capacity: float
    rtt: float
    load: LoadModel = field(default_factory=lambda: ConstantLoad(0.0))
    #: Queueing-delay inflation: effective RTT grows by this fraction of the
    #: base RTT at full utilization (router queues fill under load).
    queueing_factor: float = 0.6

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.name}: capacity must be positive")
        if self.rtt <= 0:
            raise ValueError(f"link {self.name}: rtt must be positive")
        if self.queueing_factor < 0:
            raise ValueError(f"link {self.name}: queueing_factor must be >= 0")

    @property
    def name(self) -> str:
        """Canonical edge label, endpoint names sorted."""
        return "-".join(sorted((self.a, self.b)))

    def utilization(self, t: float) -> float:
        """Background utilization at ``t``, clamped to [0, 0.99]."""
        return min(max(self.load.utilization(t), 0.0), 0.99)

    def available(self, t: float) -> float:
        """Capacity left for us at time ``t`` (bytes/s), never below 1% of raw."""
        return self.capacity * (1.0 - self.utilization(t))

    def effective_rtt(self, t: float) -> float:
        """RTT including queueing delay under the current load."""
        return self.rtt * (1.0 + self.queueing_factor * self.utilization(t))


@dataclass(frozen=True)
class Path:
    """A routed path between two sites."""

    src: Site
    dst: Site
    links: Tuple[Link, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError(f"path {self.src.name}->{self.dst.name} has no links")

    @property
    def rtt(self) -> float:
        """End-to-end round-trip time: sum of link RTTs (seconds)."""
        return sum(link.rtt for link in self.links)

    @property
    def bottleneck_capacity(self) -> float:
        """Raw capacity of the narrowest link (bytes/s)."""
        return min(link.capacity for link in self.links)

    def available(self, t: float) -> float:
        """Instantaneous bottleneck availability at time ``t`` (bytes/s)."""
        return min(link.available(t) for link in self.links)

    def effective_rtt(self, t: float) -> float:
        """End-to-end RTT including per-link queueing delay at time ``t``."""
        return sum(link.effective_rtt(t) for link in self.links)

    def mean_available(self, t0: float, duration: float) -> float:
        """Average availability at five evenly spaced points of
        ``[t0, t0+duration]``.

        Transfers of a gigabyte last minutes; sampling the load at a few
        points and averaging captures within-transfer load drift without
        simulating packet-level dynamics.
        """
        if duration <= 0:
            return self.available(t0)
        step = duration / 4
        total = 0.0
        for i in range(5):
            total += self.available(t0 + i * step)
        return total / 5


class Topology:
    """The testbed graph: add sites and links, then query routed paths."""

    def __init__(self) -> None:
        self._sites: Dict[str, Site] = {}
        #: site name -> neighbour name -> the link between them.
        self._adjacent: Dict[str, Dict[str, Link]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_site(self, site: Site) -> Site:
        if site.name in self._sites:
            raise ValueError(f"duplicate site {site.name!r}")
        self._sites[site.name] = site
        self._adjacent[site.name] = {}
        return site

    def add_link(self, link: Link) -> Link:
        for end in (link.a, link.b):
            if end not in self._sites:
                raise ValueError(f"link endpoint {end!r} is not a known site")
        if link.b in self._adjacent[link.a]:
            raise ValueError(f"duplicate link {link.name}")
        self._adjacent[link.a][link.b] = self._adjacent[link.b][link.a] = link
        return link

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise KeyError(f"unknown site {name!r}") from None

    def path(self, src: str, dst: str) -> Path:
        """Shortest path by RTT between two sites (Dijkstra).

        Raises
        ------
        KeyError
            If either site is unknown.
        ValueError
            If the sites are the same, or no route joins them.
        """
        source, sink = self.site(src), self.site(dst)
        if src == dst:
            raise ValueError("source and destination are the same site")
        best = {src: 0.0}
        via: Dict[str, Tuple[str, Link]] = {}   # site -> its best route's last hop
        heap = [(0.0, src)]
        while heap:
            rtt, here = heapq.heappop(heap)
            if here == dst:
                break
            if rtt > best[here]:
                continue              # superseded by a shorter route here
            for there, link in self._adjacent[here].items():
                if rtt + link.rtt < best.get(there, math.inf):
                    best[there] = rtt + link.rtt
                    via[there] = (here, link)
                    heapq.heappush(heap, (best[there], there))
        else:
            raise ValueError(f"no path from {src!r} to {dst!r}")
        links: List[Link] = []
        while here != src:
            here, link = via[here]
            links.append(link)
        return Path(src=source, dst=sink, links=tuple(reversed(links)))
