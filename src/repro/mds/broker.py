"""Replica selection through the information service.

:class:`~repro.core.selection.ReplicaBroker` reads site transfer logs
directly — fine inside one administrative domain.  The paper's actual
architecture (Figure 5) is looser: sites publish statistics and
predictions through their GRIS into a GIIS, and *remote* brokers make
decisions from directory inquiries alone, never touching logs.

:class:`MdsReplicaBroker` is that broker.  Given a GIIS (or GRIS — same
inquiry protocol), it:

1. queries ``(objectclass=GridFTPPerf)`` entries;
2. matches each candidate site by hostname or address attribute;
3. reads the class-appropriate ``predictedrdbandwidth<class>range``
   attribute for the file being fetched (falling back to the class
   average, then the overall average — the best information published);
4. ranks candidates by the resulting bandwidth.

The decision quality is bounded by what providers publish — exactly the
trade-off the paper's delivery infrastructure embodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.classification import paper_classification
from repro.core.selection import RankedReplica
from repro.mds.ldif import Entry
from repro.storage.filesystem import ReplicaCatalog
from repro.units import KB
from repro.wire import rank_key

__all__ = ["MdsRankedReplica", "MdsReplicaBroker"]


def _parse_kb(value: Optional[str]) -> Optional[float]:
    """Figure 6's '6062K' rendering -> bytes/s."""
    if value is None:
        return None
    try:
        return float(value.removesuffix("K").removesuffix("k")) * KB
    except ValueError:
        return None


@dataclass(frozen=True)
class MdsRankedReplica(RankedReplica):
    """A candidate ranked from directory information (``history_length``
    is 0: this broker reads no log)."""

    hostname: Optional[str] = None
    gridftp_url: Optional[str] = None
    source_attribute: Optional[str] = None  # which attribute supplied the value


class MdsReplicaBroker:
    """Ranks replicas from GIIS/GRIS inquiries (no log access).

    Parameters
    ----------
    catalog:
        Logical name -> replica site names.
    directory:
        Anything with ``search(now, flt=...) -> List[Entry]`` (a GIIS or
        a GRIS).
    site_hostnames:
        Site name -> hostname, used to match catalog sites to directory
        entries (the catalog speaks site names, the directory DNs).

    The paper's size classes select which per-class attribute to read.
    """

    def __init__(
        self,
        catalog: ReplicaCatalog,
        directory,
        site_hostnames: Dict[str, str],
    ):
        self.catalog = catalog
        self.directory = directory
        self.site_hostnames = dict(site_hostnames)
        self.classification = paper_classification()

    # ------------------------------------------------------------------
    # directory access
    # ------------------------------------------------------------------
    def _entries_by_hostname(self, now: float) -> Dict[str, Entry]:
        entries = self.directory.search(now, flt="(objectclass=GridFTPPerf)")
        out: Dict[str, Entry] = {}
        for entry in entries:
            hostname = entry.first("hostname")
            if hostname and hostname not in out:
                out[hostname] = entry
        return out

    def _predicted_from(self, entry: Entry, size: int) -> tuple:
        """(bandwidth, attribute) read from the most specific attribute."""
        label = self.classification.classify(size).lower()
        for attribute in (
            f"predictedrdbandwidth{label}range",
            f"avgrdbandwidth{label}range",
            "avgrdbandwidth",
        ):
            bandwidth = _parse_kb(entry.first(attribute))
            if bandwidth is not None:
                return bandwidth, attribute
        return None, None

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------
    def rank(self, logical_name: str, now: float) -> List[MdsRankedReplica]:
        """Candidates best-first, from directory information only."""
        size = self.catalog.size_of(logical_name)
        entries = self._entries_by_hostname(now)
        ranked: List[MdsRankedReplica] = []
        for site in self.catalog.locations(logical_name):
            hostname = self.site_hostnames.get(site)
            entry = entries.get(hostname) if hostname else None
            bandwidth = attribute = url = None
            if entry is not None:
                bandwidth, attribute = self._predicted_from(entry, size)
                url = entry.first("gridftpurl")
            ranked.append(MdsRankedReplica(
                site=site, predicted_bandwidth=bandwidth, history_length=0,
                hostname=hostname, gridftp_url=url, source_attribute=attribute,
            ))
        return sorted(ranked, key=lambda r: rank_key(r.predicted_bandwidth))

    def select(self, logical_name: str, now: float) -> MdsRankedReplica:
        return self.rank(logical_name, now)[0]
