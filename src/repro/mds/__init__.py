"""MDS-2 style information service (Section 5).

The delivery infrastructure that makes log data and predictions
discoverable:

* :mod:`repro.mds.ldif` — LDIF entries (DN + attributes) and (de)serialization.
* :mod:`repro.mds.schema` — object classes / attribute definitions for the
  GridFTP performance data (reference [16]).
* :mod:`repro.mds.query` — an LDAP search-filter parser and matcher
  (``(&(objectclass=GridFTPPerf)(avgrdbandwidth>=5000))``).
* :mod:`repro.mds.registration` — the soft-state (TTL) registration
  protocol GRISes use to announce themselves to a GIIS.
* :mod:`repro.mds.gris` — the Grid Resource Information Service: hosts
  information providers, caches their output, answers inquiries.
* :mod:`repro.mds.giis` — the Grid Index Information Service: aggregates
  registered GRISes into one searchable directory.
* :mod:`repro.mds.provider` — the GridFTP performance information
  providers: filter the transfer log, classify entries, compute summary
  statistics and predictions, publish them as LDIF (Figure 6's
  ``minrdbandwidth`` / ``avgrdbandwidthtenmbrange`` output) — from a
  log rescan, from running summaries, or from a warm prediction
  service's columns, through one entry renderer.
"""

from repro.mds.ldif import Entry, LdifError, format_entries, parse_ldif
from repro.mds.schema import (
    Attribute,
    ObjectClass,
    SchemaError,
    GRIDFTP_PERF,
    validate_entry,
)
from repro.mds.query import FilterError, parse_filter
from repro.mds.registration import Registration, SoftStateRegistry
from repro.mds.gris import GRIS, InformationProvider
from repro.mds.giis import GIIS
from repro.mds.provider import (
    GridFTPInfoProvider,
    IncrementalGridFTPInfoProvider,
    ProviderReport,
    ServicePerfProvider,
)
from repro.mds.broker import MdsRankedReplica, MdsReplicaBroker

__all__ = [
    "Entry",
    "LdifError",
    "format_entries",
    "parse_ldif",
    "Attribute",
    "ObjectClass",
    "SchemaError",
    "GRIDFTP_PERF",
    "validate_entry",
    "FilterError",
    "parse_filter",
    "Registration",
    "SoftStateRegistry",
    "GRIS",
    "InformationProvider",
    "GIIS",
    "GridFTPInfoProvider",
    "IncrementalGridFTPInfoProvider",
    "ProviderReport",
    "ServicePerfProvider",
    "MdsRankedReplica",
    "MdsReplicaBroker",
]
