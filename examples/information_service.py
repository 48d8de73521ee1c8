#!/usr/bin/env python
"""The delivery infrastructure (Section 5): provider -> GRIS -> GIIS -> user.

Builds the Figure 5 topology: a GridFTP performance information provider
at each replica site, registered with that site's GRIS; both GRISes
register (soft-state) with an organization GIIS; a user queries the GIIS
with LDAP filters and reads LDIF — including the Figure 6 attributes and
per-class predictions.

Run:  python examples/information_service.py
"""

from repro.core.predictors import paper_predictors
from repro.mds import GIIS, GRIS, GridFTPInfoProvider, format_entries
from repro.workload import AUG_2001, build_testbed, run_month

# ----------------------------------------------------------------------
# Generate traffic so the logs have content.
# ----------------------------------------------------------------------
print("Regenerating campaign logs...")
outputs = run_month(seed=1)
bed = build_testbed(seed=1, start_time=AUG_2001)  # for site metadata
now = max(o.log.latest().end_time for o in outputs.values()) + 60.0

# ----------------------------------------------------------------------
# One provider + GRIS per replica site; everything registers with a GIIS.
# ----------------------------------------------------------------------
giis = GIIS("giis-datagrid", default_ttl=3600.0)
for output in outputs.values():
    site = bed.sites[output.server_site]
    provider = GridFTPInfoProvider(
        log=output.log,
        site=site,
        url=bed.servers[output.server_site].url,
        predictor=paper_predictors()["AVG15"],
    )
    gris = GRIS(f"gris-{site.name.lower()}")
    gris.add_provider("gridftp-perf", provider)
    giis.register(gris, now=now)
    print(f"  registered {gris.name} with {giis.name}")

# ----------------------------------------------------------------------
# User inquiries.
# ----------------------------------------------------------------------
print("\n--- all GridFTP performance entries ---------------------------")
entries = giis.search(now=now, flt="(objectclass=GridFTPPerf)")
print(format_entries(entries))

print("--- sites with avg read bandwidth >= 5000 KB/s ----------------")
fast = giis.search(
    now=now, flt="(&(objectclass=GridFTPPerf)(avgrdbandwidth>=5000))"
)
for entry in fast:
    print(f"  {entry.first('hostname')}: avg {entry.first('avgrdbandwidth')}, "
          f"predicted 1GB-class {entry.first('predictedrdbandwidth1gbrange')}")

print("--- a remote broker deciding from directory entries alone -----")
from repro.mds import MdsReplicaBroker
from repro.storage import ReplicaCatalog
from repro.units import GB

catalog = ReplicaCatalog()
for output in outputs.values():
    catalog.register("lfn://dataset", output.server_site, 1 * GB)
broker = MdsReplicaBroker(
    catalog, giis,
    {o.server_site: bed.sites[o.server_site].hostname for o in outputs.values()},
)
for ranked in broker.rank("lfn://dataset", now):
    print(f"  {ranked.site}: {ranked.predicted_bandwidth / 1e6:.1f} MB/s "
          f"(from {ranked.source_attribute}) via {ranked.gridftp_url}")

print("\n--- soft state: without renewal, registrations expire ---------")
later = now + 2 * 3600.0
print(f"  live sources now:   {giis.registered(now)}")
print(f"  live sources +2 h:  {giis.registered(later)} (TTL was 1 h)")
