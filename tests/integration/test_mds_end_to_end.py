"""Integration: campaign logs -> provider -> GRIS -> GIIS -> user inquiry."""

import pytest

from repro.core.predictors import classified_predictors
from repro.mds import (
    GIIS,
    GRIS,
    GridFTPInfoProvider,
    format_entries,
    parse_ldif,
    validate_entry,
)


@pytest.fixture(scope="module")
def directory(august_outputs):
    """A GIIS aggregating one GRIS per replica site, as in Figure 5."""
    giis = GIIS("giis-grid", default_ttl=3600.0)
    now = 0.0
    sites = {}
    from repro.workload import build_testbed, AUG_2001

    bed = build_testbed(seed=1, start_time=AUG_2001)
    for link, output in august_outputs.items():
        site_name = output.server_site
        site = bed.sites[site_name]
        provider = GridFTPInfoProvider(
            log=output.log,
            site=site,
            url=f"gsiftp://{site.hostname}:61000",
            predictor=classified_predictors()["C-AVG15"].base,
        )
        gris = GRIS(f"gris-{site_name.lower()}")
        gris.add_provider("gridftp", provider)
        giis.register(gris, now=now)
        sites[site_name] = site
    return giis, sites


class TestDirectory:
    def test_inquiry_finds_all_sites(self, directory):
        giis, sites = directory
        entries = giis.search(now=10.0, flt="(objectclass=GridFTPPerf)")
        assert len(entries) == len(sites)

    def test_entries_validate_against_schema(self, directory):
        giis, _ = directory
        for entry in giis.search(now=10.0):
            validate_entry(entry)

    def test_selection_style_query(self, directory):
        """A broker-style inquiry: sites with decent average read bandwidth."""
        giis, _ = directory
        fast = giis.search(
            now=10.0, flt="(&(objectclass=GridFTPPerf)(avgrdbandwidth>=1000))"
        )
        assert len(fast) >= 1

    def test_entries_carry_per_class_predictions(self, directory):
        giis, _ = directory
        for entry in giis.search(now=10.0):
            assert entry.has("predictedrdbandwidth1gbrange")
            assert entry.has("avgrdbandwidth10mbrange")

    def test_lbl_entry_carries_the_figure6_fragment(self, directory):
        """Figure 6's attributes, in its ``6062K`` rendering."""
        giis, _ = directory
        entry, = giis.search(now=10.0, flt="(hostname=dpsslx04.lbl.gov)")
        assert entry.first("cn") == "131.243.2.91"
        assert entry.first("gridftpurl") == "gsiftp://dpsslx04.lbl.gov:61000"
        kb = {}
        for attr in ("minrdbandwidth", "maxrdbandwidth", "avgrdbandwidth",
                     "avgrdbandwidth10mbrange"):
            value = entry.first(attr)
            assert value is not None and value.endswith("K"), attr
            kb[attr] = float(value[:-1])
        assert kb["minrdbandwidth"] <= kb["avgrdbandwidth"] <= kb["maxrdbandwidth"]

    def test_ldif_round_trip_through_text(self, directory):
        """What a remote user actually receives: LDIF text."""
        giis, _ = directory
        entries = giis.search(now=10.0)
        text = format_entries(entries)
        assert parse_ldif(text) == entries

    def test_expiry_removes_site(self, directory):
        giis, sites = directory
        live_now = giis.search(now=10.0)
        assert len(live_now) == len(sites)
        assert giis.search(now=10_000.0) == []  # ttl 3600 lapsed, no renewals


class TestIncrementalProviderLive:
    def test_incremental_provider_tracks_live_log_through_gris(self, testbed):
        """Records appended mid-session surface in the next uncached
        inquiry: the provider re-reads the live log on each one."""
        from repro.mds import GRIS
        from repro.units import MB

        server = testbed.servers["LBL"]
        provider = GridFTPInfoProvider(
            log=server.monitor.log, site=server.site, url=server.url
        )
        gris = GRIS("gris-lbl", cache_ttl=0.0)  # always fresh
        gris.add_provider("gridftp", provider)

        client = testbed.clients["ANL"]
        assert gris.search(now=testbed.engine.now) == []

        client.get(server, testbed.data_path(100 * MB), streams=8, buffer=1 * MB)
        entry = gris.search(now=testbed.engine.now)[0]
        assert entry.first("numtransfers") == "1"

        client.get(server, testbed.data_path(500 * MB), streams=8, buffer=1 * MB)
        entry = gris.search(now=testbed.engine.now)[0]
        assert entry.first("numtransfers") == "2"
        assert entry.has("avgrdbandwidth100mbrange")
        assert entry.has("avgrdbandwidth500mbrange")


class TestProviderLatency:
    def test_700_entry_log_processed_fast(self, august_outputs):
        """Section 5.1: ~700 entries filtered, classified, and predicted in
        1-2 s with 2001-era shell scripts; our pipeline must beat that."""
        output = august_outputs["LBL-ANL"]
        provider = GridFTPInfoProvider(
            log=output.log,
            site=__import__("repro.net", fromlist=["Site"]).Site(
                name="LBL", domain="lbl.gov"
            ),
            url="gsiftp://x:61000",
        )
        entry, report = provider.report(now=1e12)
        assert entry is not None
        assert report.total_seconds < 2.0
