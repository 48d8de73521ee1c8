"""Testbed construction."""

import pytest

from repro.units import GB, MB
from repro.workload import AUG_2001, DEC_2001, PAPER_SIZES, build_testbed


class TestSizes:
    def test_thirteen_paper_sizes(self):
        assert len(PAPER_SIZES) == 13
        assert PAPER_SIZES[0] == 1 * MB
        assert PAPER_SIZES[-1] == 1 * GB

    def test_sizes_sorted_unique(self):
        assert list(PAPER_SIZES) == sorted(set(PAPER_SIZES))

    def test_class_proportions_match_figure7(self, classification):
        """Uniform draws from the 13 sizes give Figure 7's class mix."""
        from collections import Counter

        counts = Counter(classification.classify(s) for s in PAPER_SIZES)
        assert counts["10MB"] == 5   # 1,2,5,10,25 MB
        assert counts["100MB"] == 3  # 50,100,150 MB
        assert counts["500MB"] == 3  # 250,400,500 MB
        assert counts["1GB"] == 2    # 750 MB, 1 GB


class TestBuild:
    def test_sites_and_links(self, testbed):
        assert set(testbed.sites) == {"ANL", "ISI", "LBL"}
        hops = lambda a, b: len(testbed.topology.path(a, b).links)
        assert hops("ANL", "LBL") == 1
        assert hops("ANL", "ISI") == 1
        assert hops("ISI", "LBL") == 2  # no direct link: through ANL

    def test_paths_resolve(self, testbed):
        path = testbed.topology.path("LBL", "ANL")
        assert path.rtt > 0
        assert path.bottleneck_capacity == pytest.approx(155e6 / 8)

    def test_servers_have_standard_files(self, testbed):
        for name, server in testbed.servers.items():
            for size in PAPER_SIZES:
                assert server.volumes[0].has(testbed.data_path(size)), (name, size)

    def test_engine_starts_at_campaign_epoch(self):
        bed = build_testbed(seed=0, start_time=DEC_2001)
        assert bed.engine.now == DEC_2001

    def test_same_seed_same_structure_different_seed_different_loads(self):
        a = build_testbed(seed=0, start_time=AUG_2001)
        b = build_testbed(seed=0, start_time=AUG_2001)
        c = build_testbed(seed=9, start_time=AUG_2001)
        t = AUG_2001 + 3600.0
        link = lambda bed: bed.topology.path("ANL", "LBL").links[0]
        assert link(a).available(t) == link(b).available(t)
        assert link(a).available(t) != link(c).available(t)

    def test_months_differ_for_same_seed(self):
        aug = build_testbed(seed=0, start_time=AUG_2001)
        dec = build_testbed(seed=0, start_time=DEC_2001)
        aug_u = aug.topology.path("ANL", "LBL").links[0].utilization(AUG_2001 + 7200)
        dec_u = dec.topology.path("ANL", "LBL").links[0].utilization(DEC_2001 + 7200)
        assert aug_u != dec_u

    def test_data_path_naming(self, testbed):
        assert testbed.data_path(10 * MB) == "/home/ftp/data/10M"
        assert testbed.data_path(1 * GB) == "/home/ftp/data/1G"

    def test_site_addresses_match_paper(self, testbed):
        # The ANL client host in Figure 3's log.
        assert testbed.sites["ANL"].address == "140.221.65.69"
        assert testbed.sites["LBL"].hostname == "dpsslx04.lbl.gov"


def test_figure3_sample_sweep():
    """Figure 3's sample log: one 10 MB ... 1 GB sweep from LBL to the ANL
    client with 8 streams and 1 MB buffers, bandwidth rising with size."""
    bed = build_testbed(seed=1, start_time=AUG_2001)
    client, server = bed.clients["ANL"], bed.servers["LBL"]
    sizes = {"10M": 10 * MB, "25M": 25 * MB, "50M": 50 * MB, "100M": 100 * MB,
             "250M": 250 * MB, "500M": 500 * MB, "750M": 750 * MB, "1G": 1 * GB}
    for name in sizes:
        outcome = client.get(server, f"/home/ftp/data/{name}",
                             streams=8, buffer=1 * MB)
        bed.engine.run(until=outcome.end_time + 5.0)
    records = server.monitor.log.records()
    assert [r.file_size for r in records] == list(sizes.values())
    for record in records:
        assert (record.streams, record.tcp_buffer) == (8, 1 * MB)
        assert record.volume == "/home/ftp"
    assert records[-1].bandwidth > 1.5 * records[0].bandwidth
