"""Topology: sites, links, routed paths."""

import pytest

from repro.net import ConstantLoad, Link, Path, Site, Topology


def make_topology():
    topo = Topology()
    for name in ("A", "B", "C"):
        topo.add_site(Site(name=name, domain="test.org", address=f"10.0.0.{ord(name)}"))
    topo.add_link(Link(a="A", b="B", capacity=10e6, rtt=0.05))
    topo.add_link(Link(a="B", b="C", capacity=5e6, rtt=0.02))
    return topo


class TestSite:
    def test_hostname_defaults_from_domain(self):
        site = Site(name="ANL", domain="anl.gov")
        assert site.hostname == "anl.anl.gov"

    def test_explicit_hostname_kept(self):
        site = Site(name="LBL", domain="lbl.gov", hostname="dpsslx04.lbl.gov")
        assert site.hostname == "dpsslx04.lbl.gov"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Site(name="")


class TestLink:
    def test_name_is_sorted(self):
        assert Link(a="Z", b="A", capacity=1e6, rtt=0.01).name == "A-Z"

    def test_available_under_load(self):
        link = Link(a="A", b="B", capacity=10e6, rtt=0.01, load=ConstantLoad(0.4))
        assert link.available(0.0) == pytest.approx(6e6)

    def test_available_clamps_extreme_load(self):
        link = Link(a="A", b="B", capacity=10e6, rtt=0.01, load=ConstantLoad(5.0))
        assert link.available(0.0) == pytest.approx(0.1e6)

    def test_effective_rtt_grows_with_load(self):
        idle = Link(a="A", b="B", capacity=1e6, rtt=0.05, load=ConstantLoad(0.0))
        busy = Link(a="A", b="B", capacity=1e6, rtt=0.05, load=ConstantLoad(0.8))
        assert idle.effective_rtt(0.0) == pytest.approx(0.05)
        assert busy.effective_rtt(0.0) > idle.effective_rtt(0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(capacity=0, rtt=0.01),
        dict(capacity=1e6, rtt=0),
        dict(capacity=-1, rtt=0.01),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            Link(a="A", b="B", **kwargs)


class TestTopology:
    def test_duplicate_site_rejected(self):
        topo = make_topology()
        with pytest.raises(ValueError):
            topo.add_site(Site(name="A"))

    def test_duplicate_link_rejected(self):
        topo = make_topology()
        (first,) = topo.path("A", "B").links
        for a, b in (("B", "A"), ("A", "B")):      # either order is the same link
            with pytest.raises(ValueError, match="duplicate link A-B"):
                topo.add_link(Link(a=a, b=b, capacity=1e6, rtt=0.001))
        assert topo.path("A", "B").links == topo.path("B", "A").links == (first,)

    def test_link_to_unknown_site_rejected(self):
        topo = make_topology()
        with pytest.raises(ValueError):
            topo.add_link(Link(a="A", b="Z", capacity=1e6, rtt=0.01))

    def test_unknown_site_lookup(self):
        with pytest.raises(KeyError):
            make_topology().site("Z")

    def test_direct_path(self):
        path = make_topology().path("A", "B")
        assert [l.name for l in path.links] == ["A-B"]
        assert path.rtt == pytest.approx(0.05)

    def test_multi_hop_path_aggregates(self):
        path = make_topology().path("A", "C")
        assert len(path.links) == 2
        assert path.rtt == pytest.approx(0.07)
        assert path.bottleneck_capacity == pytest.approx(5e6)

    def test_route_is_shortest_by_rtt_not_by_hops(self):
        topo = make_topology()                      # A-B-C: 0.05 + 0.02 s
        topo.add_link(Link(a="C", b="A", capacity=1e9, rtt=0.08))
        path = topo.path("A", "C")
        assert [l.name for l in path.links] == ["A-B", "B-C"]
        assert path.rtt == pytest.approx(0.07)
        assert [l.name for l in topo.path("C", "A").links] == ["B-C", "A-B"]
        topo.add_site(Site(name="D"))
        topo.add_link(Link(a="D", b="C", capacity=1e9, rtt=0.01))
        assert [l.name for l in topo.path("A", "D").links] == ["A-B", "B-C", "C-D"]
        # A direct link faster than the two hops is the route.
        topo = make_topology()
        direct = topo.add_link(Link(a="C", b="A", capacity=1e9, rtt=0.06))
        assert topo.path("A", "C").links == (direct,)

    def test_same_site_path_rejected(self):
        with pytest.raises(ValueError):
            make_topology().path("A", "A")

    def test_disconnected_sites_raise(self):
        topo = make_topology()
        topo.add_site(Site(name="D"))
        with pytest.raises(ValueError, match="no path from 'A' to 'D'"):
            topo.path("A", "D")


class TestPath:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path(src=Site(name="A"), dst=Site(name="B"), links=())

    def test_path_available_is_bottleneck(self):
        topo = Topology()
        for name in "AB":
            topo.add_site(Site(name=name))
        topo.add_link(Link(a="A", b="B", capacity=10e6, rtt=0.01, load=ConstantLoad(0.5)))
        path = topo.path("A", "B")
        assert path.available(0.0) == pytest.approx(5e6)

    def test_mean_available_averages_over_window(self):
        class Ramp:
            def utilization(self, t):
                return min(t / 100.0, 0.9)

        topo = Topology()
        for name in "AB":
            topo.add_site(Site(name=name))
        topo.add_link(Link(a="A", b="B", capacity=10e6, rtt=0.01, load=Ramp()))
        path = topo.path("A", "B")
        instant = path.available(0.0)
        mean = path.mean_available(0.0, 100.0)
        assert mean < instant  # load rises over the window
        assert path.mean_available(0.0, 0.0) == instant
