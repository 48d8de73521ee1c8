"""Chaos suite: replay the shipped campaign logs under seeded faults.

The acceptance bar for the resilience subsystem (ISSUE 4): with faults
injected at four distinct boundary sites —

* ``tail.read``      — transient OSErrors while following a live log,
* ``ingest.cache``   — an unreadable sidecar on warm start,
* ``socket.connect`` — refused connections during the server race,
* ``gris.search``    — one wedged GRIS behind the aggregate directory,

the prediction service completes the whole replay without wedging, and
every post-fault answer is **trace-identical** to a fault-free run of
the same schedule.  Faults only cost retries, delays, and stale reads —
never accuracy.

The replay itself is deterministic (fixed clock, seeded injector, byte
-chunked appends), so the comparison is exact equality on the full
result structure, not approximate.
"""

import socket
from pathlib import Path

import pytest

from repro import faults
from repro.data.ingest import cache_path, load_ulm
from repro.faults import FaultInjector
from repro.mds import GIIS, Entry
from repro.obs import get_registry
from repro.service import LogFollower, PredictionService, ServiceServer
from repro.client import ServiceClient
from repro.units import MB

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix domain sockets unavailable"
)

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
LOGS = ["aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm"]
SPECS = ["C-AVG15", "AVG5", "C-MED15"]
SIZES = [10 * MB, 100 * MB]
NOW = 10_000_000.0
CHUNK = 1500  # tail appends arrive in raw byte chunks, not whole lines


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    faults.uninstall()


class StateGRIS:
    """A GRIS-shaped source answering from live service state."""

    def __init__(self, name, service, link):
        self.name = name
        self.service = service
        self.link = link
        self.calls = 0

    def search(self, now, flt=None, base=None):
        self.calls += 1
        return [Entry(
            f"ln={self.link}, o=grid",
            {"records": [str(len(self.service.history(self.link)))]},
        )]


def _stage(workdir):
    """Copy the shipped logs into ``workdir`` split into warm + tail parts.

    The first half of each log is the "already on disk at startup" warm
    file; the second half is returned as raw bytes to be appended live.
    Sidecars are created here, *before* any injector is installed, so
    the cache fault fires against a previously good cache.
    """
    workdir.mkdir(parents=True)
    tails = {}
    for name in LOGS:
        data = (DATA_DIR / name).read_bytes()
        lines = data.splitlines(keepends=True)
        half = len(lines) // 2
        target = workdir / name
        target.write_bytes(b"".join(lines[:half]))
        tails[name] = b"".join(lines[half:])
        load_ulm(target)  # warm the sidecar
        assert cache_path(target).exists()
    return tails


def _replay(workdir, injector):
    """One full ingest → tail → serve → directory pass; returns its trace."""
    tails = _stage(workdir)
    service = PredictionService(clock=lambda: NOW)
    result = {}

    with faults.injected(injector or FaultInjector()):
        # 1. Warm start through the sidecar cache (site: ingest.cache).
        for name in LOGS:
            service.ingest_ulm(workdir / name)

        # 2. Live appends through the tail follower (site: tail.read).
        followers = {}
        for name in LOGS:
            follower = LogFollower(workdir / name, service.observe_batch)
            follower.seek_to_end()
            followers[name] = follower
        for name in LOGS:
            path, body = workdir / name, tails[name]
            for start in range(0, len(body), CHUNK):
                with path.open("ab") as handle:
                    handle.write(body[start:start + CHUNK])
                followers[name].poll()
        # Drain: a follower that hit an injected error catches up here.
        for follower in followers.values():
            for _ in range(8):
                if follower.poll() == 0:
                    break
        result["records"] = {
            name: followers[name].records for name in LOGS
        }
        result["history"] = {
            link: len(service.history(link)) for link in sorted(service.links())
        }

        # 3. Queries over the socket (site: socket.connect).
        answers = []
        with ServiceServer(service, workdir / "repro.sock") as server, \
                ServiceClient(server.socket_path) as client:
            for link in sorted(service.links()):
                for spec in SPECS:
                    for size in SIZES:
                        response = client.request({
                            "op": "predict", "link": link, "size": size,
                            "spec": spec, "now": NOW,
                        })
                        answers.append({
                            key: response[key]
                            for key in ("ok", "link", "spec", "value",
                                        "version", "history_length", "degraded")
                        })
        result["answers"] = answers

        # 4. The aggregate directory with one wedged source (site:
        #    gris.search).  Searches are driven on simulation time; the
        #    faulted source recovers once its breaker's half-open probe
        #    succeeds after ``breaker_reset``.
        giis = GIIS("top", breaker_failures=3, breaker_reset=60.0)
        for name in LOGS:
            link = Path(name).stem
            giis.register(StateGRIS(f"gris-{link}", service, link), now=0.0)
        searches = []
        for now in (0.0, 1.0, 2.0, 3.0, 10.0, 63.5, 64.0):
            entries = giis.search(now)
            searches.append([(e.dn, e.get("records")) for e in entries])
        result["searches"] = searches

    return result


def test_chaos_replay_is_trace_identical_to_a_fault_free_run(tmp_path):
    baseline = _replay(tmp_path / "clean", None)

    injector = FaultInjector(seed=1234)
    injector.inject("tail.read", error=OSError, message="disk hiccup", times=3)
    injector.inject("ingest.cache", error=IOError, message="bad sidecar", times=1)
    injector.inject("socket.connect", error=ConnectionRefusedError, times=2)
    # ``after=1``: the wedged source answers once (seeding the GIIS's
    # last-good cache), then times out three straight searches — enough
    # to trip its breaker.  The replay's history is complete before the
    # directory phase, so stale-but-served answers match live ones.
    injector.inject("gris.search", error=TimeoutError, times=3, after=1,
                    source="gris-aug-ISI-ANL")

    quarantined_before = get_registry().counter(
        "ingest_cache_quarantined", "").value
    retries_before = get_registry().counter("resilience_retries", "").value
    stale_before = get_registry().counter("mds_giis_stale_served", "").value

    chaotic = _replay(tmp_path / "chaos", injector)

    # Every scheduled fault actually landed — at all four sites.
    assert injector.fired == {
        "tail.read": 3,
        "ingest.cache": 1,
        "socket.connect": 2,
        "gris.search": 3,
    }
    assert injector.pending() == []

    # The system degraded visibly while it absorbed them ...
    registry = get_registry()
    assert registry.counter("ingest_cache_quarantined", "").value \
        == quarantined_before + 1
    assert registry.counter("resilience_retries", "").value >= retries_before + 2
    assert registry.counter("mds_giis_stale_served", "").value > stale_before

    # ... and the unreadable sidecar was quarantined, then rebuilt clean.
    first_log = tmp_path / "chaos" / LOGS[0]
    quarantined = first_log.parent / (cache_path(first_log).name + ".quarantined")
    assert quarantined.exists()
    assert cache_path(first_log).exists()  # rewritten after the reparse

    # The payoff: identical records, histories, predictions, and
    # directory answers.  Faults cost retries and stale reads, never
    # a different number.
    assert chaotic == baseline


def test_chaos_replay_baseline_is_itself_deterministic(tmp_path):
    assert _replay(tmp_path / "one", None) == _replay(tmp_path / "two", None)


@pytest.mark.exhaustive
def test_chaos_replay_december_logs(tmp_path, monkeypatch):
    """The same invariant holds on the December campaign logs."""
    monkeypatch.setitem(globals(), "LOGS",
                        ["dec-LBL-ANL.ulm", "dec-ISI-ANL.ulm"])
    baseline = _replay(tmp_path / "clean", None)
    injector = FaultInjector(seed=99)
    injector.inject("tail.read", error=OSError, times=2)
    injector.inject("ingest.cache", error=IOError, times=1)
    injector.inject("socket.connect", error=ConnectionRefusedError, times=1)
    injector.inject("gris.search", error=TimeoutError, times=3, after=1,
                    source="gris-dec-LBL-ANL")
    chaotic = _replay(tmp_path / "chaos", injector)
    assert injector.total_fired() == 7
    assert chaotic == baseline
