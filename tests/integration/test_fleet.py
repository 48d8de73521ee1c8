"""The sharded fleet end to end: real worker subprocesses.

Covers the supervised-process half the unit tests fake: spawning,
readiness, cross-process consistent hashing, durable per-shard state
surviving a graceful rolling restart, and the ``repro fleet`` status
surface with live pids.
"""

import socket
import time

import pytest

from repro.client import ServiceClient
from repro.fleet import FleetRunner
from repro.resilience import RetryPolicy
from repro.units import MB

pytestmark = [
    pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"),
        reason="unix domain sockets unavailable"),
    pytest.mark.slow,
]

NOW = 10_000_000.0
FAIL_FAST = RetryPolicy(max_attempts=1)
LINKS = [f"SITE{i}-ANL" for i in range(8)]


def make_fleet(tmp_path, workers=2, **kw):
    kw.setdefault("heartbeat_interval", 0.2)
    kw.setdefault("call_timeout", 5.0)
    kw.setdefault("stable_after", 0.5)
    return FleetRunner(workers, str(tmp_path / "fleet"), **kw)


def connect(fleet, **kw):
    host, port = fleet.address
    kw.setdefault("retry", FAIL_FAST)
    return ServiceClient(f"{host}:{port}", timeout=10.0, **kw)


def seed(client, links=LINKS, observations=3):
    for link in links:
        for k in range(observations):
            client.observe(link, 10 * MB, 1000.0 + 100.0 * k,
                           1001.0 + 100.0 * k)


def test_fleet_serves_all_ops_across_real_workers(tmp_path):
    with make_fleet(tmp_path, workers=2) as fleet:
        with connect(fleet) as client:
            assert client.ping() is True
            seed(client)
            for link in LINKS:
                response = client.predict(link, 10 * MB, now=NOW)
                assert response["value"] == pytest.approx(10 * MB)
                assert response["history_length"] == 3
            results = client.predict_batch(
                [{"link": link, "size": 10 * MB} for link in LINKS], now=NOW)
            assert [r["link"] for r in results] == LINKS
            assert all(r["ok"] for r in results)
            ranking = client.rank(LINKS, 10 * MB, now=NOW)
            assert len(ranking) == len(LINKS)
            status = client.status()
            assert status["link_count"] == len(LINKS)
            assert status["ingested"] == 3 * len(LINKS)
            fleet_section = status["fleet"]
            assert fleet_section["workers"] == 2
            for shard in fleet_section["shards"]:
                assert shard["up"] and shard["alive"]
                assert isinstance(shard["pid"], int)
                assert shard["restarts"] == 0


def test_links_land_on_the_ring_owner_across_processes(tmp_path):
    # The front (this process) and the workers (subprocesses) must agree
    # on placement: each link's records live on exactly the predicted
    # shard's store directory after a checkpointing shutdown.
    with make_fleet(tmp_path, workers=2) as fleet:
        ring = fleet.ring
        with connect(fleet) as client:
            seed(client)
            for link in LINKS:
                owner = ring.shard_of(link)
                response = client.request(
                    {"op": "status", "shard": owner}, )
                assert response["links"][link]["records"] == 3
                other = client.request(
                    {"op": "status", "shard": 1 - owner})
                assert link not in other["links"]


def test_graceful_restart_revives_every_shard_from_its_store(tmp_path):
    state = tmp_path / "fleet"
    with make_fleet(tmp_path, workers=2) as fleet:
        with connect(fleet) as client:
            seed(client)
    # Rolling shutdown checkpointed every shard; a brand-new fleet over
    # the same state dir answers identically with zero re-ingest.
    with make_fleet(tmp_path, workers=2) as fleet:
        with connect(fleet) as client:
            # Revival is lazy (nothing resident until touched), but the
            # store knows everything it holds before any query lands.
            status = client.status()
            assert status["store"]["stored_links"] == len(LINKS)
            for link in LINKS:
                response = client.predict(link, 10 * MB, now=NOW)
                assert response["value"] == pytest.approx(10 * MB)
                assert response["history_length"] == 3
            assert client.status()["link_count"] == len(LINKS)
    assert any((state / "shard-0").iterdir())
    assert any((state / "shard-1").iterdir())


def test_single_worker_fleet_degenerates_cleanly(tmp_path):
    with make_fleet(tmp_path, workers=1) as fleet:
        with connect(fleet) as client:
            seed(client, links=LINKS[:2])
            assert client.predict(LINKS[0], 10 * MB, now=NOW)["value"] \
                == pytest.approx(10 * MB)
            assert client.status()["fleet"]["workers"] == 1


def test_large_batch_through_a_pooled_worker_connection(tmp_path):
    # The front reuses one connection per worker, and the worker reuses
    # one frame buffer per connection: the 1,000 acks must outgrow the
    # buffer the small first answer left behind without killing the
    # worker's connection thread.
    with make_fleet(tmp_path, workers=1) as fleet:
        with connect(fleet, binary=True) as client:
            seed(client, links=LINKS[:1], observations=1)
            items = [(LINKS[k % 4], 10 * MB, 2000.0 + k, 2001.0 + k)
                     for k in range(1000)]
            acks = client.observe_batch(items)
            assert len(acks) == 1000 and all(a["ok"] for a in acks)
            assert client.status()["ingested"] == 1001
