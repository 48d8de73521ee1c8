"""What the front's event loop used to give for free, as tests.

The front is plain blocking code on one thread per client connection,
so its shared state — each shard's pool, admission count and breaker,
the last-good memory, the ``fleet_requests`` counter — is touched from
many threads at once.  These tests drive it that way.
"""

import socket
import sys
import threading
import time

import pytest

from repro.client import ServiceError
from repro.fleet.front import FleetFront
from repro.obs import get_registry, get_span_exporter, span
from repro.units import MB
from tests.conftest import make_record
from tests.unit.test_fleet_front import NOW, fleet_client, make_workers

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix domain sockets unavailable"
)

THREADS, REQUESTS = 8, 200
STATIC = [f"STATIC{i}-DEST" for i in range(8)]


def wait_until(condition, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def test_concurrent_clients_share_the_front_without_losing_anything(tmp_path):
    services, servers, sockets = make_workers(tmp_path, 2)
    front = FleetFront(sockets, pool_size=2, heartbeat_interval=0.05).start()
    # Reads go to links nobody writes during the run, so each has one
    # right answer: the owning worker's own.
    expected = {}
    for i, link in enumerate(STATIC):
        owner = services[front.ring.shard_of(link)]
        owner.ingest_records(link, [
            make_record(start=1000.0 + 100 * k, size=10 * MB,
                        bandwidth=(i + 1) * MB) for k in range(3)])
        expected[link] = owner.predict(link, 10 * MB, now=NOW).value
    assert len(front.ring.partition(STATIC)) == 2
    best_first = sorted(STATIC, key=lambda link: -expected[link])
    fleet_requests = get_registry().counter("fleet_requests")
    before = fleet_requests.value
    acked = {}          # link -> versions acked, in order (one writer each)
    failures = []

    def run_client(t):
        own = f"T{t}-DEST"
        acked[own] = []
        try:
            with fleet_client(front, binary=t % 2 == 0) as client:
                for i in range(REQUESTS):
                    link = STATIC[(t + i) % len(STATIC)]
                    kind = i % 4
                    if kind == 0:
                        answer = client.predict(link, 10 * MB, now=NOW)
                        assert answer["value"] == expected[link], (link, answer)
                    elif kind == 1:
                        acked[own].append(client.observe(
                            own, 10 * MB, 1000.0 + 100 * i, 1001.0 + 100 * i))
                    elif kind == 2:
                        results = client.predict_batch(
                            [(name, 10 * MB) for name in STATIC], now=NOW)
                        assert [(r["link"], r["value"]) for r in results] == [
                            (name, expected[name]) for name in STATIC]
                    else:
                        ranking = client.rank(STATIC, 10 * MB, now=NOW)
                        assert [(r["site"], r["predicted_bandwidth"])
                                for r in ranking] == [
                            (name, expected[name]) for name in best_first]
        except BaseException as exc:  # reported by the main thread
            failures.append((t, exc))

    threads = [threading.Thread(target=run_client, args=(t,), daemon=True)
               for t in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # force interleavings a lost update needs
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 120.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in threads), "a client hung"
        assert failures == []
        assert fleet_requests.value - before == THREADS * REQUESTS
        for link, versions in acked.items():
            # One writer per link: acks count up from 1 with no gap, and
            # the worker's final version is the last one acked.
            assert versions == list(range(1, REQUESTS // 4 + 1)), link
            owner = services[front.ring.shard_of(link)]
            assert owner.predict(link, 10 * MB, now=NOW).version == len(versions)
        for link in front._links:
            # A heartbeat may be in flight; no client call is.
            wait_until(lambda: link.pending == 0, "a call never released")
            assert 0 <= link._created <= link.pool_size
            assert len(link._idle) == link._created
    finally:
        sys.setswitchinterval(interval)
        front.stop()
        for server in servers:
            server.stop()


def test_a_full_admission_bound_sheds_a_concurrent_call_at_once(tmp_path):
    services, servers, sockets = make_workers(tmp_path, 1)
    entered, release = threading.Event(), threading.Event()
    real_predict = services[0].predict

    def stalled_predict(*args, **kwargs):
        entered.set()
        assert release.wait(10.0)
        return real_predict(*args, **kwargs)

    services[0].predict = stalled_predict
    # One slot, and (after the first) no heartbeat competing for it.
    front = FleetFront(sockets, max_pending=1, heartbeat_interval=3600.0).start()
    first = {}
    try:
        link = front._links[0]
        wait_until(lambda: link._idle and link.pending == 0, "no first heartbeat")

        def stalled_call():
            with fleet_client(front) as client:
                first.update(client.predict("ANY-LINK", MB))

        caller = threading.Thread(target=stalled_call, daemon=True)
        caller.start()
        assert entered.wait(5.0), "the first call never reached the worker"
        assert link.pending == 1
        started = time.monotonic()
        with fleet_client(front) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.predict("ANY-LINK", MB)
        assert excinfo.value.code == "overloaded"
        assert time.monotonic() - started < 1.0     # shed, not queued
        release.set()
        caller.join(timeout=5.0)
        assert not caller.is_alive() and first["ok"]
        assert link.pending == 0
    finally:
        release.set()
        front.stop()
        for server in servers:
            server.stop()


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_a_traced_predict_is_one_chain_client_front_worker(tmp_path, binary):
    services, servers, sockets = make_workers(tmp_path, 1)
    front = FleetFront(sockets).start()
    exporter = get_span_exporter()
    try:
        with fleet_client(front, binary=binary) as client:
            client.observe("T-LINK", 10 * MB, 0.0, 1.0)
            exporter.clear()
            with span("client.request") as client_span:
                assert client.predict("T-LINK", MB)["ok"]
        (front_span,) = exporter.spans(name="front.predict")
        (worker_span,) = exporter.spans(name="server.predict")
        assert front_span.parent_id == client_span.span_id
        assert worker_span.parent_id == front_span.span_id
        assert (front_span.trace_id == worker_span.trace_id
                == client_span.trace_id)
    finally:
        front.stop()
        for server in servers:
            server.stop()
