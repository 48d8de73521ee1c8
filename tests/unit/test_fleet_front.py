"""The fleet front tier against in-process shard workers.

Real :class:`~repro.service.server.ServiceServer` instances (threaded,
Unix sockets) stand in for the supervised subprocesses — same wire
surface, none of the spawn latency — so these tests exercise exactly
the front's own logic: routing, fan-out/reassembly, merging, admission
control, breaker failover, and last-good degraded answers.
"""

import socket
import time

import pytest

from repro.client import ServiceClient, ServiceError
from repro.fleet.front import FleetFront
from repro.resilience import RetryPolicy
from repro.service import PredictionService, ServiceServer
from repro.units import MB
from repro.wire import rank_key
from tests.conftest import make_record

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix domain sockets unavailable"
)

NOW = 10_000_000.0
FAIL_FAST = RetryPolicy(max_attempts=1)


def make_workers(tmp_path, count, **options):
    """``count`` in-process worker servers plus their socket paths;
    ``options`` go to each worker's ``PredictionService``."""
    services, servers, sockets = [], [], []
    for shard in range(count):
        service = PredictionService(clock=lambda: NOW, **options)
        server = ServiceServer(service, tmp_path / f"w{shard}.sock")
        server.start()
        services.append(service)
        servers.append(server)
        sockets.append(server.socket_path)
    return services, servers, sockets


@pytest.fixture
def fleet2(tmp_path):
    """Two live workers behind a front, fallback on, fast breaker."""
    services, servers, sockets = make_workers(tmp_path, 2)
    front = FleetFront(
        sockets,
        fallback=True,
        call_timeout=2.0,
        heartbeat_interval=0.1,
        heartbeat_timeout=0.5,
        breaker_reset=0.2,
    ).start()
    try:
        yield services, servers, front
    finally:
        front.stop()
        for server in servers:
            server.stop()


def fleet_client(front, **kwargs):
    host, port = front.address
    kwargs.setdefault("retry", FAIL_FAST)
    return ServiceClient(f"{host}:{port}", timeout=5.0, **kwargs)


def seed_links(front, client, count=8, observations=3):
    """Observe ``count`` links through the front; returns their names."""
    links = [f"SITE{i}-DEST" for i in range(count)]
    for link in links:
        for k in range(observations):
            client.observe(link, 10 * MB, 1000.0 + 100 * k, 1001.0 + 100 * k)
    return links


def kill_worker(front, servers, shard):
    """Down an in-process worker as a real crash would look to the front.

    ``ServiceServer.stop()`` closes the listener and unlinks the socket,
    but connection threads the front already pooled keep serving (in a
    real kill the OS closes them).  Resetting the shard's pool finishes
    the simulation: the next call dials fresh and gets refused.  A
    heartbeat in flight keeps its connection through a reset and pools
    it again afterwards, so reset until no connection is left open.
    """
    servers[shard].stop()
    link = front._links[shard]
    deadline = time.monotonic() + 5.0
    while True:
        link.reset()
        if link._created == 0:
            return
        assert time.monotonic() < deadline, "pooled connections never drained"
        time.sleep(0.01)


def link_on(front, shard, prefix):
    """The first ``<prefix><i>`` name the front's ring places on ``shard``."""
    return next(name for name in (f"{prefix}{i}" for i in range(64))
                if front.ring.shard_of(name) == shard)


def shard_split(front, links):
    """(a link on shard 0's side, a link on the other side) of the ring."""
    groups = front.ring.partition(links)
    assert len(groups) == 2, "test links must land on both shards"
    (s1, l1), (s2, l2) = sorted(groups.items())
    return s1, l1[0], s2, l2[0]


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def test_observe_and_predict_route_to_the_owning_shard(fleet2):
    services, _, front = fleet2
    with fleet_client(front) as client:
        links = seed_links(front, client)
    for link in links:
        owner = front.ring.shard_of(link)
        for shard, service in enumerate(services):
            expected = 3 if shard == owner else 0
            assert service.status()["links"].get(link, {}).get(
                "records", 0) == expected


def test_predict_answers_match_the_worker_directly(fleet2):
    services, _, front = fleet2
    with fleet_client(front) as client:
        [link] = seed_links(front, client, count=1)
        response = client.predict(link, 10 * MB)
        direct = services[front.ring.shard_of(link)].predict(link, 10 * MB)
        assert response["value"] == direct.value
        assert response["ok"] and response["v"] == 1


def test_json_dialect_is_served_too(fleet2):
    _, _, front = fleet2
    with fleet_client(front, binary=False) as client:
        assert client.ping() is True
        client.observe("J-LINK", 10 * MB, 0.0, 1.0)
        assert client.predict("J-LINK", MB)["value"] == pytest.approx(10 * MB)
        assert not client.binary


def test_unknown_op_and_bad_version_answer_in_band(fleet2):
    _, _, front = fleet2
    with fleet_client(front) as client:
        response = client.request({"op": "frobnicate"})
        assert response["error"]["code"] == "unknown_op"
        response = client.request({"op": "ping", "v": 99})
        assert response["error"]["code"] == "unsupported_version"


def test_shard_escape_hatch_addresses_one_worker(fleet2):
    # The ``shard`` passenger field rides OP_JSON in both dialects: no
    # binary struct layout has a slot for it.  A binary predict used to
    # drop it and be hash-routed to the owner, which lacks these rows.
    services, _, front = fleet2
    link = link_on(front, 0, "ELSEWHERE-")
    services[1].observe(link, make_record(size=10 * MB, bandwidth=7 * MB))
    for binary in (False, True):
        with fleet_client(front, binary=binary) as client:
            response = client.request({"op": "status", "shard": 1})
            assert response["ok"] and "fleet" not in response
            response = client.request({"op": "status", "shard": 7})
            assert response["error"]["code"] == "bad_request"
            addressed = client.request(
                {"op": "predict", "shard": 1, "link": link, "size": 10 * MB})
            assert (addressed["value"], addressed["history_length"]) == (7 * MB, 1)
            assert client.predict(link, 10 * MB)["value"] is None  # the owner


# ----------------------------------------------------------------------
# batch fan-out / reassembly
# ----------------------------------------------------------------------
def test_batch_reassembles_cross_shard_items_in_request_order(fleet2):
    _, _, front = fleet2
    with fleet_client(front) as client:
        links = seed_links(front, client)
        items = [{"link": link, "size": (i + 1) * MB}
                 for i, link in enumerate(links)]
        results = client.predict_batch(items)
        assert [r["link"] for r in results] == links
        assert [r["size"] for r in results] == [(i + 1) * MB
                                                for i in range(len(links))]
        assert all(r["ok"] and r["value"] is not None for r in results)


def test_batch_bad_items_fail_in_place_not_the_batch(fleet2):
    _, _, front = fleet2
    with fleet_client(front) as client:
        [link] = seed_links(front, client, count=1)
        results = client.predict_batch([
            {"link": link, "size": MB},
            {"size": MB},                      # no link
            {"link": link, "size": MB},
        ])
        assert results[0]["ok"] and results[2]["ok"]
        assert not results[1]["ok"]
        assert results[1]["error"]["code"] == "bad_request"


# ----------------------------------------------------------------------
# rank merge
# ----------------------------------------------------------------------
def test_rank_merges_across_shards_best_bandwidth_first(fleet2):
    services, _, front = fleet2
    with fleet_client(front) as client:
        links = [f"SITE{i}-DEST" for i in range(6)]
        # Distinct bandwidths, same size class as the query (classified
        # predictors only answer from matching-class history), so the
        # expected global order is exact.
        for i, link in enumerate(links):
            for k in range(3):
                client.observe(link, 10 * MB, 1000.0 + 100 * k,
                               1001.0 + 100 * k, bandwidth=(i + 1) * 10 * MB)
        ranking = client.rank(links + ["UNSEEN-SITE"], 10 * MB)
        assert [r["site"] for r in ranking[:-1]] == list(reversed(links))
        assert ranking[-1]["site"] == "UNSEEN-SITE"
        assert ranking[-1]["predicted_bandwidth"] is None


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_the_front_refuses_what_a_worker_would_never_store(fleet2, binary):
    # The front used to str() what it routed: "SITE0-DEST" as candidates
    # ranked the one-letter links S, I, T, E, ...; [7] ranked link "7";
    # an observe of link 7 was stored on a worker as "7".
    services, _, front = fleet2
    with fleet_client(front, binary=binary) as client:
        seed_links(front, client, count=2)
        for candidates in ("SITE0-DEST", {"SITE0-DEST": 1}, ["SITE0-DEST", 7]):
            response = client.request(
                {"op": "rank", "candidates": candidates, "size": 10 * MB})
            assert response["error"]["code"] == "bad_request", response
        for hostile in ({"link": 7}, {"link": ["SITE0-DEST"]},
                        {"link": "SITE0-DEST", "size": 1.5}):
            observe = {"op": "observe", "link": "SITE0-DEST", "size": 10 * MB,
                       "start": 5000.0, "end": 5001.0, **hostile}
            assert client.request(observe)["error"]["code"] == "bad_request"
            predict = {"op": "predict", "link": "SITE0-DEST", "size": 10 * MB,
                       **hostile}
            assert client.request(predict)["error"]["code"] == "bad_request"
        for hostile in ({"start": True}, {"start": "1000", "end": "1001"},
                        {"bandwidth": True}, {"bandwidth": "5e6"}, {"source_ip": [1]},
                        {"file_name": {}}, {"volume": {}}):
            observe = {"op": "observe", "link": "SITE0-DEST", "size": 10 * MB,
                       "start": 5000.0, "end": 5001.0, **hostile}
            assert client.request(observe)["error"]["code"] == "bad_request", hostile
        response = client.request({"op": "rank", "candidates": ["SITE0-DEST"],
                                   "size": 10 * MB, "now": float("nan")})
        assert response["error"]["code"] == "bad_request"
    assert sorted(link for s in services for link in s.links()) == [
        "SITE0-DEST", "SITE1-DEST"]
    assert [len(s.history(link)) for s in services for link in s.links()] == [3, 3]


def test_a_workers_degraded_guess_ranks_after_measured_links(tmp_path):
    # A fallback worker guesses an unmeasured link from *its shard's*
    # links (here 100 MB/s); the guess used to reach the front unmarked
    # and outrank a measured 10 MB/s link on the other shard.
    services, servers, sockets = make_workers(
        tmp_path, 2, degraded_fallback=True)
    front = FleetFront(sockets, fallback=True, call_timeout=2.0).start()
    try:
        fast, unmeasured = link_on(front, 0, "FAST-"), link_on(front, 0, "NEW-")
        measured = link_on(front, 1, "SLOW-")
        one = PredictionService(clock=lambda: NOW, degraded_fallback=True)
        for link, bandwidth in ((fast, 100 * MB), (measured, 10 * MB)):
            record = make_record(size=10 * MB, bandwidth=bandwidth)
            one.observe(link, record)
            services[front.ring.shard_of(link)].observe(link, record)
        expected = [r.site for r in one.rank_replicas(
            [unmeasured, measured], 10 * MB, now=NOW)]
        assert expected == [measured, unmeasured]
        for binary in (False, True):
            with fleet_client(front, binary=binary) as client:
                ranking = client.rank([unmeasured, measured], 10 * MB, now=NOW)
            assert [r["site"] for r in ranking] == expected
            assert [r["degraded"] for r in ranking] == [False, True]
    finally:
        front.stop()
        for server in servers:
            server.stop()


@pytest.mark.parametrize("degraded_fallback", [False, True], ids=["plain", "guessing"])
@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_the_front_ranks_as_one_server_does(tmp_path, binary, degraded_fallback):
    # Eight links with equal rows tie under AVG and the default spec; an
    # unmeasured link answers None, or a worker's degraded guess that
    # ties them too; at a far `now` AVG5hr abstains on every measured
    # link.  The front used to break ties by shard (SITE1, SITE7, SITE0,
    # ...) where one server keeps the request's order.
    services, servers, sockets = make_workers(
        tmp_path, 2, degraded_fallback=degraded_fallback)
    front = FleetFront(sockets, fallback=True, call_timeout=2.0,
                       breaker_reset=0.2).start()
    one = PredictionService(clock=lambda: NOW, degraded_fallback=degraded_fallback)
    measured = [f"SITE{i}" for i in range(8)]
    candidates = ["NEW3", "SITE5", "SITE1", "NEW0", "SITE7", "SITE1", "SITE0",
                  "NEW2", "SITE3", "SITE6", "NEW1", "SITE2", "SITE4"]
    try:
        for names in (measured, ["NEW0", "NEW1", "NEW2", "NEW3"]):
            assert {front.ring.shard_of(name) for name in names} == {0, 1}
        for link in measured:
            for k in range(3):
                # A whole-number bandwidth keeps every mean of means exact,
                # so each shard's guess is bit-equal to one server's.
                record = make_record(start=1000.0 + 100 * k, size=10 * MB,
                                     bandwidth=10 * MB)
                one.observe(link, record)
                services[front.ring.shard_of(link)].observe(link, record)
        with fleet_client(front, binary=binary) as client:
            for spec, now in (("AVG", None), (None, None), ("AVG5hr", 10 * NOW)):
                expected = [(r.site, r.predicted_bandwidth, r.degraded) for r in
                            one.rank_replicas(candidates, 10 * MB, spec=spec, now=now)]
                ranking = client.rank(candidates, 10 * MB, spec=spec, now=now)
                assert [(r["site"], r["predicted_bandwidth"], r["degraded"])
                        for r in ranking] == expected, (spec, now)
            # One shard down: its candidates rank from the front's
            # last-good answers (some have one, some not) by the same key,
            # ties in request order.
            for link in candidates[:7]:
                client.predict(link, 10 * MB, spec="AVG")
            kill_worker(front, servers, 0)
            ranking = client.rank(candidates, 10 * MB, spec="AVG")
        unique = list(dict.fromkeys(candidates))
        assert sorted(r["site"] for r in ranking) == sorted(unique)
        assert ranking == sorted(ranking, key=lambda r: (
            *rank_key(r["predicted_bandwidth"], r["degraded"]), unique.index(r["site"])))
        assert any(r["degraded"] and r["predicted_bandwidth"] for r in ranking)
    finally:
        front.stop()
        for server in servers:
            server.stop()


def test_a_repeated_candidate_ranks_once_with_its_shard_down(fleet2):
    services, servers, front = fleet2
    with fleet_client(front) as client:
        links = seed_links(front, client)
        shard, down, _, up = shard_split(front, links)
        client.predict(down, 10 * MB)  # a last-good answer to fall back on
        assert [r["site"] for r in client.rank([down, down, up], 10 * MB)] == [down, up]
        kill_worker(front, servers, shard)
        ranking = client.rank([down, down, up], 10 * MB)
    assert [(r["site"], r["degraded"]) for r in ranking] == [(up, False), (down, True)]


# ----------------------------------------------------------------------
# status aggregation
# ----------------------------------------------------------------------
def test_status_sums_workers_and_reports_fleet_health(fleet2):
    _, _, front = fleet2
    with fleet_client(front) as client:
        links = seed_links(front, client)
        client.predict(links[0], MB)
        status = client.status()
        assert status["link_count"] == len(links)
        assert status["ingested"] == 3 * len(links)
        assert status["predicts"] >= 1
        fleet = status["fleet"]
        assert fleet["workers"] == 2 and fleet["fallback"] is True
        assert [s["shard"] for s in fleet["shards"]] == [0, 1]
        assert all(s["up"] for s in fleet["shards"])
        assert all(s["breaker"]["state"] == "closed"
                   for s in fleet["shards"])


def test_a_request_no_frame_can_carry_is_the_senders_mistake(fleet2):
    # A JSON client may name a link longer than a frame's string field
    # holds (65,535 bytes); the front cannot forward it.  That is a
    # bad_request — it used to count as a failure of the shard, so bad
    # input could walk a healthy worker's breaker open.
    services, _, front = fleet2
    long_link = "L" * 70_000
    shard = front.ring.shard_of(long_link)
    link = next(name for name in (f"SITE{i}-DEST" for i in range(64))
                if front.ring.shard_of(name) == shard)
    unavailable = front_counter("fleet_unavailable")
    with fleet_client(front, binary=False) as client:
        client.observe(link, 10 * MB, 1000.0, 1001.0)
        for _ in range(50):
            refused = client.request(
                {"op": "predict", "link": long_link, "size": MB})
            assert refused["error"]["code"] == "bad_request"
            assert "65535" in refused["error"]["message"]
        # The shard is as healthy as it was, its pool and admission
        # count as they were, and it answers the next request.
        breaker = front._links[shard].breaker.status()
        assert (breaker["state"], breaker["trips"]) == ("closed", 0)
        assert breaker["consecutive_failures"] == 0
        assert front._links[shard].pending == 0
        assert front_counter("fleet_unavailable") == unavailable
        assert client.predict(link, MB)["ok"]
        assert client.status()["fleet"]["shards"][shard]["up"]
        # The envelope is the one the worker itself gives a request it
        # cannot act on (a JSON line reaches it at any length).
        with ServiceClient(front._links[shard].socket_path, binary=False,
                           retry=FAIL_FAST) as direct:
            malformed = direct.request({"op": "predict", "link": link})
        assert malformed["error"]["code"] == "bad_request"
        assert {k: type(v) for k, v in refused.items()} == \
            {k: type(v) for k, v in malformed.items()}
        assert refused["ok"] is False and refused["v"] == malformed["v"] == 1
        assert set(refused["error"]) == set(malformed["error"])


def front_counter(name):
    from repro.obs import get_registry

    return get_registry().counter(name, "").value


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_admission_bound_sheds_load_as_overloaded(tmp_path):
    services, servers, sockets = make_workers(tmp_path, 1)
    front = FleetFront(sockets, max_pending=0).start()  # reject everything
    try:
        with fleet_client(front) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.predict("ANY-LINK", MB)
            assert excinfo.value.code == "overloaded"
            # overloaded is NOT retried: a single fail-fast attempt is
            # indistinguishable, so exercise the default policy too.
        with fleet_client(front, retry=None) as client:
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.predict("ANY-LINK", MB)
            assert excinfo.value.code == "overloaded"
            assert time.monotonic() - started < 1.0  # no retry backoff burned
    finally:
        front.stop()
        for server in servers:
            server.stop()


# ----------------------------------------------------------------------
# failover
# ----------------------------------------------------------------------
def test_down_shard_answers_unavailable_without_fallback(tmp_path):
    services, servers, sockets = make_workers(tmp_path, 2)
    front = FleetFront(
        sockets, fallback=False, call_timeout=1.0,
        heartbeat_interval=0.1, breaker_reset=0.2,
    ).start()
    try:
        with fleet_client(front) as client:
            links = seed_links(front, client)
            for link in links:
                assert client.predict(link, MB)["value"] is not None
            assert all(entry["ok"] for entry in client.predict_batch(
                [{"link": link, "size": MB} for link in links]))
            # Nothing reads a last-good answer here, so none is kept.
            assert client.status()["fleet"]["last_good_entries"] == 0
            s1, link_down, s2, link_up = shard_split(front, links)
            kill_worker(front, servers, s1)
            with pytest.raises(ServiceError) as excinfo:
                client.predict(link_down, MB)
            assert excinfo.value.code == "unavailable"
            # The healthy shard keeps answering the whole time.
            assert client.predict(link_up, MB)["value"] is not None
            # Rank across a down shard fails whole (no stale answers
            # without the operator opting in via fallback).
            with pytest.raises(ServiceError) as excinfo:
                client.rank([link_down, link_up], MB)
            assert excinfo.value.code == "unavailable"
    finally:
        front.stop()
        for server in servers:
            server.stop()


def test_fallback_serves_last_good_degraded_answers(fleet2):
    services, servers, front = fleet2
    with fleet_client(front) as client:
        links = seed_links(front, client)
        for link in links:
            assert not client.predict(link, MB)["degraded"]  # warm last-good
        s1, link_down, s2, link_up = shard_split(front, links)
        kill_worker(front, servers, s1)
        response = client.predict(link_down, MB)
        assert response["degraded"] is True and response["value"] is not None
        assert response["cached"] is True
        # Batch: down-shard items degrade in place, the rest answer live.
        results = client.predict_batch(
            [{"link": link_down, "size": MB}, {"link": link_up, "size": MB}]
        )
        assert results[0]["ok"] and results[0]["degraded"] is True
        assert results[1]["ok"] and not results[1]["degraded"]
        # Rank: degraded candidates sort after every confident one.
        ranking = client.rank([link_down, link_up], MB)
        assert [r["site"] for r in ranking] == [link_up, link_down]
        assert ranking[1].get("degraded") is True
        # Status still answers, flagging the dead shard.
        fleet_section = client.status()["fleet"]
        assert not fleet_section["shards"][s1]["up"]
        assert fleet_section["shards"][s2]["up"]


def test_breaker_recovers_after_the_worker_returns(tmp_path):
    services, servers, sockets = make_workers(tmp_path, 1)
    front = FleetFront(
        sockets, call_timeout=1.0, heartbeat_interval=0.05,
        breaker_threshold=2, breaker_reset=0.15,
    ).start()
    try:
        with fleet_client(front) as client:
            client.observe("L-A", 10 * MB, 0.0, 1.0)
            kill_worker(front, servers, 0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    client.predict("L-A", MB)
                except ServiceError as exc:
                    assert exc.code == "unavailable"
                    # The heartbeat may race the state open <-> half-open;
                    # either way the breaker has tripped.
                    if front._links[0].breaker.state() != "closed":
                        break
                time.sleep(0.02)
            else:
                pytest.fail("breaker never opened")
            # Same socket path, new server: the heartbeat probes the
            # half-open breaker shut again without any client traffic.
            revived = ServiceServer(services[0], sockets[0])
            revived.start()
            try:
                deadline = time.monotonic() + 5.0
                response = None
                while time.monotonic() < deadline:
                    try:
                        response = client.predict("L-A", MB)
                        break
                    except ServiceError:
                        time.sleep(0.05)
                assert response is not None and response["value"] is not None
            finally:
                revived.stop()
    finally:
        front.stop()
        for server in servers:
            server.stop()
