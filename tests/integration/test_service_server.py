"""The Unix-socket server, end to end (JSON-lines dialect).

The binary dialect and the cross-protocol battery live in
``test_wire_protocol.py``.
"""

import socket

import pytest

from repro.client import ServiceClient, ServiceError
from repro.service import PredictionService, ServiceServer, handle_request
from repro.units import MB
from tests.conftest import make_record

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix domain sockets unavailable"
)


@pytest.fixture
def service():
    service = PredictionService(clock=lambda: 10_000_000.0)
    service.ingest_records(
        "LBL-ANL", [make_record(start=1000.0 + 100 * i) for i in range(30)]
    )
    return service


@pytest.fixture
def server(service, tmp_path):
    with ServiceServer(service, tmp_path / "repro.sock") as server:
        yield server


@pytest.fixture
def client(server):
    with ServiceClient(server.socket_path) as client:
        yield client


def test_ping_roundtrip(client):
    assert client.request({"op": "ping"}) == {"ok": True, "v": 1, "pong": True}
    assert client.ping() is True


def test_predict_over_socket_matches_direct_call(client, service):
    response = client.predict("LBL-ANL", 100 * MB, now=5000.0)
    assert response["ok"] and response["v"] == 1
    direct = service.predict("LBL-ANL", 100 * MB, now=5000.0)
    assert response["value"] == direct.value
    assert response["version"] == direct.version


def test_rank_over_socket(client):
    ranking = client.rank(["LBL-ANL", "NOWHERE"], 100 * MB)
    assert [r["site"] for r in ranking] == ["LBL-ANL", "NOWHERE"]


def test_status_metrics_trace_over_socket(client, server, service):
    status = client.status()
    assert status["links"]["LBL-ANL"]["records"] == 30
    metrics = client.request({"op": "metrics"})
    assert metrics["metrics"]["service_ingested_records"]["value"] == 30
    service.trace.emit("server.test.service", probe=2)
    events = client.request({"op": "events", "kind": "server.test.service"})
    assert [e["probe"] for e in events["events"]] == [2]
    # The service's ring is the events op's default scope; there is no
    # second op for it, on either dialect.
    for binary in (False, True):
        with ServiceClient(server.socket_path, binary=binary) as other:
            response = other.request({"op": "trace"})
        assert response["error"] == {
            "code": "unknown_op", "message": "unknown op 'trace'"}


def test_metrics_text_format_over_socket(client):
    response = client.request({"op": "metrics", "format": "text"})
    assert response["ok"]
    text = response["text"]
    assert "# TYPE service_ingested_records counter" in text
    assert "service_ingested_records 30" in text


def test_spans_op_serves_the_process_exporter(client):
    from repro.obs.tracing import span

    with span("server.test", link="LBL-ANL"):
        pass
    response = client.request({"op": "spans", "name": "server.test", "limit": 1})
    assert response["ok"]
    (exported,) = response["spans"]
    assert exported["name"] == "server.test"
    assert exported["status"] == "ok"
    assert exported["attributes"] == {"link": "LBL-ANL"}
    assert exported["duration"] >= 0


def test_events_op_scopes(client, service):
    from repro.obs.events import get_event_bus

    for probe in range(3):
        get_event_bus().emit("server.test.global", probe=probe)
        service.trace.emit("server.test.service", probe=probe)
    service_events = client.request(
        {"op": "events", "kind": "server.test.service"})
    assert service_events["ok"]
    assert [e["probe"] for e in service_events["events"]] == [0, 1, 2]

    global_events = client.request(
        {"op": "events", "scope": "global", "kind": "server.test.global"}
    )
    assert [e["probe"] for e in global_events["events"]] == [0, 1, 2]

    merged = client.request({"op": "events", "scope": "all", "limit": 5})
    assert merged["ok"] and len(merged["events"]) == 5
    times = [e["time"] for e in merged["events"]]
    assert times == sorted(times)

    bad = client.request({"op": "events", "scope": "sideways"})
    assert not bad["ok"] and "scope" in bad["error"]["message"]


def test_concurrent_clients(server):
    import threading

    results = []
    lock = threading.Lock()

    def run_client():
        with ServiceClient(server.socket_path) as client:
            response = client.predict("LBL-ANL", 100 * MB, now=5000.0)
        with lock:
            results.append(response["value"])

    threads = [threading.Thread(target=run_client) for _ in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


# ----------------------------------------------------------------------
# the versioned envelope and normalized errors
# ----------------------------------------------------------------------
def test_errors_come_back_in_band_and_normalized(client, service):
    response = client.request({"op": "warp"})
    assert response == {
        "ok": False, "v": 1,
        "error": {"code": "unknown_op", "message": "unknown op 'warp'"},
    }
    response = client.request({"op": "predict", "link": "LBL-ANL"})
    assert not response["ok"]
    assert response["error"]["code"] == "bad_request"
    assert "size" in response["error"]["message"]
    # handle_request is the same dispatch the socket uses.
    assert handle_request(service, {"op": "warp"})["ok"] is False


def test_typed_helpers_raise_service_error(client):
    with pytest.raises(ServiceError) as err:
        client.call("warp")
    assert err.value.code == "unknown_op"


def test_future_protocol_version_is_refused_in_band(client):
    response = client.request({"op": "ping", "v": 2})
    assert not response["ok"]
    assert response["error"]["code"] == "unsupported_version"
    # The connection is still usable afterwards.
    assert client.ping() is True


def test_bad_protocol_version_is_a_bad_request(client):
    for v in (0, -1, True, "one"):
        response = client.request({"op": "ping", "v": v})
        assert not response["ok"], v
        assert response["error"]["code"] == "bad_request", v


def test_stop_removes_the_socket(service, tmp_path):
    path = tmp_path / "gone.sock"
    server = ServiceServer(service, path).start()
    assert path.exists()
    server.stop()
    assert not path.exists()


# ----------------------------------------------------------------------
# resilience: malformed input, oversized requests, startup races, deadlines
# (the two raw-socket cases take a Target and run again against a fleet
# front: test_wire_protocol.py::test_the_front_answers_like_the_worker)
# ----------------------------------------------------------------------
def test_malformed_json_keeps_the_connection_alive(endpoint):
    import json as jsonlib

    sock, rfile = endpoint.connect()
    with sock, endpoint.counting("json") as moved:
        sock.sendall(b"{this is not json}\n")
        bad = jsonlib.loads(rfile.readline())
        assert not bad["ok"] and bad["error"]["code"] == "bad_request"
        # Same connection, same thread: a valid request still answers.
        sock.sendall(b'{"op": "ping"}\n')
        assert jsonlib.loads(rfile.readline()) == {
            "ok": True, "v": 1, "pong": True}
    # The malformed line was answered, so it counts as a request too.
    assert moved == {"requests": 2, "bad": 1}


def test_oversized_request_answers_in_band_then_closes(endpoint):
    import json as jsonlib

    from repro.endpoint import MAX_REQUEST_BYTES

    sock, rfile = endpoint.connect()
    with sock, endpoint.counting("json") as moved:
        # One byte past the bound and no newline: the server must answer
        # from what it has, not wait for a line end that may never come.
        sock.sendall(b'{"op": "ping", "pad": "' + b"x" * (MAX_REQUEST_BYTES - 22))
        response = jsonlib.loads(rfile.readline())
        assert not response["ok"]
        assert response["error"]["code"] == "oversized_request"
        assert rfile.read(1) == b""  # closed after answering
    assert moved == {"requests": 0, "bad": 1}


def test_client_retries_through_a_startup_race(service, tmp_path):
    import threading

    socket_path = tmp_path / "late.sock"
    server = ServiceServer(service, socket_path)
    starter = threading.Timer(0.2, server.start)
    starter.start()
    try:
        # The socket file does not exist yet; the default connect retry
        # policy bridges the gap.
        with ServiceClient(socket_path) as client:
            assert client.ping() is True
    finally:
        starter.join()
        server.stop()


def test_client_fail_fast_policy_still_raises(tmp_path):
    from repro.resilience import RetryPolicy

    with ServiceClient(tmp_path / "never.sock",
                       retry=RetryPolicy(max_attempts=1)) as client:
        with pytest.raises(OSError):
            client.ping()


def test_injected_connect_refusals_are_retried(server):
    from repro import faults
    from repro.faults import FaultInjector

    injector = FaultInjector().inject(
        "socket.connect", error=ConnectionRefusedError, times=2)
    with faults.injected(injector):
        with ServiceClient(server.socket_path) as client:
            assert client.ping() is True
    assert injector.fired["socket.connect"] == 2


def test_client_survives_a_server_restart_between_requests(service, tmp_path):
    path = tmp_path / "restart.sock"
    server = ServiceServer(service, path).start()
    try:
        with ServiceClient(path) as client:
            assert client.ping() is True
            server.stop()
            server = ServiceServer(service, path).start()
            # The reused connection is stale; the client reconnects once.
            assert client.ping() is True
    finally:
        server.stop()


def test_expired_deadline_answers_in_band(service):
    from repro.resilience import Deadline

    clock = iter([0.0, 100.0, 200.0, 300.0]).__next__
    deadline = Deadline(10.0, clock=clock)  # expires before the first check
    response = handle_request(service, {"op": "status"}, deadline=deadline)
    assert not response["ok"]
    assert response["error"]["code"] == "deadline_exceeded"


def test_tiny_request_timeout_cuts_requests_over_the_socket(service, tmp_path):
    with ServiceServer(service, tmp_path / "t.sock",
                       request_timeout=1e-9) as server:
        with ServiceClient(server.socket_path) as client:
            response = client.request({"op": "status"})
    assert not response["ok"]
    assert response["error"]["code"] == "deadline_exceeded"


# ----------------------------------------------------------------------
# the observe op (remote ingest; what a fleet front routes to workers)
# ----------------------------------------------------------------------
def test_observe_over_socket_updates_history_and_acks_a_version(client, service):
    before = service.status()["links"].get("NEW-LINK", {}).get("records", 0)
    assert before == 0
    v1 = client.observe("NEW-LINK", 100 * MB, 1000.0, 1010.0)
    v2 = client.observe("NEW-LINK", 100 * MB, 2000.0, 2010.0)
    assert v2 == v1 + 1
    assert service.status()["links"]["NEW-LINK"]["records"] == 2
    response = client.predict("NEW-LINK", 100 * MB, now=3000.0)
    assert response["value"] == pytest.approx(10 * MB)


def test_observe_over_both_dialects_agrees(service, tmp_path):
    with ServiceServer(service, tmp_path / "obs.sock") as server:
        with ServiceClient(server.socket_path, binary=False) as json_client:
            vj = json_client.observe("DIAL-LINK", 10 * MB, 0.0, 1.0)
        with ServiceClient(server.socket_path, binary=True) as bin_client:
            vb = bin_client.observe(
                "DIAL-LINK", 10 * MB, 10.0, 11.0,
                source_ip="10.0.0.1", file_name="/f", volume="/v", offset=3,
            )
    assert vb == vj + 1
    assert service.status()["links"]["DIAL-LINK"]["records"] == 2


def test_observe_rejects_garbage_in_band(client):
    response = client.request({"op": "observe", "link": "X"})  # no size/times
    assert not response["ok"]
    assert response["error"]["code"] == "bad_request"
    response = client.request({
        "op": "observe", "link": "X", "size": 10, "start": 0.0, "end": 1.0,
        "operation": "teleport",
    })
    assert not response["ok"]
    assert response["error"]["code"] == "bad_request"


def test_observed_records_persist_through_a_durable_store(tmp_path):
    from repro.store import LinkStore

    store = LinkStore(tmp_path / "state")
    service = PredictionService(store=store, clock=lambda: 10_000_000.0)
    with ServiceServer(service, tmp_path / "d.sock") as server:
        with ServiceClient(server.socket_path) as client:
            acked = client.observe("DUR-LINK", 10 * MB, 0.0, 1.0)
    store.close()
    # A cold process (no checkpoint was written: simulating a crash
    # right after the ack) still revives the observation from the WAL.
    revived = LinkStore(tmp_path / "state")
    cold = PredictionService(store=revived, clock=lambda: 10_000_000.0)
    assert cold.predict("DUR-LINK", 10 * MB).history_length == acked
    revived.close()


# ----------------------------------------------------------------------
# accept-loop hardening: fd exhaustion backs off instead of dying
# ----------------------------------------------------------------------
def test_accept_loop_survives_fd_exhaustion(service, tmp_path):
    # The accept loop is repro.endpoint's, so this covers the front too.
    import errno
    import socketserver

    from repro.obs import get_registry

    with ServiceServer(service, tmp_path / "fd.sock") as server:
        inner = server._server
        counter = get_registry().counter("server_accept_errors")
        before = counter.value
        real_get_request = socketserver.TCPServer.get_request
        remaining = [3]

        def starved(self):
            if remaining[0] > 0:
                remaining[0] -= 1
                raise OSError(errno.EMFILE, "Too many open files")
            return real_get_request(self)

        socketserver.TCPServer.get_request = starved
        try:
            # Each failed accept backs off and is swallowed by
            # serve_forever; the next real connection still answers.
            with ServiceClient(server.socket_path) as probe:
                assert probe.ping() is True
        finally:
            socketserver.TCPServer.get_request = real_get_request
        assert remaining[0] == 0
        assert counter.value == before + 3
        assert inner._accept_delay == 0.0  # reset by the first success
