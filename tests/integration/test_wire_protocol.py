"""Cross-protocol battery: JSON-lines and binary frames, one server.

The redesign's contract: the two dialects are *the same API* — same
requests, same responses, byte-for-byte identical payloads (modulo the
measured ``latency_seconds``) — and a broken binary client gets its
errors in-band without taking the connection thread down.
"""

import socket

import pytest

from repro import wire
from repro.client import ServiceClient, ServiceError
from repro.obs import get_registry
from repro.service import PredictionService, ServiceServer
from repro.units import MB
from tests.conftest import make_record
from tests.integration import test_service_server as json_cases

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix domain sockets unavailable"
)

NOW = 10_000_000.0


@pytest.fixture
def service():
    service = PredictionService(clock=lambda: NOW)
    for j, link in enumerate(("LBL-ANL", "ISI-ANL")):
        service.ingest_records(
            link,
            [make_record(start=1000.0 + 100 * i + j, size=(50 + 7 * i) * MB)
             for i in range(30)],
        )
    return service


@pytest.fixture
def server(service, tmp_path):
    with ServiceServer(service, tmp_path / "repro.sock") as server:
        yield server


BATTERY = [
    {"op": "ping"},
    {"op": "predict", "link": "LBL-ANL", "size": 100 * MB, "now": NOW},
    {"op": "predict", "link": "LBL-ANL", "size": 600 * MB,
     "spec": "SIZE", "now": NOW},
    {"op": "predict", "link": "NOWHERE", "size": 100 * MB},
    {"op": "rank", "candidates": ["LBL-ANL", "ISI-ANL", "NOWHERE"],
     "size": 1000 * MB, "now": NOW},
    {"op": "predict_batch", "now": NOW, "items": [
        {"link": "LBL-ANL", "size": 10 * MB},
        {"link": "ISI-ANL", "size": 500 * MB, "spec": "C-MED"},
        {"link": "NOWHERE", "size": 100 * MB},
    ]},
    {"op": "status"},
    {"op": "predict", "link": "LBL-ANL"},           # bad_request
    {"op": "warp"},                                 # unknown_op
    {"op": "ping", "v": 99},                        # unsupported_version
]


def normalize(obj):
    """Strip the measured timing so payloads compare deterministically."""
    if isinstance(obj, dict):
        return {
            k: ("<t>" if k == "latency_seconds" else normalize(v))
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [normalize(v) for v in obj]
    return obj


def test_json_and_binary_answer_identical_payloads(server):
    # Two fresh services would dodge cache effects; instead run the
    # battery twice on the *same* server so both passes see identical
    # (warmed) cache state — the second pass is the comparison.
    with ServiceClient(server.socket_path) as client:
        for req in BATTERY:
            client.request(dict(req))
    with ServiceClient(server.socket_path) as json_client, \
            ServiceClient(server.socket_path, binary=True) as bin_client:
        for req in BATTERY:
            via_json = json_client.request(dict(req))
            via_binary = bin_client.request(dict(req))
            assert normalize(via_json) == normalize(via_binary), req


def test_both_protocols_interleave_on_one_server(server):
    with ServiceClient(server.socket_path) as json_client, \
            ServiceClient(server.socket_path, binary=True) as bin_client:
        for _ in range(3):
            assert json_client.ping() is True
            assert bin_client.ping() is True
        a = json_client.predict("LBL-ANL", 100 * MB, now=NOW)
        b = bin_client.predict("LBL-ANL", 100 * MB, now=NOW)
        assert a["value"] == b["value"]


def test_binary_client_full_helper_surface(server, service):
    with ServiceClient(server.socket_path, binary=True) as client:
        assert client.ping() is True
        p = client.predict("LBL-ANL", 100 * MB, now=NOW)
        assert p["value"] == service.predict("LBL-ANL", 100 * MB, now=NOW).value
        results = client.predict_batch(
            [("LBL-ANL", 10 * MB), ("ISI-ANL", 500 * MB)], now=NOW
        )
        assert len(results) == 2 and all(r["ok"] for r in results)
        ranking = client.rank(["LBL-ANL", "ISI-ANL"], 1000 * MB, now=NOW)
        assert len(ranking) == 2
        assert client.status()["links"]["LBL-ANL"]["records"] == 30


def test_batch_mid_batch_errors_are_per_item(server):
    with ServiceClient(server.socket_path, binary=True) as client:
        response = client.request({"op": "predict_batch", "now": NOW, "items": [
            {"link": "LBL-ANL", "size": 100 * MB},
            {"link": "LBL-ANL"},                          # missing size
            {"link": "LBL-ANL", "size": 1, "spec": "WARP"},  # unknown spec
            {"link": "NOWHERE", "size": 100 * MB},        # unknown link
            {"link": "ISI-ANL", "size": 100 * MB},
        ]})
    assert response["ok"] and response["count"] == 5
    ok0, bad1, bad2, unknown3, ok4 = response["results"]
    assert ok0["ok"] and ok0["value"] is not None
    assert not bad1["ok"] and bad1["error"]["code"] == "bad_request"
    assert "item 1" in bad1["error"]["message"]
    assert not bad2["ok"] and "item 2" in bad2["error"]["message"]
    # An unknown link is an *answer* (no prediction), not an error —
    # exactly what a single predict for it returns.
    assert unknown3["ok"] and unknown3["value"] is None
    assert unknown3["history_length"] == 0
    assert ok4["ok"] and ok4["value"] is not None


# ----------------------------------------------------------------------
# broken binary clients: errors in-band, connection thread survives.
# Each case takes a Target (tests/integration/conftest.py): it runs here
# against the worker and, below, again against a fleet front.
# ----------------------------------------------------------------------
def read_response(rfile):
    op, payload = wire.read_frame(rfile)
    return op, wire.decode_response(op, payload)


def test_corrupt_payload_answers_in_band_and_keeps_the_connection(endpoint):
    sock, rfile = endpoint.connect()
    writer = wire.FrameWriter()
    try:
        good = bytes(writer.encode_request(
            {"op": "predict", "link": "LBL-ANL", "size": 100 * MB, "now": NOW}
        ))
        # Rewrite the header to truncate the payload mid-string: the
        # frame boundary holds, only the payload is garbage.
        header = wire.HEADER.pack(
            wire.MAGIC, wire.FRAME_VERSION, wire.OP_PREDICT, 5)
        with endpoint.counting("binary") as moved:
            sock.sendall(header + good[wire.HEADER.size: wire.HEADER.size + 5])
            op, error = read_response(rfile)
            assert op == wire.OP_ERROR
            assert error["error"]["code"] == "bad_frame"
            # Same connection: a well-formed frame still answers.
            sock.sendall(writer.encode_request({"op": "ping"}))
            assert read_response(rfile)[1] == {"ok": True, "v": 1, "pong": True}
        assert moved == {"requests": 1, "bad": 1}
    finally:
        sock.close()


def test_a_large_answer_after_a_small_one_keeps_the_connection(endpoint):
    # No client-side reconnect to hide behind: the server's per-connection
    # frame buffer must grow past its 4 KiB start while the loop still
    # holds the previous (ping) answer's view.
    for i in range(150):  # one status row per link
        endpoint.service.ingest_records(
            f"SITE{i}-ANL", [make_record(start=1000.0 + i)])
    sock, rfile = endpoint.connect()
    writer = wire.FrameWriter()
    try:
        sock.sendall(writer.encode_request({"op": "ping"}))
        assert read_response(rfile)[1]["pong"] is True
        sock.sendall(writer.encode_request({"op": "status"}))
        op, payload = wire.read_frame(rfile)
        assert len(payload) > 4096
        assert wire.decode_response(op, payload)["ok"] is True
    finally:
        sock.close()


def test_bad_magic_answers_in_band_then_closes(endpoint):
    sock, rfile = endpoint.connect()
    try:
        # First byte 0xA5 routes to the binary loop; the *second* frame
        # starts with garbage the loop cannot resync past.
        with endpoint.counting("binary") as moved:
            sock.sendall(wire.FrameWriter().encode_request({"op": "ping"}))
            assert read_response(rfile)[1]["ok"]
            sock.sendall(b"\xa5\x00garbagegarbage")
            error = read_response(rfile)[1]
            assert not error["ok"] and error["error"]["code"] == "bad_frame"
            assert rfile.read(1) == b""  # server closed after answering
        assert moved == {"requests": 1, "bad": 1}
    finally:
        sock.close()


def test_truncated_frame_answers_in_band_when_possible(endpoint):
    sock, rfile = endpoint.connect()
    try:
        frame = bytes(wire.FrameWriter().encode_request({"op": "ping"}))
        with endpoint.counting("binary") as moved:
            sock.sendall(frame[:-2])
            sock.shutdown(socket.SHUT_WR)  # half-close mid-frame
            error = read_response(rfile)[1]
            assert not error["ok"] and error["error"]["code"] == "bad_frame"
            assert rfile.read(1) == b""
        assert moved == {"requests": 0, "bad": 1}
    finally:
        sock.close()


def test_oversized_frame_is_refused_in_band(endpoint):
    sock, rfile = endpoint.connect()
    try:
        header = wire.HEADER.pack(wire.MAGIC, wire.FRAME_VERSION,
                                  wire.OP_PING, wire.MAX_FRAME_BYTES + 1)
        with endpoint.counting("binary") as moved:
            sock.sendall(header)
            error = read_response(rfile)[1]
            assert not error["ok"]
            assert error["error"]["code"] == "oversized_request"
            assert rfile.read(1) == b""
        assert moved == {"requests": 0, "bad": 1}
    finally:
        sock.close()


def test_unknown_frame_op_answers_in_band_and_survives(endpoint):
    sock, rfile = endpoint.connect()
    try:
        sock.sendall(wire.HEADER.pack(wire.MAGIC, wire.FRAME_VERSION, 0x66, 0))
        error = read_response(rfile)[1]
        assert not error["ok"] and error["error"]["code"] == "bad_frame"
        # The payload decoded cleanly as "no such op"; the stream is
        # still framed, so the connection keeps serving.
        sock.sendall(wire.FrameWriter().encode_request({"op": "ping"}))
        assert read_response(rfile)[1]["ok"]
    finally:
        sock.close()


def _client_address(endpoint):
    address = endpoint.address
    return "{}:{}".format(*address) if isinstance(address, tuple) else address


def test_zero_duration_observe_is_a_bad_request(endpoint):
    # start == end and no bandwidth: nothing to divide the size by.  The
    # single op used to let the ZeroDivisionError out as `internal` (and
    # count it), while the same item in an observe_batch was a per-item
    # bad_request.
    internal = get_registry().counter("server_internal_errors")
    before = internal.value
    item = {"link": "ZERO", "size": 10 * MB, "start": 5.0, "end": 5.0}
    for binary in (False, True):
        with ServiceClient(_client_address(endpoint), binary=binary) as client:
            single = client.request({"op": "observe", **item})
            assert (single["ok"], single["v"]) == (False, 1)
            assert single["error"]["code"] == "bad_request"
            assert "must follow" in single["error"]["message"]
            batched = client.request({"op": "observe_batch", "items": [item]})
            assert batched["results"][0]["error"]["code"] == "bad_request"
            # The helper leaves the bandwidth it cannot compute to the
            # server (it used to raise ZeroDivisionError itself).
            with pytest.raises(ServiceError) as refused:
                client.observe("ZERO", 10 * MB, 5.0, 5.0)
            assert refused.value.code == "bad_request"
            # The connection is as good as it was.
            version = client.observe("ZERO", 10 * MB, 5.0, 6.0 + binary)
            assert version == 1 + binary
    assert internal.value == before


@pytest.mark.parametrize("field, value", [
    ("size", 2**63),      # fits the binary dialect's u64, not an int64 column
    ("size", 2**70),
    ("size", 0),
    ("offset", 2**70),
    ("offset", -5),
])
def test_size_and_offset_beyond_int64_are_bad_requests(
        endpoint, tmp_path, field, value):
    # These used to reach numpy as `internal: OverflowError` (counted, and
    # in a batch failing every sibling); the offset only with a store
    # attached, so the worker gets one here.
    from repro.store import LinkStore

    endpoint.service.store = LinkStore(tmp_path / "state")
    internal = get_registry().counter("server_internal_errors")
    before = internal.value
    good = {"link": "WIDE", "size": 10 * MB, "start": 5.0, "end": 6.0}
    bad = {**good, field: value}
    for binary in (False, True):
        with ServiceClient(_client_address(endpoint), binary=binary) as client:
            single = client.request({"op": "observe", **bad})
            assert single["ok"] is False
            assert single["error"]["code"] == "bad_request"
            assert field in single["error"]["message"]
            batched = client.request(
                {"op": "observe_batch", "items": [good, bad, good]})
            first, refused, last = batched["results"]
            assert refused["error"]["code"] == "bad_request"
            assert (first["version"], last["version"]) == (
                1 + 2 * binary, 2 + 2 * binary)
    assert internal.value == before


def test_a_bad_item_does_not_half_apply_an_observe_batch(endpoint):
    # An empty link name used to surface from LinkState as one
    # whole-batch bad_request *after* the items before it were folded:
    # nothing acked, and a retrying monitor folded them twice.
    a = {"link": "A-ANL", "size": 10 * MB, "start": 5.0, "end": 6.0}
    b = {**a, "link": "B-ANL"}
    for binary in (False, True):
        with ServiceClient(_client_address(endpoint), binary=binary) as client:
            response = client.request(
                {"op": "observe_batch", "items": [a, a, {**a, "link": ""}, b]})
            assert response["ok"] and response["count"] == 4
            acked = [r.get("version") for r in response["results"]]
            assert acked == [1 + 2 * binary, 2 + 2 * binary, None, 1 + binary]
            refused = response["results"][2]
            assert refused["error"]["code"] == "bad_request"
            assert "item" in refused["error"]["message"]
            assert "non-empty" in refused["error"]["message"]
            single = client.request({"op": "observe", **a, "link": ""})
            assert single["error"]["code"] == "bad_request"
    assert endpoint.service.version("A-ANL") == 4
    assert endpoint.service.version("B-ANL") == 2


FRONT_CASES = [
    test_a_bad_item_does_not_half_apply_an_observe_batch,
    test_zero_duration_observe_is_a_bad_request,
    test_corrupt_payload_answers_in_band_and_keeps_the_connection,
    test_a_large_answer_after_a_small_one_keeps_the_connection,
    test_bad_magic_answers_in_band_then_closes,
    test_truncated_frame_answers_in_band_when_possible,
    test_oversized_frame_is_refused_in_band,
    test_unknown_frame_op_answers_in_band_and_survives,
    json_cases.test_malformed_json_keeps_the_connection_alive,
    json_cases.test_oversized_request_answers_in_band_then_closes,
]


@pytest.mark.parametrize("case", FRONT_CASES, ids=lambda case: case.__name__)
def test_the_front_answers_like_the_worker(case, front_endpoint):
    # One serving loop: a front on TCP over this worker gives every
    # malformed, truncated or oversized request the same answer, the
    # same connection fate and the same counter movement.
    case(front_endpoint)


def test_server_errors_on_binary_are_always_normalized(server):
    with ServiceClient(server.socket_path, binary=True) as client:
        response = client.request({"op": "warp"})
    assert response["error"] == {
        "code": "unknown_op", "message": "unknown op 'warp'",
    }


def test_batch_over_socket_matches_per_query_over_socket(server):
    items = [
        (link, size)
        for link in ("LBL-ANL", "ISI-ANL")
        for size in (10 * MB, 100 * MB, 500 * MB, 1000 * MB)
    ]
    with ServiceClient(server.socket_path, binary=True) as client:
        batched = client.predict_batch(items, now=NOW)
        singles = [client.predict(link, size, now=NOW) for link, size in items]
    for b, s in zip(batched, singles):
        assert (b["link"], b["value"], b["version"], b["history_length"]) == (
            s["link"], s["value"], s["version"], s["history_length"]
        )


# ----------------------------------------------------------------------
# end-to-end trace propagation
# ----------------------------------------------------------------------
def test_server_spans_join_the_client_trace_on_both_dialects(server):
    from repro.obs import get_span_exporter, span

    exporter = get_span_exporter()
    for binary in (False, True):
        exporter.clear()
        with ServiceClient(server.socket_path, binary=binary) as client:
            with span(f"client.request[binary={binary}]") as parent:
                assert client.predict("LBL-ANL", 100 * MB, now=NOW)["ok"]
                assert client.predict_batch(
                    [("LBL-ANL", 10 * MB)], now=NOW)
        served = [s for s in exporter.spans() if s.name == "server.predict"]
        batched = [s for s in exporter.spans()
                   if s.name == "server.predict_batch"]
        assert len(served) == 1 and len(batched) == 1
        # The server-side spans carry the *client's* trace id — one
        # end-to-end trace across the socket, either dialect.
        assert served[0].trace_id == parent.trace_id
        assert batched[0].trace_id == parent.trace_id


def test_untraced_requests_open_no_server_span(server):
    # Request spans exist to *join* a caller's trace; a request with no
    # trace context must not pay for (or pollute the exporter with) an
    # orphan span.
    from repro.obs import current_span, get_span_exporter

    assert current_span() is None
    exporter = get_span_exporter()
    exporter.clear()
    with ServiceClient(server.socket_path, binary=True) as client:
        assert client.predict("LBL-ANL", 100 * MB, now=NOW)["ok"]
    assert [s for s in exporter.spans() if s.name.startswith("server.")] == []
