"""The binary frame protocol: codecs, framing, and failure shapes."""

import io
import re
import struct
from pathlib import Path

import pytest

from repro import wire


def roundtrip_request(req):
    frame = wire.FrameWriter().encode_request(req)
    op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
    return op, wire.decode_request(op, payload)


def roundtrip_response(request_op, resp):
    frame = wire.FrameWriter().encode_response(request_op, resp)
    op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
    return op, wire.decode_response(op, payload)


# ----------------------------------------------------------------------
# request codecs
# ----------------------------------------------------------------------
def test_ping_and_status_requests_roundtrip():
    for name, code in (("ping", wire.OP_PING), ("status", wire.OP_STATUS)):
        op, req = roundtrip_request({"op": name})
        assert op == code
        assert req == {"op": name, "v": 1}


def test_predict_request_roundtrips_every_optional_field():
    base = {"op": "predict", "link": "LBL-ANL", "size": 600_000_000}
    for extra in ({}, {"spec": "C-AVG15"}, {"now": 5000.0},
                  {"spec": "SIZE", "now": 123.5}):
        _, req = roundtrip_request({**base, **extra})
        assert req == {**base, "v": 1, **extra}


def test_rank_request_roundtrips():
    _, req = roundtrip_request({
        "op": "rank", "candidates": ["LBL-ANL", "ISI-ANL"],
        "size": 10**9, "spec": "C-MED",
    })
    assert req == {
        "op": "rank", "v": 1, "size": 10**9, "spec": "C-MED",
        "candidates": ["LBL-ANL", "ISI-ANL"],
    }


def test_batch_request_roundtrips_per_item_overrides():
    _, req = roundtrip_request({
        "op": "predict_batch", "spec": "C-AVG15", "now": 99.0,
        "items": [
            {"link": "LBL-ANL", "size": 100},
            {"link": "ISI-ANL", "size": 200, "spec": "SIZE", "now": 7.0},
        ],
    })
    assert req == {
        "op": "predict_batch", "v": 1, "spec": "C-AVG15", "now": 99.0,
        "items": [
            {"link": "LBL-ANL", "size": 100},
            {"link": "ISI-ANL", "size": 200, "spec": "SIZE", "now": 7.0},
        ],
    }


def test_unlisted_op_rides_as_json_frame():
    op, req = roundtrip_request({"op": "metrics", "format": "text", "v": 1})
    assert op == wire.OP_JSON
    assert req == {"op": "metrics", "format": "text", "v": 1}


def test_unicode_link_names_survive():
    _, req = roundtrip_request(
        {"op": "predict", "link": "LBL-ANL-ü", "size": 1}
    )
    assert req["link"] == "LBL-ANL-ü"


# ----------------------------------------------------------------------
# response codecs
# ----------------------------------------------------------------------
PREDICTION = {
    "link": "LBL-ANL", "spec": "C-AVG15", "size": 600_000_000,
    "value": 4.25e6, "cached": True, "version": 30,
    "history_length": 30, "latency_seconds": 1.5e-5, "degraded": False,
}


def test_predict_response_roundtrips():
    _, resp = roundtrip_response(
        wire.OP_PREDICT, {"ok": True, "v": 1, **PREDICTION}
    )
    assert resp == {"ok": True, "v": 1, **PREDICTION}


def test_predict_response_none_value_and_flags():
    payload = {**PREDICTION, "value": None, "cached": False, "degraded": True}
    _, resp = roundtrip_response(wire.OP_PREDICT, {"ok": True, "v": 1, **payload})
    assert resp["value"] is None
    assert resp["cached"] is False and resp["degraded"] is True


def test_rank_response_roundtrips():
    ranking = [
        {"site": "LBL-ANL", "predicted_bandwidth": 4.5e6, "history_length": 30,
         "degraded": False},
        {"site": "NEW-ANL", "predicted_bandwidth": 3.0e6, "history_length": 0,
         "degraded": True},
        {"site": "NOWHERE", "predicted_bandwidth": None, "history_length": 0,
         "degraded": False},
    ]
    _, resp = roundtrip_response(
        wire.OP_RANK, {"ok": True, "v": 1, "ranking": ranking}
    )
    assert resp == {"ok": True, "v": 1, "ranking": ranking}


def test_batch_response_mixes_items_and_errors():
    results = [
        {"ok": True, **PREDICTION},
        {"ok": False, "error": {"code": "bad_request", "message": "item 1: no"}},
    ]
    _, resp = roundtrip_response(
        wire.OP_BATCH, {"ok": True, "v": 1, "count": 2, "results": results}
    )
    assert resp == {"ok": True, "v": 1, "count": 2, "results": results}


def test_error_response_roundtrips_both_shapes():
    _, resp = roundtrip_response(
        wire.OP_PREDICT, wire.error_response("unknown_op", "unknown op 'warp'")
    )
    assert resp == {
        "ok": False, "v": 1,
        "error": {"code": "unknown_op", "message": "unknown op 'warp'"},
    }
    # A peer's bare-string error still encodes (the tolerant reader), but
    # a frame only ever decodes to the normalized shape.
    _, bare = roundtrip_response(
        wire.OP_PREDICT, {"ok": False, "v": 1, "error": "boom"}
    )
    assert bare == {
        "ok": False, "v": 1, "error": {"code": "error", "message": "boom"},
    }


def test_status_response_rides_as_json():
    status = {"ok": True, "v": 1, "links": {"LBL-ANL": {"records": 30}}}
    op, resp = roundtrip_response(wire.OP_STATUS, status)
    assert op == wire.OP_STATUS
    assert resp == status


# ----------------------------------------------------------------------
# framing failure shapes
# ----------------------------------------------------------------------
def test_read_frame_none_on_clean_eof():
    assert wire.read_frame(io.BytesIO(b"")) is None


def test_truncated_header_raises():
    with pytest.raises(wire.TruncatedFrame):
        wire.read_frame(io.BytesIO(wire.MAGIC + b"\x01"))


def test_truncated_payload_raises():
    frame = bytes(wire.FrameWriter().encode_request({"op": "ping"}))
    with pytest.raises(wire.TruncatedFrame):
        wire.read_frame(io.BytesIO(frame[:-1]))


def test_bad_magic_raises():
    frame = bytearray(wire.FrameWriter().encode_request({"op": "ping"}))
    frame[0] = 0x7B  # '{' — a JSON client on a binary read path
    with pytest.raises(wire.FrameError) as err:
        wire.read_frame(io.BytesIO(bytes(frame)))
    assert "magic" in str(err.value)


def test_unsupported_frame_version_raises():
    frame = bytearray(wire.FrameWriter().encode_request({"op": "ping"}))
    frame[2] = 99
    with pytest.raises(wire.FrameError) as err:
        wire.read_frame(io.BytesIO(bytes(frame)))
    assert "version" in str(err.value)


def test_oversized_declared_length_raises_without_reading_body():
    header = wire.HEADER.pack(wire.MAGIC, wire.FRAME_VERSION, wire.OP_PING,
                              wire.MAX_FRAME_BYTES + 1)
    stream = io.BytesIO(header + b"x" * 16)
    with pytest.raises(wire.OversizedFrame):
        wire.read_frame(stream)
    assert stream.tell() == wire.HEADER.size  # the body was left unread


def test_corrupt_payload_is_a_frame_error_not_a_crash():
    # A predict frame whose payload stops mid-string.
    good = bytes(wire.FrameWriter().encode_request(
        {"op": "predict", "link": "LBL-ANL", "size": 1}
    ))
    _, payload = wire.read_frame(io.BytesIO(good))
    with pytest.raises(wire.FrameError):
        wire.decode_request(wire.OP_PREDICT, payload[:-3])


def test_unknown_op_codes_raise_frame_errors():
    with pytest.raises(wire.FrameError):
        wire.decode_request(0x66, b"")
    with pytest.raises(wire.FrameError):
        wire.decode_response(0x66, b"")


def test_overlong_string_field_is_refused_at_encode_time():
    with pytest.raises(wire.FrameError):
        wire.FrameWriter().encode_request(
            {"op": "predict", "link": "x" * 70_000, "size": 1}
        )


def test_writer_buffer_is_reused_across_encodes():
    writer = wire.FrameWriter()
    first = writer.encode_request({"op": "ping"})
    first_bytes = bytes(first)
    second = writer.encode_request({"op": "status"})
    # Same underlying buffer, new contents — the memoryview lifecycle.
    assert bytes(second) != first_bytes
    op, payload = wire.read_frame(io.BytesIO(bytes(second)))
    assert wire.decode_request(op, payload) == {"op": "status", "v": 1}


def test_writer_grows_while_the_previous_view_is_still_held():
    writer = wire.FrameWriter(capacity=32)
    held = writer.encode_response(wire.OP_PING, {"ok": True, "v": 1, "pong": True})
    big = {"ok": True, "v": 1, "blob": "x" * 10_000}
    out = writer.encode_response(wire.OP_STATUS, big)  # no BufferError
    op, payload = wire.read_frame(io.BytesIO(bytes(out)))
    assert wire.decode_response(op, payload) == big
    with pytest.raises(ValueError):
        bytes(held)  # the old view was released, not left dangling


def test_header_layout_is_the_documented_eight_bytes():
    frame = bytes(wire.FrameWriter().encode_request({"op": "ping"}))
    magic, version, op, length = struct.unpack("!2sBBI", frame[:8])
    assert magic == b"\xa5\x57"
    assert version == wire.FRAME_VERSION
    assert op == wire.OP_PING
    assert length == len(frame) - 8


# ----------------------------------------------------------------------
# trace context
# ----------------------------------------------------------------------
TRACE = {"trace_id": 0xDEADBEEF12345678, "span_id": 42}


def test_trace_context_roundtrips_on_every_hot_op():
    requests = [
        {"op": "predict", "link": "LBL-ANL", "size": 100, "trace": TRACE},
        {"op": "rank", "candidates": ["A", "B"], "size": 10, "trace": TRACE},
        {"op": "predict_batch", "items": [{"link": "A", "size": 1}],
         "trace": TRACE},
    ]
    for request in requests:
        op, req = roundtrip_request(request)
        assert op != wire.OP_JSON
        assert req == {**request, "v": 1}


def test_trace_context_composes_with_spec_and_now():
    _, req = roundtrip_request({
        "op": "predict", "link": "LBL-ANL", "size": 100,
        "spec": "C-MED", "now": 55.5, "trace": TRACE,
    })
    assert req["trace"] == TRACE
    assert req["spec"] == "C-MED" and req["now"] == 55.5


def test_untraced_requests_keep_the_historical_frame_bytes():
    with_none = {"op": "predict", "link": "L", "size": 9, "trace": None}
    without = {"op": "predict", "link": "L", "size": 9}
    assert bytes(wire.FrameWriter().encode_request(with_none)) == \
        bytes(wire.FrameWriter().encode_request(without))
    _, req = roundtrip_request(without)
    assert "trace" not in req


def test_traced_ping_and_status_fall_back_to_json_frames():
    for name in ("ping", "status"):
        frame = wire.FrameWriter().encode_request(
            {"op": name, "trace": TRACE})
        op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
        assert op == wire.OP_JSON
        assert wire.decode_request(op, payload)["trace"] == TRACE


def test_out_of_range_trace_ids_fall_back_to_json():
    request = {"op": "predict", "link": "L", "size": 9,
               "trace": {"trace_id": 2**64, "span_id": 1}}
    frame = wire.FrameWriter().encode_request(request)
    op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
    assert op == wire.OP_JSON
    assert wire.decode_request(op, payload) == request


def test_malformed_trace_dict_falls_back_to_json():
    request = {"op": "predict", "link": "L", "size": 9,
               "trace": {"span_id": 1}}  # trace_id missing
    frame = wire.FrameWriter().encode_request(request)
    op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
    assert op == wire.OP_JSON


# ----------------------------------------------------------------------
# observe codec (the fleet's remote-ingest op)
# ----------------------------------------------------------------------
FULL_OBSERVE = {
    "op": "observe", "v": 1, "link": "LBL-ANL", "size": 100_000_000,
    "start": 1000.0, "end": 1010.0, "bandwidth": 10_000_000.0,
    "operation": "write", "streams": 4, "tcp_buffer": 1 << 20,
}


def test_observe_request_roundtrips_the_struct_path():
    op, req = roundtrip_request(dict(FULL_OBSERVE))
    assert op == wire.OP_OBSERVE
    assert req == FULL_OBSERVE


def test_observe_request_optional_fields_roundtrip():
    full = dict(
        FULL_OBSERVE, offset=7,
        source_ip="10.0.0.1", file_name="/data/f", volume="/data",
        trace={"trace_id": 5, "span_id": 9},
    )
    op, req = roundtrip_request(dict(full))
    assert op == wire.OP_OBSERVE
    assert req == full


def test_partial_observe_rides_as_json():
    # The struct layout is fixed-width: a request leaning on server-side
    # defaults (no bandwidth, no operation...) rides OP_JSON instead.
    request = {"op": "observe", "link": "L", "size": 10,
               "start": 0.0, "end": 1.0}
    frame = wire.FrameWriter().encode_request(request)
    op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
    assert op == wire.OP_JSON
    assert wire.decode_request(op, payload) == request


def test_observe_meta_trio_is_all_or_none():
    request = dict(FULL_OBSERVE, source_ip="10.0.0.1")  # file/volume missing
    frame = wire.FrameWriter().encode_request(request)
    op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
    assert op == wire.OP_JSON
    assert wire.decode_request(op, payload) == request


def test_observe_response_roundtrips():
    op, resp = roundtrip_response(
        wire.OP_OBSERVE,
        {"ok": True, "v": 1, "link": "LBL-ANL", "version": 31},
    )
    assert op == wire.OP_OBSERVE
    assert resp == {"ok": True, "v": 1, "link": "LBL-ANL", "version": 31}


# ----------------------------------------------------------------------
# observe_batch codec (the batched write path)
# ----------------------------------------------------------------------
def _obs_item(**over):
    item = {"link": "LBL-ANL", "size": 100_000_000, "start": 1000.0,
            "end": 1010.0, "bandwidth": 10_000_000.0, "operation": "read",
            "streams": 1, "tcp_buffer": 65536}
    item.update(over)
    return item


def test_observe_batch_request_roundtrips_the_struct_path():
    request = {
        "op": "observe_batch", "v": 1,
        "items": [
            _obs_item(),
            _obs_item(link="ISI-ANL", operation="write", offset=42),
            _obs_item(source_ip="10.0.0.1", file_name="/f", volume="/"),
        ],
    }
    op, req = roundtrip_request(dict(request, items=[dict(i) for i in request["items"]]))
    assert op == wire.OP_OBSERVE_BATCH
    assert req == request


def test_observe_batch_preserves_item_order():
    items = [_obs_item(link=f"L{i}", size=i + 1, offset=i * 10 or None)
             for i in range(25)]
    for item in items:
        if item["offset"] is None:
            del item["offset"]
    _, req = roundtrip_request({"op": "observe_batch", "items": items})
    assert [i["link"] for i in req["items"]] == [f"L{i}" for i in range(25)]
    assert [i["size"] for i in req["items"]] == list(range(1, 26))


def test_observe_batch_trace_context_is_batch_level():
    request = {
        "op": "observe_batch", "v": 1,
        "trace": {"trace_id": 5, "span_id": 9},
        "items": [_obs_item()],
    }
    op, req = roundtrip_request(
        dict(request, items=[dict(request["items"][0])]))
    assert op == wire.OP_OBSERVE_BATCH
    assert req == request


def test_observe_batch_with_partial_item_rides_as_json():
    # One item leaning on server-side defaults sends the whole batch
    # down the JSON dialect — per-item struct rows are fixed-width.
    request = {"op": "observe_batch",
               "items": [_obs_item(), {"link": "L", "size": 10,
                                       "start": 0.0, "end": 1.0}]}
    frame = wire.FrameWriter().encode_request(request)
    op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
    assert op == wire.OP_JSON
    assert wire.decode_request(op, payload) == request


def test_observe_batch_response_roundtrips_acks_and_errors():
    resp = {
        "ok": True, "v": 1, "count": 3,
        "results": [
            {"ok": True, "link": "LBL-ANL", "version": 7},
            {"ok": False,
             "error": {"code": "bad_request", "message": "item 1: bad"}},
            {"ok": True, "link": "ISI-ANL", "version": 1},
        ],
    }
    op, decoded = roundtrip_response(wire.OP_OBSERVE_BATCH, resp)
    assert op == wire.OP_OBSERVE_BATCH
    assert decoded == resp


def test_shard_addressed_ping_and_status_fall_back_to_json():
    # The fleet front's single-shard escape hatch is a passenger field
    # the u8-only payloads cannot carry.
    for name in ("ping", "status"):
        frame = wire.FrameWriter().encode_request({"op": name, "shard": 2})
        op, payload = wire.read_frame(io.BytesIO(bytes(frame)))
        assert op == wire.OP_JSON
        assert wire.decode_request(op, payload)["shard"] == 2


@pytest.mark.parametrize("request_", [
    {"op": "predict", "link": "L", "size": 9},
    {"op": "rank", "candidates": ["A", "B"], "size": 9},
    {"op": "predict_batch", "items": [{"link": "L", "size": 9}]},
    dict(FULL_OBSERVE),
    {"op": "observe_batch", "items": [_obs_item()]},
], ids=lambda request: request["op"])
def test_a_key_the_layout_has_no_slot_for_rides_as_json(request_):
    # One rule for every struct op: a binary predict used to drop the
    # front's ``shard`` and be hash-routed instead of forwarded.
    op, decoded = roundtrip_request({**request_, "shard": 1})
    assert (op, decoded) == (wire.OP_JSON, {**request_, "shard": 1})
    assert bytes(wire.FrameWriter().encode_request({**request_, "shard": None})) \
        == bytes(wire.FrameWriter().encode_request(request_))  # still a struct


def test_the_documented_op_table_is_the_codec():
    doc = Path(__file__).resolve().parents[2] / "docs" / "wire-protocol.md"
    table = doc.read_text().split("## Op table", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `0x([0-9A-F]{2})` \| `?(\w+)`? \|", table, re.M)
    assert {int(code, 16): name for code, name in rows} == {
        **{code: name for name, code in wire.REQUEST_OPS.items()},
        wire.OP_JSON: "json", wire.OP_ERROR: "error",
    }


def test_error_code_vocabulary_is_closed_and_complete():
    assert wire.ERROR_CODES == frozenset({
        "bad_request", "unknown_op", "deadline_exceeded",
        "unsupported_version", "oversized_request", "bad_frame",
        "internal", "overloaded", "unavailable",
    })
    # Every code the codec emits must encode/decode through OP_ERROR.
    for code in sorted(wire.ERROR_CODES):
        op, resp = roundtrip_response(
            wire.OP_PREDICT, wire.error_response(code, "detail"))
        assert op == wire.OP_ERROR
        assert resp["error"]["code"] == code
