"""Hostile request fields get an in-band ``bad_request``, on both dialects.

A field is taken as it is or refused, never coerced: a non-string link
is not stored under its ``str()``, a string of candidates is not ranked
character by character, a NaN or infinite ``now`` is not an anchor, a
bool or a fractional float is not an integer, and a bool or a numeric
string is not a time or a bandwidth.  Every case runs as a
JSON dict through :func:`handle_request` and again as a binary frame
(:class:`repro.wire.FrameWriter` -> :func:`repro.wire.decode_request`),
which is what a worker does with either dialect.
"""

import io
import math

import pytest

from repro import wire
from repro.service import PredictionService, handle_request
from repro.units import MB
from tests.conftest import make_record

NOW = 4_000.0  # just past the fixture's last transfer
SIZE = 100 * MB  # a class the fixture has history in
OBSERVE = {"op": "observe", "link": "GOOD", "size": 10 * MB,
           "start": 5.0, "end": 6.0}


@pytest.fixture
def service():
    service = PredictionService(clock=lambda: NOW)
    service.ingest_records(
        "GOOD", [make_record(start=1000.0 + 100 * i, size=(50 + 7 * i) * MB)
                 for i in range(20)])
    return service


def binary(req):
    """``req`` as a worker receives it over the binary dialect."""
    op, payload = wire.read_frame(
        io.BytesIO(bytes(wire.FrameWriter().encode_request(req))))
    return wire.decode_request(op, payload)


DIALECTS = {"json": lambda req: req, "binary": binary}


@pytest.fixture(params=sorted(DIALECTS))
def ask(request, service):
    carry = DIALECTS[request.param]
    return lambda req: handle_request(service, carry(req))


def assert_bad_request(response, field):
    assert response["ok"] is False, response
    assert response["error"]["code"] == "bad_request"
    assert field in response["error"]["message"]


NON_STRING_LINKS = [["x"], 7, {"x": 1}, None]


@pytest.mark.parametrize("link", NON_STRING_LINKS, ids=repr)
def test_a_non_string_link_is_never_stored(ask, service, link):
    assert_bad_request(ask({**OBSERVE, "link": link}), "link")
    batch = ask({"op": "observe_batch", "items": [
        {k: v for k, v in OBSERVE.items() if k != "op"},
        {"link": link, "size": 10 * MB, "start": 5.0, "end": 6.0},
    ]})
    acked, refused = batch["results"]
    assert acked["ok"] and acked["link"] == "GOOD"
    assert_bad_request(refused, "link")
    assert service.links() == ["GOOD"]


@pytest.mark.parametrize("link", NON_STRING_LINKS, ids=repr)
def test_a_non_string_link_is_never_predicted(ask, link):
    assert_bad_request(ask({"op": "predict", "link": link, "size": SIZE}), "link")
    batch = ask({"op": "predict_batch", "items": [
        {"link": "GOOD", "size": SIZE}, {"link": link, "size": SIZE}]})
    answered, refused = batch["results"]
    assert answered["ok"] and answered["value"] is not None
    assert_bad_request(refused, "link")


@pytest.mark.parametrize("candidates", ["GOOD", {"GOOD": 1, "LBL": 2}, ["GOOD", 7]],
                         ids=["string", "dict", "non-string-member"])
def test_rank_takes_a_list_of_link_names_only(ask, candidates):
    response = ask({"op": "rank", "candidates": candidates, "size": SIZE})
    assert_bad_request(response, "candidates" if not isinstance(candidates, list)
                       else "link")


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf], ids=repr)
def test_a_non_finite_now_is_refused_everywhere(ask, now):
    assert_bad_request(
        ask({"op": "predict", "link": "GOOD", "size": SIZE, "now": now}), "now")
    assert_bad_request(
        ask({"op": "rank", "candidates": ["GOOD"], "size": SIZE, "now": now}), "now")
    assert_bad_request(ask({"op": "predict_batch", "now": now,
                            "items": [{"link": "GOOD", "size": SIZE}]}), "now")
    batch = ask({"op": "predict_batch", "now": NOW, "items": [
        {"link": "GOOD", "size": SIZE}, {"link": "GOOD", "size": SIZE, "now": now}]})
    answered, refused = batch["results"]
    assert answered["ok"] and answered["value"] is not None
    assert_bad_request(refused, "now")


def test_a_bool_now_is_not_a_time(ask):
    assert_bad_request(
        ask({"op": "predict", "link": "GOOD", "size": SIZE, "now": True}), "now")


@pytest.mark.parametrize("field", ["size", "offset", "streams", "tcp_buffer"])
@pytest.mark.parametrize("value", [True, 1.5], ids=repr)
def test_an_integer_field_is_never_truncated(ask, service, field, value):
    full = {**OBSERVE, "link": "NEW", "bandwidth": 1e6, "streams": 8,
            "tcp_buffer": 1 << 20, "offset": 0}
    assert_bad_request(ask({**full, field: value}), field)
    assert "NEW" not in service.links()
    if field == "size":
        assert_bad_request(
            ask({"op": "predict", "link": "GOOD", "size": value}), "size")
        assert_bad_request(
            ask({"op": "rank", "candidates": ["GOOD"], "size": value}), "size")


HOSTILE_OBSERVE_FIELDS = [
    {"start": True}, {"start": "1000", "end": "1001"}, {"bandwidth": True},
    {"bandwidth": "5e6"}, {"source_ip": [1]}, {"file_name": {}}, {"volume": {}},
]
#: Every field the struct layout has a slot for, so the binary dialect
#: carries it as a struct, not as JSON inside the frame.
FULL_OBSERVE = {**OBSERVE, "link": "NEW", "bandwidth": 1e6, "operation": "read",
                "streams": 8, "tcp_buffer": 1 << 20, "source_ip": "10.0.0.1",
                "file_name": "/data/f", "volume": "/data"}


@pytest.mark.parametrize("hostile", HOSTILE_OBSERVE_FIELDS, ids=repr)
def test_an_observe_field_is_never_coerced(ask, service, hostile):
    # A bool time was stored as 1.0, "5e6" as a bandwidth, [1] as the
    # source address "[1]".
    field = next(iter(hostile))
    assert_bad_request(ask({**FULL_OBSERVE, **hostile}), field)
    assert "NEW" not in service.links()
    item = {k: v for k, v in FULL_OBSERVE.items() if k != "op"}
    acked, refused = ask({"op": "observe_batch",
                          "items": [item, {**item, **hostile}]})["results"]
    assert acked["ok"] and acked["version"] == 1
    assert_bad_request(refused, field)
    assert service.history("NEW").sizes.tolist() == [10 * MB]


def test_integral_floats_and_finite_times_still_answer(ask, service):
    ack = ask({**OBSERVE, "link": "NEW", "size": 2.0 * MB, "streams": 8.0})
    assert ack["ok"] and ack["version"] == 1
    assert service.history("NEW").sizes.tolist() == [2 * MB]
    answer = ask({"op": "predict", "link": "GOOD", "size": float(SIZE), "now": NOW})
    assert answer["ok"] and answer["size"] == SIZE and answer["value"] is not None


def test_the_encoder_carries_hostile_values_to_the_server_unchanged():
    # A value the struct layout would coerce rides the JSON dialect
    # inside the frame; a NaN anchor is an f64 and stays one.
    for req in ({**OBSERVE, "link": ["x"]}, {**OBSERVE, "size": 1.5},
                {"op": "rank", "candidates": "GOOD", "size": SIZE},
                {"op": "predict", "link": "GOOD", "size": SIZE, "now": True},
                {**FULL_OBSERVE, "start": "1000"}, {**FULL_OBSERVE, "source_ip": [1]}):
        assert binary(req) == req
    nan = binary({"op": "predict", "link": "GOOD", "size": SIZE, "now": math.nan})
    assert math.isnan(nan["now"])
