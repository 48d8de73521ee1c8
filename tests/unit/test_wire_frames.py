"""Every frame, byte for byte.

One frame per op and direction, with and without each optional field,
pinned as the hex ``wire.py`` produced before its per-op codecs were
folded onto shared helpers (generated at the parent of that commit).  A
worker and a front of different builds share a socket, so a codec
refactor must leave these bytes alone — and must decode them to exactly
the message that produced them.  What the fields *mean* is
``test_wire.py``'s job; this file only holds the bytes still — and
checks that no damage to them gets anything but :class:`wire.FrameError`
out of the decoders.
"""

import io

import pytest

from repro import wire

TRACE = {"trace_id": 0x1122334455667788, "span_id": 0x99AABBCCDDEEFF00}
OBS = {"size": 10_000_000, "start": 1000.5, "end": 1001.75, "bandwidth": 8e6,
       "operation": "read", "streams": 4, "tcp_buffer": 65536}
META = {"source_ip": "10.0.0.1", "file_name": "/data/f.bin", "volume": "/vol"}
PRED = {"link": "LBL-ANL", "spec": "C-AVG15", "size": 100_000_000, "value": 4.5e6,
        "cached": True, "version": 31, "history_length": 30,
        "latency_seconds": 0.00025, "degraded": False}
NOVAL = {**PRED, "link": "NOWHERE", "value": None, "cached": False,
         "version": 0, "history_length": 0, "degraded": True}
ITEM_ERROR = {"ok": False, "error": {"code": "bad_request", "message": "item 1: no"}}

REQUESTS = [
    ("ping", {"op": "ping", "v": 1}),
    ("status", {"op": "status", "v": 1}),
    ("ping-traced-rides-json", {"op": "ping", "v": 1, "trace": TRACE}),
    ("json-op", {"op": "metrics", "v": 1, "format": "text"}),
    ("predict", {"op": "predict", "v": 1, "size": 100_000_000, "link": "LBL-ANL"}),
    ("predict-spec", {"op": "predict", "v": 1, "size": 1, "link": "L", "spec": "MED5"}),
    ("predict-now", {"op": "predict", "v": 1, "size": 1, "now": 1234.5, "link": "L"}),
    ("predict-trace", {"op": "predict", "v": 1, "trace": TRACE, "size": 1, "link": "L"}),
    ("predict-all", {"op": "predict", "v": 1, "trace": TRACE, "size": 2**40,
                     "now": 1e9, "link": "ISI-ANL", "spec": "C-AR5d"}),
    ("rank", {"op": "rank", "v": 1, "size": 5, "candidates": ["A", "B"]}),
    ("rank-all", {"op": "rank", "v": 1, "trace": TRACE, "size": 5, "now": 2.5,
                  "spec": "AVG", "candidates": ["A", "B", "C-D"]}),
    ("rank-empty", {"op": "rank", "v": 1, "size": 5, "spec": "AVG", "candidates": []}),
    ("batch", {"op": "predict_batch", "v": 1,
               "items": [{"size": 1, "link": "A"}, {"size": 2, "link": "B"}]}),
    ("batch-all", {"op": "predict_batch", "v": 1, "trace": TRACE, "now": 7.0,
                   "spec": "MED", "items": [
                       {"size": 1, "link": "A"},
                       {"size": 2, "link": "B", "spec": "AVG5"},
                       {"size": 3, "now": 9.5, "link": "C"},
                       {"size": 4, "now": 9.5, "link": "D", "spec": "LV"}]}),
    ("observe", {"op": "observe", "v": 1, **OBS, "link": "LBL-ANL"}),
    ("observe-write", {"op": "observe", "v": 1, **OBS, "operation": "write", "link": "L"}),
    ("observe-offset", {"op": "observe", "v": 1, **OBS, "offset": 4096, "link": "L"}),
    ("observe-meta", {"op": "observe", "v": 1, **OBS, "link": "L", **META}),
    ("observe-trace", {"op": "observe", "v": 1, "trace": TRACE, **OBS, "link": "L"}),
    ("observe-all", {"op": "observe", "v": 1, "trace": TRACE, **OBS,
                     "operation": "write", "offset": 2**33, "link": "ISI-ANL", **META}),
    ("observe-partial-rides-json", {"op": "observe", "v": 1, "link": "L", "size": 1,
                                    "start": 0.0, "end": 1.0}),
    ("observe-batch", {"op": "observe_batch", "v": 1,
                       "items": [{**OBS, "link": "A"}, {**OBS, "link": "B"}]}),
    ("observe-batch-all", {"op": "observe_batch", "v": 1, "trace": TRACE, "items": [
        {**OBS, "link": "A"},
        {**OBS, "operation": "write", "link": "B"},
        {**OBS, "offset": 77, "link": "C"},
        {**OBS, "link": "D", **META},
        {**OBS, "operation": "write", "offset": 2**33, "link": "E", **META}]}),
    ("observe-batch-empty", {"op": "observe_batch", "v": 1, "items": []}),
]

RESPONSES = [
    ("ping", wire.OP_PING, {"ok": True, "v": 1, "pong": True}),
    ("predict", wire.OP_PREDICT, {"ok": True, "v": 1, **PRED}),
    ("predict-no-value", wire.OP_PREDICT, {"ok": True, "v": 1, **NOVAL}),
    ("rank", wire.OP_RANK, {"ok": True, "v": 1, "ranking": [
        {"site": "LBL-ANL", "predicted_bandwidth": 4.5e6, "history_length": 30,
         "degraded": False},
        {"site": "NOWHERE", "predicted_bandwidth": None, "history_length": 0,
         "degraded": False}]}),
    ("rank-empty", wire.OP_RANK, {"ok": True, "v": 1, "ranking": []}),
    ("batch", wire.OP_BATCH, {"ok": True, "v": 1, "count": 3, "results": [
        {"ok": True, **PRED}, ITEM_ERROR, {"ok": True, **NOVAL}]}),
    ("status", wire.OP_STATUS, {"ok": True, "v": 1, "links": {"L": {"records": 3}}}),
    ("json-op", wire.OP_JSON, {"ok": True, "v": 1, "text": "# TYPE x counter\n"}),
    ("observe", wire.OP_OBSERVE, {"ok": True, "v": 1, "link": "LBL-ANL", "version": 31}),
    ("observe-batch", wire.OP_OBSERVE_BATCH, {"ok": True, "v": 1, "count": 2, "results": [
        {"ok": True, "link": "A", "version": 2**40}, ITEM_ERROR]}),
    ("error", wire.OP_PREDICT, {"ok": False, "v": 1, "error": {
        "code": "unknown_op", "message": "unknown op 'warp'"}}),
]


# "req:<case>" / "resp:<case>" -> the whole frame, header included.
FRAMES = {
    "req:ping": "a55701010000000101",
    "req:status": "a55701050000000101",
    "req:ping-traced-rides-json": (
        "a5570110000000637b226f70223a202270696e67222c202276223a20312c"
        "20227472616365223a207b2274726163655f6964223a2031323334363035"
        "3631363433363530383535322c20227370616e5f6964223a203131303732"
        "3836393132323431343933353830387d7d"),
    "req:json-op": (
        "a55701100000002b7b226f70223a20226d657472696373222c202276223a"
        "20312c2022666f726d6174223a202274657874227d"),
    "req:predict": "a55701020000001301000000000005f5e10000074c424c2d414e4c",
    "req:predict-spec": "a5570102000000130101000000000000000100014c00044d454435",
    "req:predict-now": "a5570102000000150102000000000000000140934a000000000000014c",
    "req:predict-trace": (
        "a55701020000001d0104112233445566778899aabbccddeeff0000000000"
        "0000000100014c"),
    "req:predict-all": (
        "a5570102000000330107112233445566778899aabbccddeeff0000000100"
        "0000000041cdcd650000000000074953492d414e4c0006432d41523564"),
    "req:rank": "a5570103000000140100000000000000000500000002000141000142",
    "req:rank-all": (
        "a5570103000000360107112233445566778899aabbccddeeff0000000000"
        "000000054004000000000000000341564700000003000141000142000343"
        "2d44"),
    "req:rank-empty": "a55701030000001301010000000000000005000341564700000000",
    "req:batch": (
        "a55701040000001e01000000000200000000000000000100014100000000"
        "0000000002000142"),
    "req:batch-all": (
        "a55701040000006d0107112233445566778899aabbccddeeff00401c0000"
        "0000000000034d4544000000040000000000000000010001410100000000"
        "000000020001420004415647350200000000000000034023000000000000"
        "000143030000000000000004402300000000000000014400024c56"),
    "req:observe": (
        "a55701060000003501000000000000989680408f440000000000408f4e00"
        "00000000415e8480000000000004000000000001000000074c424c2d414e"
        "4c"),
    "req:observe-write": (
        "a55701060000002f01010000000000989680408f440000000000408f4e00"
        "00000000415e8480000000000004000000000001000000014c"),
    "req:observe-offset": (
        "a55701060000003701080000000000989680408f440000000000408f4e00"
        "00000000415e848000000000000400000000000100000000000000001000"
        "00014c"),
    "req:observe-meta": (
        "a55701060000004c01020000000000989680408f440000000000408f4e00"
        "00000000415e8480000000000004000000000001000000014c000831302e"
        "302e302e31000b2f646174612f662e62696e00042f766f6c"),
    "req:observe-trace": (
        "a55701060000003f0104112233445566778899aabbccddeeff0000000000"
        "00989680408f440000000000408f4e0000000000415e8480000000000004"
        "000000000001000000014c"),
    "req:observe-all": (
        "a55701060000006a010f112233445566778899aabbccddeeff0000000000"
        "00989680408f440000000000408f4e0000000000415e8480000000000004"
        "0000000000010000000000020000000000074953492d414e4c000831302e"
        "302e302e31000b2f646174612f662e62696e00042f766f6c"),
    "req:observe-partial-rides-json": (
        "a55701100000004b7b226f70223a20226f627365727665222c202276223a"
        "20312c20226c696e6b223a20224c222c202273697a65223a20312c202273"
        "74617274223a20302e302c2022656e64223a20312e307d"),
    "req:observe-batch": (
        "a557010700000062010000000002000000000000989680408f4400000000"
        "00408f4e0000000000415e84800000000000040000000000010000000141"
        "000000000000989680408f440000000000408f4e0000000000415e848000"
        "00000000040000000000010000000142"),
    "req:observe-batch-all": (
        "a5570107000001460104112233445566778899aabbccddeeff0000000005"
        "000000000000989680408f440000000000408f4e0000000000415e848000"
        "00000000040000000000010000000141010000000000989680408f440000"
        "000000408f4e0000000000415e8480000000000004000000000001000000"
        "0142080000000000989680408f440000000000408f4e0000000000415e84"
        "800000000000040000000000010000000000000000004d00014302000000"
        "0000989680408f440000000000408f4e0000000000415e84800000000000"
        "040000000000010000000144000831302e302e302e31000b2f646174612f"
        "662e62696e00042f766f6c0b0000000000989680408f440000000000408f"
        "4e0000000000415e84800000000000040000000000010000000000020000"
        "0000000145000831302e302e302e31000b2f646174612f662e62696e0004"
        "2f766f6c"),
    "req:observe-batch-empty": "a557010700000006010000000000",
    "resp:ping": "a55701010000000101",
    "resp:predict": (
        "a55701020000003c01030000000005f5e100000000000000001f00000000"
        "0000001e3f30624dd2f1a9fc41512a880000000000074c424c2d414e4c00"
        "07432d4156473135"),
    "resp:predict-no-value": (
        "a55701020000003401040000000005f5e100000000000000000000000000"
        "000000003f30624dd2f1a9fc00074e4f57484552450007432d4156473135"),
    "resp:rank": (
        "a55701030000003101000000020141512a8800000000000000000000001e"
        "00074c424c2d414e4c00000000000000000000074e4f5748455245"),
    "resp:rank-empty": "a5570103000000050100000000",
    "resp:batch": (
        "a55701040000008f010000000308030000000005f5e10000000000000000"
        "1f000000000000001e3f30624dd2f1a9fc41512a880000000000074c424c"
        "2d414e4c0007432d415647313500000b6261645f72657175657374000a69"
        "74656d20313a206e6f08040000000005f5e1000000000000000000000000"
        "00000000003f30624dd2f1a9fc00074e4f57484552450007432d41564731"
        "35"),
    "resp:status": (
        "a5570105000000347b226f6b223a20747275652c202276223a20312c2022"
        "6c696e6b73223a207b224c223a207b227265636f726473223a20337d7d7d"),
    "resp:json-op": (
        "a5570110000000327b226f6b223a20747275652c202276223a20312c2022"
        "74657874223a2022232054595045207820636f756e7465725c6e227d"),
    "resp:observe": "a55701060000001201000000000000001f00074c424c2d414e4c",
    "resp:observe-batch": (
        "a55701070000002b010000000208000001000000000000014100000b6261"
        "645f72657175657374000a6974656d20313a206e6f"),
    "resp:error": (
        "a557017f0000002001000a756e6b6e6f776e5f6f700011756e6b6e6f776e"
        "206f7020277761727027"),
}


@pytest.mark.parametrize("name,req", REQUESTS, ids=[c[0] for c in REQUESTS])
def test_request_frame_bytes_are_pinned(name, req):
    frame = bytes.fromhex(FRAMES["req:" + name])
    assert bytes(wire.FrameWriter().encode_request(req)).hex() == frame.hex()
    magic, version, op, length = wire.HEADER.unpack_from(frame)
    assert length == len(frame) - wire.HEADER.size
    assert wire.decode_request(op, frame[wire.HEADER.size:]) == req


@pytest.mark.parametrize(
    "name,request_op,resp", RESPONSES, ids=[c[0] for c in RESPONSES])
def test_response_frame_bytes_are_pinned(name, request_op, resp):
    frame = bytes.fromhex(FRAMES["resp:" + name])
    encoded = bytes(wire.FrameWriter().encode_response(request_op, resp))
    assert encoded.hex() == frame.hex()
    magic, version, op, length = wire.HEADER.unpack_from(frame)
    assert length == len(frame) - wire.HEADER.size
    assert wire.decode_response(op, frame[wire.HEADER.size:]) == resp


def test_one_writer_reused_across_every_case_writes_the_same_bytes():
    # The per-connection lifecycle: one FrameWriter, many frames.
    writer = wire.FrameWriter()
    for name, req in REQUESTS:
        assert bytes(writer.encode_request(req)).hex() == FRAMES["req:" + name]
    for name, request_op, resp in RESPONSES:
        assert (bytes(writer.encode_response(request_op, resp)).hex()
                == FRAMES["resp:" + name])


class _Recording(io.BytesIO):
    """A stream that remembers the largest read asked of it."""

    def __init__(self, data):
        super().__init__(data)
        self.largest = 0

    def read(self, size=-1):
        assert size >= 0, "a frame is never read to the end of the stream"
        self.largest = max(self.largest, size)
        return super().read(size)


def _damaged(frame):
    """Every truncation and every single-bit flip of ``frame``."""
    for length in range(len(frame)):
        yield frame[:length]
    for at in range(len(frame)):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[at] ^= 1 << bit
            yield bytes(flipped)


@pytest.mark.parametrize("key", sorted(FRAMES))
def test_every_truncation_and_bit_flip_decodes_or_is_a_frame_error(key):
    """What a peer's damaged frame gets out of ``read_frame`` and the
    decoders: a message or a :class:`wire.FrameError`, nothing else, and
    never a read of more than the frame cap."""
    assert len(FRAMES) == 35
    decode = (wire.decode_request if key.startswith("req:")
              else wire.decode_response)
    for data in _damaged(bytes.fromhex(FRAMES[key])):
        stream = _Recording(data)
        try:
            frame = wire.read_frame(stream)
            if frame is not None:
                decode(*frame)
        except wire.FrameError:
            pass
        assert stream.largest <= wire.MAX_FRAME_BYTES
