"""The length-prefixed binary wire protocol (frame layout and codecs).

JSON-lines is the service's lingua franca, but one JSON object per
prediction is the wrong shape for replica selection at Grid scale —
*Replica Selection in the Globus Data Grid* ranks every candidate source
per request, and a federation tier fanning a batch across shards cannot
afford a JSON parse per (link, size) pair.  This module defines the
compact alternative the socket server speaks alongside JSON (the server
autodetects per connection by the first byte):

Frame layout (network byte order)::

    offset  size  field
    0       2     magic   0xA5 0x57
    2       1     frame version (currently 1)
    3       1     op code
    4       4     payload length N (unsigned)
    8       N     payload

The magic's first byte (``0xA5``) can never begin a JSON-lines request
(it is not valid UTF-8 as a leading byte), which is what makes
per-connection autodetection unambiguous.

Op table::

    0x01  ping           0x04  predict_batch
    0x02  predict        0x05  status
    0x03  rank           0x06  observe
                         0x07  observe_batch
                         0x10  json (any other op, JSON payload)
                         0x7F  error (responses only)

``predict``, ``rank``, ``predict_batch``, ``observe`` and
``observe_batch`` payloads are struct-packed
(codecs below); ``status`` and every op outside the hot path ride as
UTF-8 JSON inside a binary frame — framing still amortizes, and the
decoded dict is exactly what the JSON protocol would have produced.
Error responses are their own frame (``0x7F``) carrying the normalized
``(code, message)`` pair of the versioned envelope.

Every request and response payload leads with the **envelope version**
``v`` (one byte here, a ``"v"`` key on the JSON side) — the schema
version of the request/response dicts, negotiated per request: a server
answers ``unsupported_version`` for a ``v`` above what it speaks.  The
frame version in the header is the byte-layout version and changes
independently.

Encoding reuses one growable buffer per connection
(:class:`FrameWriter`): steady-state encode does zero allocation beyond
the string encodes, which is what keeps a thousand-item batch cheap.
Decoding (:func:`decode_request` / :func:`decode_response`) returns
plain dicts in exactly the JSON protocol's shapes, so one dispatcher
serves both protocols and cross-protocol tests can assert payload
identity.  See ``docs/wire-protocol.md``.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO, Callable, Dict, Optional, Tuple

__all__ = [
    "MAGIC",
    "FRAME_VERSION",
    "PROTOCOL_VERSION",
    "HEADER",
    "MAX_FRAME_BYTES",
    "OP_PING",
    "OP_PREDICT",
    "OP_RANK",
    "OP_BATCH",
    "OP_STATUS",
    "OP_OBSERVE",
    "OP_OBSERVE_BATCH",
    "OP_JSON",
    "OP_ERROR",
    "REQUEST_OPS",
    "ERROR_CODES",
    "FrameError",
    "OversizedFrame",
    "TruncatedFrame",
    "FrameWriter",
    "read_frame",
    "decode_request",
    "decode_response",
    "error_entry",
    "error_response",
]

MAGIC = b"\xa5\x57"

#: Byte-layout version of the frame header and struct codecs.
FRAME_VERSION = 1

#: Schema version of the request/response envelope (the ``v`` field).
PROTOCOL_VERSION = 1

#: magic(2) + frame version(1) + op(1) + payload length(4).
HEADER = struct.Struct("!2sBBI")

#: One frame's payload may not exceed this (mirrors the JSON server's
#: request bound, scaled for thousand-item batches and their responses).
MAX_FRAME_BYTES = 8 << 20

OP_PING = 0x01
OP_PREDICT = 0x02
OP_RANK = 0x03
OP_BATCH = 0x04
OP_STATUS = 0x05
OP_OBSERVE = 0x06
OP_OBSERVE_BATCH = 0x07
OP_JSON = 0x10
OP_ERROR = 0x7F

#: Request ops whose *response* is struct-packed too (``status`` answers
#: ride as JSON inside their frame).
_STRUCT_RESPONSES = frozenset({
    OP_PING, OP_PREDICT, OP_RANK, OP_BATCH, OP_OBSERVE, OP_OBSERVE_BATCH,
})

#: JSON-op name -> struct-packed op code; anything else rides as OP_JSON.
REQUEST_OPS = {
    "ping": OP_PING,
    "predict": OP_PREDICT,
    "rank": OP_RANK,
    "predict_batch": OP_BATCH,
    "status": OP_STATUS,
    "observe": OP_OBSERVE,
    "observe_batch": OP_OBSERVE_BATCH,
}

#: The top-level request keys each struct layout has a slot for; any
#: other key that is not None sends the request as OP_JSON instead.
_ENVELOPE = frozenset({"op", "v"})
_HEAD = _ENVELOPE | {"trace", "spec", "now"}
_SLOTS = {
    OP_PING: _ENVELOPE,
    OP_STATUS: _ENVELOPE,
    OP_PREDICT: _HEAD | {"size", "link"},
    OP_RANK: _HEAD | {"size", "candidates"},
    OP_BATCH: _HEAD | {"items"},
    OP_OBSERVE: _ENVELOPE | {
        "trace", "link", "size", "start", "end", "bandwidth", "operation",
        "streams", "tcp_buffer", "offset", "source_ip", "file_name", "volume"},
    OP_OBSERVE_BATCH: _ENVELOPE | {"trace", "items"},
}

#: The normalized error-code vocabulary of the v1 envelope — every
#: ``{"ok": false, "error": {"code", ...}}`` a conforming server (or the
#: federation front tier) emits uses one of these.  ``overloaded`` means
#: admission control shed the request (do not retry immediately);
#: ``unavailable`` means the shard/worker behind the request is down or
#: unreachable (safe to retry — the client's connect policy applies).
ERROR_CODES = frozenset({
    "bad_request",
    "unknown_op",
    "deadline_exceeded",
    "unsupported_version",
    "oversized_request",
    "bad_frame",
    "internal",
    "overloaded",
    "unavailable",
})

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_F64 = struct.Struct("!d")

# Fused per-prediction layouts (flags, size, version, history_length,
# latency[, value]) — one pack/unpack per item instead of six keeps a
# thousand-item batch's encode cost flat.  The TAIL variants decode the
# same layout after the flags byte has been read to pick between them.
_PRED_VAL = struct.Struct("!BQQQdd")
_PRED_NOVAL = struct.Struct("!BQQQd")
_PRED_VAL_TAIL = struct.Struct("!QQQdd")
_PRED_NOVAL_TAIL = struct.Struct("!QQQd")

# predict request/response flag bits
_HAS_SPEC = 0x01
_HAS_NOW = 0x02
# Optional trace context (client trace_id + span_id, two u64s right
# after the flags byte): lets server spans join the caller's trace for
# true end-to-end predict/rank/batch traces.  Ping/status requests
# carrying one fall back to the OP_JSON dialect, where it rides as a
# plain "trace" key.
_HAS_TRACE = 0x04
_HAS_VALUE = 0x01
_CACHED = 0x02
_DEGRADED = 0x04
_ITEM_OK = 0x08
# rank entry flag bits (a degraded entry shares _DEGRADED = 0x04)
_HAS_BW = 0x01

# observe request flag bits (trace shares _HAS_TRACE = 0x04).  The
# struct codec carries the *full* canonical observation — size, start,
# end, bandwidth, streams, tcp_buffer — so the bits only cover the truly
# optional extras; a partial request falls back to OP_JSON and the
# server fills defaults there.
_OBS_WRITE = 0x01        # operation == "write" (clear: "read")
_OBS_HAS_META = 0x02     # source_ip, file_name, volume strings follow
_OBS_HAS_OFFSET = 0x08   # durable follower byte offset (u64)

# Fused observe layout after the flags/trace prefix:
# size, start, end, bandwidth, streams, tcp_buffer.
_OBS_FIXED = struct.Struct("!QdddHQ")


class FrameError(ValueError):
    """A frame (or its payload) violates the wire protocol."""


class OversizedFrame(FrameError):
    """The declared payload length exceeds the frame bound."""


class TruncatedFrame(FrameError):
    """The stream ended mid-frame (header or payload cut short)."""


# ----------------------------------------------------------------------
# writer: one reusable buffer per connection
# ----------------------------------------------------------------------
class FrameWriter:
    """Encode frames into one growable, reused buffer.

    ``encode_request``/``encode_response`` return a :class:`memoryview`
    over the internal buffer — valid until the next encode (which
    releases it: a bytearray cannot grow while a view of it is alive),
    exactly the send-then-reuse lifecycle of a connection loop.  The
    buffer only ever grows, so a steady request mix settles into zero
    per-frame allocation.
    """

    __slots__ = ("_buf", "_end", "_view")

    def __init__(self, capacity: int = 4096):
        self._buf = bytearray(capacity)
        self._end = 0
        self._view: Optional[memoryview] = None

    # -- low-level appends ---------------------------------------------
    def _ensure(self, need: int) -> None:
        short = self._end + need - len(self._buf)
        if short > 0:
            self._buf.extend(b"\x00" * max(short, len(self._buf)))

    def _pack(self, st: struct.Struct, *values: Any) -> None:
        self._ensure(st.size)
        try:
            st.pack_into(self._buf, self._end, *values)
        except struct.error as exc:
            raise FrameError(f"unencodable field {values!r}: {exc}") from None
        self._end += st.size

    def _put_str(self, text: str) -> None:
        raw = text.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FrameError(f"string field exceeds 65535 bytes: {len(raw)}")
        self._pack(_U16, len(raw))
        self._ensure(len(raw))
        self._buf[self._end : self._end + len(raw)] = raw
        self._end += len(raw)

    def _put_bytes(self, raw: bytes) -> None:
        self._ensure(len(raw))
        self._buf[self._end : self._end + len(raw)] = raw
        self._end += len(raw)

    def _begin(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        self._end = HEADER.size

    def _finish(self, op: int) -> memoryview:
        payload_len = self._end - HEADER.size
        if payload_len > MAX_FRAME_BYTES:
            raise OversizedFrame(
                f"payload of {payload_len} bytes exceeds {MAX_FRAME_BYTES}"
            )
        HEADER.pack_into(self._buf, 0, MAGIC, FRAME_VERSION, op, payload_len)
        self._view = memoryview(self._buf)[: self._end]
        return self._view

    # -- requests ------------------------------------------------------
    def encode_request(self, req: Dict[str, Any]) -> memoryview:
        """One request dict (JSON-protocol shape) as a binary frame.

        A hot-path op the struct codec cannot express (a field missing
        or of the wrong type, or a top-level key its layout has no slot
        for) falls back to an ``OP_JSON`` frame: the server still answers
        its ``bad_request`` in-band, exactly as the JSON dialect would —
        malformedness is the server's to judge — and no field is dropped.
        """
        op = REQUEST_OPS.get(req.get("op"), OP_JSON)
        if op != OP_JSON and not _SLOTS[op].issuperset(req) and any(
                req[key] is not None for key in req.keys() - _SLOTS[op]):
            op = OP_JSON
        if op != OP_JSON:
            self._begin()
            try:
                v = int(req.get("v", PROTOCOL_VERSION))
                if op in (OP_PING, OP_STATUS):
                    self._pack(_U8, v)
                elif op == OP_PREDICT:
                    self._encode_predict_req(v, req)
                elif op == OP_RANK:
                    self._encode_rank_req(v, req)
                elif op == OP_BATCH:
                    self._encode_batch_req(v, req)
                elif op == OP_OBSERVE:
                    self._encode_observe_req(v, req)
                elif op == OP_OBSERVE_BATCH:
                    self._encode_observe_batch_req(v, req)
                return self._finish(op)
            except FrameError:
                raise  # protocol bounds (overlong strings) stay hard errors
            except (KeyError, TypeError, ValueError, AttributeError):
                pass
        self._begin()
        self._put_bytes(json.dumps(req).encode("utf-8"))
        return self._finish(OP_JSON)

    def _put_trace(self, trace: Optional[Tuple[int, int]]) -> None:
        if trace is not None:
            self._pack(_U64, trace[0])
            self._pack(_U64, trace[1])

    def _put_head(self, v: int, req: Dict[str, Any], sized: bool = True) -> Any:
        """``v``, flags, [trace], [size], [now]: the head predict, rank
        and predict_batch share.  Returns the request's ``spec`` (or
        ``None``), which each op writes at its own position."""
        spec, now = req.get("spec"), req.get("now")
        trace = _trace_ids(req)
        self._pack(_U8, v)
        self._pack(_U8, (
            (_HAS_SPEC if spec is not None else 0)
            | (_HAS_NOW if now is not None else 0)
            | (_HAS_TRACE if trace is not None else 0)
        ))
        self._put_trace(trace)
        if sized:
            self._pack(_U64, int(req["size"]))
        if now is not None:
            self._pack(_F64, float(now))
        return spec

    def _encode_predict_req(self, v: int, req: Dict[str, Any]) -> None:
        spec = self._put_head(v, req)
        self._put_str(str(req["link"]))
        if spec is not None:
            self._put_str(str(spec))

    def _encode_rank_req(self, v: int, req: Dict[str, Any]) -> None:
        spec = self._put_head(v, req)
        if spec is not None:
            self._put_str(str(spec))
        candidates = req["candidates"]
        self._pack(_U32, len(candidates))
        for candidate in candidates:
            self._put_str(str(candidate))

    def _encode_batch_req(self, v: int, req: Dict[str, Any]) -> None:
        spec = self._put_head(v, req, sized=False)
        if spec is not None:
            self._put_str(str(spec))
        items = req["items"]
        self._pack(_U32, len(items))
        for item in items:
            ispec, inow = item.get("spec"), item.get("now")
            iflags = (_HAS_SPEC if ispec is not None else 0) | (
                _HAS_NOW if inow is not None else 0
            )
            self._pack(_U8, iflags)
            self._pack(_U64, int(item["size"]))
            if inow is not None:
                self._pack(_F64, float(inow))
            self._put_str(str(item["link"]))
            if ispec is not None:
                self._put_str(str(ispec))

    def _put_observation(
        self, item: Dict[str, Any], trace: Optional[Tuple[int, int]] = None
    ) -> None:
        """One observation: an ``observe`` request after its ``v`` byte,
        and each row of an ``observe_batch`` (whose trace context is
        batch-level, so rows pass none).

        Flags, [trace], the fused fixed fields, the optional durable
        offset, the link, and the optional metadata strings.
        """
        operation = item.get("operation", "read")
        if operation not in ("read", "write"):
            raise ValueError(f"unknown operation {operation!r}")
        meta = ("source_ip" in item or "file_name" in item or "volume" in item)
        if meta and not ("source_ip" in item and "file_name" in item
                         and "volume" in item):
            # Partial metadata cannot round-trip losslessly through the
            # struct layout; ride the JSON dialect instead.
            raise ValueError("partial observe metadata needs OP_JSON")
        offset = item.get("offset")
        self._pack(_U8, (
            (_OBS_WRITE if operation == "write" else 0)
            | (_OBS_HAS_META if meta else 0)
            | (_HAS_TRACE if trace is not None else 0)
            | (_OBS_HAS_OFFSET if offset is not None else 0)
        ))
        self._put_trace(trace)
        self._pack(
            _OBS_FIXED,
            int(item["size"]),
            float(item["start"]),
            float(item["end"]),
            float(item["bandwidth"]),
            int(item["streams"]),
            int(item["tcp_buffer"]),
        )
        if offset is not None:
            self._pack(_U64, int(offset))
        self._put_str(str(item["link"]))
        if meta:
            self._put_str(str(item["source_ip"]))
            self._put_str(str(item["file_name"]))
            self._put_str(str(item["volume"]))

    def _encode_observe_req(self, v: int, req: Dict[str, Any]) -> None:
        trace = _trace_ids(req)
        self._pack(_U8, v)
        self._put_observation(req, trace)

    def _encode_observe_batch_req(self, v: int, req: Dict[str, Any]) -> None:
        trace = _trace_ids(req)
        self._pack(_U8, v)
        self._pack(_U8, _HAS_TRACE if trace is not None else 0)
        self._put_trace(trace)
        items = req["items"]
        self._pack(_U32, len(items))
        for item in items:
            self._put_observation(item)

    # -- responses -----------------------------------------------------
    def encode_response(self, request_op: int, resp: Dict[str, Any]) -> memoryview:
        """One response dict as a binary frame, shaped by the request op.

        ``ok: false`` responses become ``OP_ERROR`` frames regardless of
        the request op.
        """
        self._begin()
        ok = bool(resp.get("ok"))
        if ok and request_op not in _STRUCT_RESPONSES:
            # OP_STATUS and every OP_JSON op: the whole dict as JSON.
            self._put_bytes(json.dumps(resp).encode("utf-8"))
            return self._finish(request_op)
        self._pack(_U8, int(resp.get("v", PROTOCOL_VERSION)))
        if not ok:
            self._put_error(resp)
            return self._finish(OP_ERROR)
        if request_op == OP_PREDICT:
            self._encode_prediction(resp)
        elif request_op == OP_RANK:
            ranking = resp["ranking"]
            self._pack(_U32, len(ranking))
            for entry in ranking:
                bw = entry["predicted_bandwidth"]
                self._pack(_U8, (_HAS_BW if bw is not None else 0)
                           | (_DEGRADED if entry.get("degraded") else 0))
                if bw is not None:
                    self._pack(_F64, float(bw))
                self._pack(_U64, int(entry["history_length"]))
                self._put_str(entry["site"])
        elif request_op == OP_OBSERVE:
            self._put_ack(resp)
        elif request_op == OP_OBSERVE_BATCH:
            self._put_results(resp["results"], self._put_ack)
        elif request_op == OP_BATCH:
            self._put_results(resp["results"], self._encode_prediction)
        return self._finish(request_op)  # OP_PING: the v byte is all of it

    def _put_error(self, resp: Dict[str, Any]) -> None:
        code, message = _error_fields(resp)
        self._put_str(code)
        self._put_str(message)

    def _put_ack(self, ack: Dict[str, Any]) -> None:
        self._pack(_U64, int(ack["version"]))
        self._put_str(ack["link"])

    def _put_results(self, results, put_ok: Callable[[Dict[str, Any]], None]) -> None:
        """The per-item ``ok | {code, message}`` entries of a batch response."""
        self._pack(_U32, len(results))
        for entry in results:
            if entry.get("ok"):
                self._pack(_U8, _ITEM_OK)
                put_ok(entry)
            else:
                self._pack(_U8, 0)
                self._put_error(entry)

    def _encode_prediction(self, p: Dict[str, Any]) -> None:
        value = p["value"]
        flags = (
            (_HAS_VALUE if value is not None else 0)
            | (_CACHED if p["cached"] else 0)
            | (_DEGRADED if p.get("degraded") else 0)
        )
        fixed = (flags, int(p["size"]), int(p["version"]),
                 int(p["history_length"]), float(p["latency_seconds"]))
        if value is not None:
            self._pack(_PRED_VAL, *fixed, float(value))
        else:
            self._pack(_PRED_NOVAL, *fixed)
        self._put_str(p["link"])
        self._put_str(p["spec"])


def _trace_ids(req: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    """``(trace_id, span_id)`` from a request's trace context, if any.

    Out-of-range ids raise ``ValueError`` so :meth:`encode_request`
    falls back to the JSON dialect rather than mangling the frame.
    """
    trace = req.get("trace")
    if trace is None:
        return None
    trace_id = int(trace["trace_id"])
    span_id = int(trace["span_id"])
    if not (0 <= trace_id <= 0xFFFFFFFFFFFFFFFF
            and 0 <= span_id <= 0xFFFFFFFFFFFFFFFF):
        raise ValueError(f"trace ids out of u64 range: {trace!r}")
    return trace_id, span_id


def _error_fields(resp: Dict[str, Any]) -> Tuple[str, str]:
    """``(code, message)`` of a failed response or batch entry.

    Tolerant of what a peer may send: a bare-string ``error`` (the
    pre-envelope shape) encodes as code ``"error"``.
    """
    error = resp.get("error")
    if isinstance(error, dict):
        return str(error.get("code", "error")), str(error.get("message", ""))
    return "error", str(error)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class _Reader:
    """Cursor over one payload; truncation surfaces as FrameError."""

    __slots__ = ("_buf", "_pos")

    def __init__(self, payload: bytes):
        self._buf = payload
        self._pos = 0

    def _unpack(self, st: struct.Struct) -> Any:
        try:
            (value,) = st.unpack_from(self._buf, self._pos)
        except struct.error as exc:
            raise FrameError(f"truncated payload: {exc}") from None
        self._pos += st.size
        return value

    def multi(self, st: struct.Struct) -> tuple:
        """Unpack a fused multi-field layout in one call."""
        try:
            values = st.unpack_from(self._buf, self._pos)
        except struct.error as exc:
            raise FrameError(f"truncated payload: {exc}") from None
        self._pos += st.size
        return values

    def u8(self) -> int:
        return self._unpack(_U8)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def f64(self) -> float:
        return self._unpack(_F64)

    def str_(self) -> str:
        n = self._unpack(_U16)
        end = self._pos + n
        if end > len(self._buf):
            raise FrameError("truncated payload: string runs past the frame")
        raw = self._buf[self._pos : end]
        self._pos = end
        return raw.decode("utf-8", errors="replace")


def _decode_json(payload: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"bad JSON payload: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError("JSON payload must be an object")
    return obj


def _read_envelope(r: _Reader, op: str) -> Tuple[Dict[str, Any], int]:
    """``v``, flags, [trace] — how every struct request but ping and
    status starts — as ``(req, flags)``."""
    v, flags = r.u8(), r.u8()
    req: Dict[str, Any] = {"op": op, "v": v}
    if flags & _HAS_TRACE:
        req["trace"] = {"trace_id": r.u64(), "span_id": r.u64()}
    return req, flags


def _read_head(
    r: _Reader, op: str, sized: bool = True
) -> Tuple[Dict[str, Any], int]:
    """The head :meth:`FrameWriter._put_head` wrote, as ``(req, flags)``;
    the caller reads ``spec`` at its op's position when flagged."""
    req, flags = _read_envelope(r, op)
    if sized:
        req["size"] = r.u64()
    if flags & _HAS_NOW:
        req["now"] = r.f64()
    return req, flags


def decode_request(op: int, payload: bytes) -> Dict[str, Any]:
    """A request frame's payload back into the JSON-protocol dict."""
    if op == OP_JSON:
        return _decode_json(payload)
    r = _Reader(payload)
    if op == OP_PING:
        return {"op": "ping", "v": r.u8()}
    if op == OP_STATUS:
        return {"op": "status", "v": r.u8()}
    if op == OP_PREDICT:
        req, flags = _read_head(r, "predict")
        req["link"] = r.str_()
        if flags & _HAS_SPEC:
            req["spec"] = r.str_()
        return req
    if op == OP_RANK:
        req, flags = _read_head(r, "rank")
        if flags & _HAS_SPEC:
            req["spec"] = r.str_()
        req["candidates"] = [r.str_() for _ in range(r.u32())]
        return req
    if op == OP_BATCH:
        req, flags = _read_head(r, "predict_batch", sized=False)
        if flags & _HAS_SPEC:
            req["spec"] = r.str_()
        items = []
        for _ in range(r.u32()):
            iflags = r.u8()
            item: Dict[str, Any] = {"size": r.u64()}
            if iflags & _HAS_NOW:
                item["now"] = r.f64()
            item["link"] = r.str_()
            if iflags & _HAS_SPEC:
                item["spec"] = r.str_()
            items.append(item)
        req["items"] = items
        return req
    if op == OP_OBSERVE:
        req, flags = _read_envelope(r, "observe")
        return _read_observation(r, flags, req)
    if op == OP_OBSERVE_BATCH:
        req, flags = _read_envelope(r, "observe_batch")
        req["items"] = [_read_observation(r, r.u8(), {}) for _ in range(r.u32())]
        return req
    raise FrameError(f"unknown request op 0x{op:02x}")


def _read_observation(r: _Reader, flags: int, into: Dict[str, Any]) -> Dict[str, Any]:
    """What follows the flags (and trace) of one observation, into ``into``."""
    size, start, end, bandwidth, streams, tcp_buffer = r.multi(_OBS_FIXED)
    into.update({
        "size": size,
        "start": start,
        "end": end,
        "bandwidth": bandwidth,
        "operation": "write" if flags & _OBS_WRITE else "read",
        "streams": streams,
        "tcp_buffer": tcp_buffer,
    })
    if flags & _OBS_HAS_OFFSET:
        into["offset"] = r.u64()
    into["link"] = r.str_()
    if flags & _OBS_HAS_META:
        into["source_ip"] = r.str_()
        into["file_name"] = r.str_()
        into["volume"] = r.str_()
    return into


def _decode_prediction(r: _Reader) -> Dict[str, Any]:
    flags = r.u8()
    if flags & _HAS_VALUE:
        size, version, length, latency, value = r.multi(_PRED_VAL_TAIL)
    else:
        size, version, length, latency = r.multi(_PRED_NOVAL_TAIL)
        value = None
    link, spec = r.str_(), r.str_()
    return {
        "link": link,
        "spec": spec,
        "size": size,
        "value": value,
        "cached": bool(flags & _CACHED),
        "version": version,
        "history_length": length,
        "latency_seconds": latency,
        "degraded": bool(flags & _DEGRADED),
    }


def _decode_ack(r: _Reader) -> Dict[str, Any]:
    version = r.u64()
    return {"link": r.str_(), "version": version}


def _decode_results(
    r: _Reader, v: int, read_ok: Callable[[_Reader], Dict[str, Any]]
) -> Dict[str, Any]:
    """A batch response: the entries :meth:`FrameWriter._put_results` wrote."""
    results = []
    for _ in range(r.u32()):
        if r.u8() & _ITEM_OK:
            results.append({"ok": True, **read_ok(r)})
        else:
            results.append(error_entry(r.str_(), r.str_()))
    return {"ok": True, "v": v, "count": len(results), "results": results}


def decode_response(op: int, payload: bytes) -> Dict[str, Any]:
    """A response frame's payload back into the JSON-protocol dict."""
    if op == OP_JSON or op == OP_STATUS:
        return _decode_json(payload)
    r = _Reader(payload)
    v = r.u8()
    if op == OP_ERROR:
        code, message = r.str_(), r.str_()
        return {"ok": False, "v": v, "error": {"code": code, "message": message}}
    if op == OP_PING:
        return {"ok": True, "v": v, "pong": True}
    if op == OP_PREDICT:
        return {"ok": True, "v": v, **_decode_prediction(r)}
    if op == OP_RANK:
        ranking = []
        for _ in range(r.u32()):
            flags = r.u8()
            bw = r.f64() if flags & _HAS_BW else None
            length = r.u64()
            site = r.str_()
            ranking.append({
                "site": site,
                "predicted_bandwidth": bw,
                "history_length": length,
                "degraded": bool(flags & _DEGRADED),
            })
        return {"ok": True, "v": v, "ranking": ranking}
    if op == OP_BATCH:
        return _decode_results(r, v, _decode_prediction)
    if op == OP_OBSERVE:
        return {"ok": True, "v": v, **_decode_ack(r)}
    if op == OP_OBSERVE_BATCH:
        return _decode_results(r, v, _decode_ack)
    raise FrameError(f"unknown response op 0x{op:02x}")


def error_entry(code: str, message: str) -> Dict[str, Any]:
    """One failed item of a batch response: ``{"ok": false, "error"}``."""
    return {"ok": False, "error": {"code": code, "message": message}}


def error_response(code: str, message: str) -> Dict[str, Any]:
    """The versioned error envelope."""
    return {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error": {"code": code, "message": message},
    }


def read_frame(
    stream: BinaryIO, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Tuple[int, bytes]]:
    """Read one ``(op, payload)`` frame; ``None`` on clean EOF.

    Raises :class:`TruncatedFrame` when the stream ends mid-frame,
    :class:`OversizedFrame` when the declared length exceeds
    ``max_bytes`` (the frame body is left unread), and plain
    :class:`FrameError` on a bad magic or frame version.
    """
    header = stream.read(HEADER.size)
    if not header:
        return None
    if len(header) < HEADER.size:
        raise TruncatedFrame(f"frame header cut short at {len(header)} bytes")
    magic, version, op, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version} (this side speaks "
            f"{FRAME_VERSION})"
        )
    if length > max_bytes:
        raise OversizedFrame(f"frame payload of {length} bytes exceeds {max_bytes}")
    payload = stream.read(length) if length else b""
    if len(payload) < length:
        raise TruncatedFrame(
            f"frame payload cut short: {len(payload)} of {length} bytes"
        )
    return op, payload
