"""ServiceClient — the one public way to talk to a prediction server.

Every consumer of the socket protocol (the CLI, benchmarks, tests) goes
through :class:`ServiceClient`.  It speaks both wire dialects over one
reused connection:

* **JSON-lines** (the default) — one JSON object per line, human-
  debuggable with ``nc -U``;
* **binary frames** (``binary=True``) — the length-prefixed
  struct-packed protocol of :mod:`repro.wire`, the shape batch traffic
  wants.

Both dialects carry the same versioned request/response envelope: every
request is stamped with the protocol schema version ``v`` (current: 1)
and every response echoes one; errors arrive normalized as
``{"ok": false, "error": {"code", "message"}}``.  A peer's bytes are
outside input, so the client also accepts the bare-string ``error`` a
pre-envelope server emits — :func:`error_info` is the one place both
shapes are normalized.

Connection lifecycle: lazy connect on first use, retried through server
startup races under :data:`CONNECT_RETRY_POLICY` (the fault-injection
site ``socket.connect`` fires per attempt); a request that fails on a
*reused* connection reconnects and retries once, so a server restart
between requests is invisible; a failure on a fresh connection
propagates — the server really is unreachable.  When every connect
attempt fails the underlying ``OSError`` is re-raised, so callers keep
catching ``OSError``/``ConnectionError``.

    with ServiceClient("/tmp/repro.sock") as client:
        p = client.predict("LBL-ANL", 600_000_000)
        batch = client.predict_batch([("LBL-ANL", 10**9)] * 1000)

    with ServiceClient("/tmp/repro.sock", binary=True) as client:
        ranking = client.rank(["LBL-ANL", "ISI-ANL"], 10**9)
"""

from __future__ import annotations

import json
import re
import socket
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults as _faults
from repro import wire
from repro.obs.tracing import current_span
from repro.resilience import RetryError, RetryPolicy

__all__ = [
    "ServiceClient",
    "ServiceError",
    "CONNECT_RETRY_POLICY",
    "error_info",
]

#: Default client-side policy for reaching a server that is still
#: binding its socket (``repro serve`` startup race): a missing socket
#: file or a refused/timed-out connect retries briefly with backoff.
CONNECT_RETRY_POLICY = RetryPolicy(
    max_attempts=5, base_delay=0.05, multiplier=2.0, max_delay=0.5, jitter=0.25
)

_CONNECT_RETRY_ON = (
    ConnectionRefusedError,
    ConnectionResetError,
    FileNotFoundError,   # the socket path does not exist yet
    socket.timeout,
)

#: One JSON response line may not exceed this.
MAX_RESPONSE_BYTES = wire.MAX_FRAME_BYTES

#: ``host:port`` (optionally ``tcp://host:port``) selects TCP transport;
#: anything else — including every path containing ``/`` — is a Unix
#: socket path, which keeps the historical address form unambiguous.
_HOST_PORT = re.compile(r"^(?P<host>[^/\s:]+):(?P<port>\d{1,5})$")


def _parse_address(address: str):
    """``("unix", path)`` or ``("tcp", (host, port))`` from an address.

    The federation front tier listens on TCP; workers and the
    single-process server stay on Unix sockets.  One client speaks to
    either — the address decides.
    """
    text = str(address)
    if text.startswith("tcp://"):
        rest = text[len("tcp://"):]
        match = _HOST_PORT.match(rest)
        if match is None:
            raise ValueError(f"bad tcp address {text!r}; expected tcp://host:port")
        return "tcp", (match.group("host"), int(match.group("port")))
    match = _HOST_PORT.match(text)
    if match is not None:
        return "tcp", (match.group("host"), int(match.group("port")))
    return "unix", text


def error_info(response: Dict[str, Any]) -> Tuple[str, str]:
    """``(code, message)`` from a failed response, either error shape.

    The normalized envelope yields its ``code``/``message`` pair; a
    bare-string ``error`` yields ``("error", <the string>)``.
    """
    error = response.get("error")
    if isinstance(error, dict):
        return str(error.get("code", "error")), str(error.get("message", ""))
    return "error", str(error)


def _fill_bandwidth(entry: Dict[str, Any]) -> None:
    """Set a missing ``bandwidth`` to ``size / (end - start)`` in place,
    or leave it out for the server to refuse (a zero duration)."""
    if entry.get("bandwidth") is None:
        try:
            entry["bandwidth"] = (
                int(entry["size"]) / (float(entry["end"]) - float(entry["start"]))
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            entry.pop("bandwidth", None)


class _Unavailable(Exception):
    """Internal retry marker wrapping an ``unavailable`` ServiceError."""

    def __init__(self, error: "ServiceError"):
        super().__init__(str(error))
        self.error = error


class ServiceError(RuntimeError):
    """The server answered ``ok: false``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}" if code != "error" else message)
        self.code = code
        self.message = message

    @classmethod
    def from_response(cls, response: Dict[str, Any]) -> "ServiceError":
        return cls(*error_info(response))


class ServiceClient:
    """A reusable connection to a :class:`~repro.service.server.ServiceServer`.

    Parameters
    ----------
    socket_path:
        The server's address: a Unix socket path, or ``host:port`` /
        ``tcp://host:port`` for a TCP server (the federation front
        tier).
    binary:
        Speak the :mod:`repro.wire` binary frame protocol instead of
        JSON-lines.  Same requests, same responses — the server
        autodetects per connection.
    timeout:
        Per-operation socket timeout (seconds).
    retry:
        Connect retry policy (default :data:`CONNECT_RETRY_POLICY`);
        pass ``RetryPolicy(max_attempts=1)`` to fail fast.

    Thread safety: one client, one connection, one request in flight —
    share a server between threads by giving each thread its own client.
    """

    def __init__(
        self,
        socket_path: Union[str, Path],
        *,
        binary: bool = False,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.socket_path = str(socket_path)
        self._address = _parse_address(self.socket_path)
        self.binary = binary
        self.timeout = timeout
        self._retry = CONNECT_RETRY_POLICY if retry is None else retry
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._writer = wire.FrameWriter() if binary else None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> "ServiceClient":
        """Connect now (otherwise the first request connects lazily).

        Refused/timed-out connects and a socket path that does not exist
        *yet* retry under the policy; when every attempt fails the
        underlying ``OSError`` is re-raised.
        """
        if self._sock is not None:
            return self
        try:
            self._retry.call(
                self._connect_once,
                retry_on=_CONNECT_RETRY_ON,
                label=f"connect[{self.socket_path}]",
            )
        except RetryError as exc:
            cause = exc.__cause__
            if isinstance(cause, OSError):
                raise cause
            raise
        return self

    def _connect_once(self) -> None:
        kind, target = self._address
        _faults.check("socket.connect", path=self.socket_path)
        if kind == "tcp":
            sock = socket.create_connection(target, timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(target)
            except BaseException:
                sock.close()
                raise
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request dict, return the raw response envelope.

        The request is stamped with the protocol version (``v``) if the
        caller did not set one, and — when the calling context is inside
        a live span — with that span's trace context (``trace``), so the
        server's request span joins the caller's trace (end-to-end
        distributed traces over either dialect).  Pass an explicit
        ``trace`` (or ``"trace": None``) to override the ambient one.
        ``ok: false`` responses come back as dicts — use the typed
        helpers (:meth:`predict`, :meth:`rank`, ...) to get raising
        behavior instead.
        """
        stamp: Dict[str, Any] = {}
        if "v" not in req:
            stamp["v"] = wire.PROTOCOL_VERSION
        if "trace" not in req:
            parent = current_span()
            if parent is not None:
                stamp["trace"] = {
                    "trace_id": parent.trace_id,
                    "span_id": parent.span_id,
                }
        if stamp:
            req = {**req, **stamp}
        if "trace" in req and req["trace"] is None:
            req = {key: value for key, value in req.items() if key != "trace"}
        fresh = self._sock is None
        if fresh:
            self.connect()
        try:
            return self._roundtrip(req)
        except (OSError, ConnectionError, wire.FrameError):
            self.close()
            if fresh:
                raise
            # The reused connection went stale (server restart, idle
            # timeout): reconnect and retry exactly once.
            self.connect()
            return self._roundtrip(req)

    def _roundtrip(self, req: Dict[str, Any]) -> Dict[str, Any]:
        if self.binary:
            self._sock.sendall(self._writer.encode_request(req))
            result = wire.read_frame(self._rfile)
            if result is None:
                raise ConnectionError(f"no response from {self.socket_path}")
            op, payload = result
            return wire.decode_response(op, payload)
        self._sock.sendall(json.dumps(req).encode("utf-8") + b"\n")
        line = self._rfile.readline(MAX_RESPONSE_BYTES)
        if not line:
            raise ConnectionError(f"no response from {self.socket_path}")
        return json.loads(line.decode("utf-8"))

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """A request that raises :class:`ServiceError` on ``ok: false``.

        Error classification: an in-band ``unavailable`` answer (a
        federation shard is down, its worker restarting) is *transient*
        and retries under the client's connect policy — by the time the
        policy is exhausted a supervised worker has usually respawned.
        ``overloaded`` (admission control shed the request) and every
        other code surface immediately: retrying into an overloaded
        shard only deepens the queue it is shedding.
        """
        req = {"op": op, **fields}

        def attempt() -> Dict[str, Any]:
            response = self.request(dict(req))
            if not response.get("ok"):
                error = ServiceError.from_response(response)
                if error.code == "unavailable":
                    raise _Unavailable(error)
                raise error
            return response

        try:
            return self._retry.call(
                attempt, retry_on=(_Unavailable,), label=f"call[{op}]"
            )
        except RetryError as exc:
            cause = exc.__cause__
            if isinstance(cause, _Unavailable):
                raise cause.error from None
            raise

    # ------------------------------------------------------------------
    # the public API
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def predict(
        self,
        link: str,
        size: int,
        spec: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One prediction payload (``link``/``spec``/``value``/...)."""
        req: Dict[str, Any] = {"link": link, "size": int(size)}
        if spec is not None:
            req["spec"] = spec
        if now is not None:
            req["now"] = now
        return self.call("predict", **req)

    def predict_batch(
        self,
        items: Sequence,
        spec: Optional[str] = None,
        now: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Per-item result dicts for a batch of ``(link, size)`` pairs.

        ``items`` may be ``(link, size[, spec[, now]])`` tuples or
        ``{"link", "size", "spec"?, "now"?}`` dicts; ``spec``/``now``
        are batch-wide defaults.  Each result is either a prediction
        payload with ``ok: true`` or a per-item ``{"ok": false,
        "error": {...}}`` — a bad item never fails the batch.
        """
        wire_items = []
        for item in items:
            if isinstance(item, dict):
                wire_items.append(item)
            else:
                entry: Dict[str, Any] = {"link": item[0], "size": int(item[1])}
                if len(item) > 2 and item[2] is not None:
                    entry["spec"] = item[2]
                if len(item) > 3 and item[3] is not None:
                    entry["now"] = item[3]
                wire_items.append(entry)
        req: Dict[str, Any] = {"items": wire_items}
        if spec is not None:
            req["spec"] = spec
        if now is not None:
            req["now"] = now
        return self.call("predict_batch", **req)["results"]

    def rank(
        self,
        candidates: Sequence[str],
        size: int,
        spec: Optional[str] = None,
        now: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """The ordered replica ranking for a transfer of ``size`` bytes."""
        req: Dict[str, Any] = {"candidates": list(candidates), "size": int(size)}
        if spec is not None:
            req["spec"] = spec
        if now is not None:
            req["now"] = now
        return self.call("rank", **req)["ranking"]

    def observe(
        self,
        link: str,
        size: int,
        start: float,
        end: float,
        bandwidth: Optional[float] = None,
        *,
        operation: str = "read",
        streams: int = 1,
        tcp_buffer: int = 65536,
        source_ip: Optional[str] = None,
        file_name: Optional[str] = None,
        volume: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> int:
        """Push one completed transfer; returns the link's new version.

        The acknowledgement is durable: a server running with a state
        dir persists the record before answering, so an acked observe
        survives the server being killed outright.  ``bandwidth``
        defaults to ``size / (end - start)`` (computed client-side so
        the request stays on the struct-packed binary codec); when that
        is not a number the server refuses the observation, which
        raises :class:`ServiceError` ``bad_request``.
        """
        req: Dict[str, Any] = {
            "link": link,
            "size": int(size),
            "start": float(start),
            "end": float(end),
            "bandwidth": None if bandwidth is None else float(bandwidth),
            "operation": operation,
            "streams": int(streams),
            "tcp_buffer": int(tcp_buffer),
        }
        _fill_bandwidth(req)
        if source_ip is not None or file_name is not None or volume is not None:
            req["source_ip"] = source_ip if source_ip is not None else "0.0.0.0"
            req["file_name"] = file_name if file_name is not None else "/transfer"
            req["volume"] = volume if volume is not None else "/"
        if offset is not None:
            req["offset"] = int(offset)
        return int(self.call("observe", **req)["version"])

    def observe_batch(self, items: Sequence) -> List[Dict[str, Any]]:
        """Push many completed transfers in one round trip.

        ``items`` may be ``(link, size, start, end[, bandwidth])``
        tuples or dicts with the same fields :meth:`observe` accepts
        (``operation``, ``streams``, ``tcp_buffer``, ``offset``,
        metadata, ...).  Missing ``bandwidth`` is computed client-side
        so the batch stays on the struct-packed binary codec.  Each
        result is a per-item ack ``{"ok": true, "link", "version"}`` or
        ``{"ok": false, "error": {...}}``, in request order — a bad
        item never fails the batch, and an acked item is durable under
        the same contract as a single observe (the server group-commits
        the whole batch before answering).
        """
        wire_items: List[Dict[str, Any]] = []
        for item in items:
            if isinstance(item, dict):
                entry = dict(item)
            else:
                entry = {"link": item[0], "size": int(item[1]),
                         "start": float(item[2]), "end": float(item[3])}
                if len(item) > 4 and item[4] is not None:
                    entry["bandwidth"] = float(item[4])
            _fill_bandwidth(entry)
            entry.setdefault("operation", "read")
            entry.setdefault("streams", 1)
            entry.setdefault("tcp_buffer", 65536)
            wire_items.append(entry)
        return self.call("observe_batch", items=wire_items)["results"]

    def status(self) -> Dict[str, Any]:
        return self.call("status")

    def __repr__(self) -> str:
        proto = "binary" if self.binary else "json"
        state = "connected" if self.connected else "idle"
        return f"<ServiceClient {self.socket_path} proto={proto} {state}>"
