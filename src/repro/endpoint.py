"""The one serving loop: a dual-dialect socket endpoint around a dispatcher.

In the paper's MDS-2 tier a GIIS is the same server as a GRIS with a
different backend behind it (Section 5); here the worker
(:class:`repro.service.server.ServiceServer`, a Unix socket in front of
a ``PredictionService``) and the fleet front
(:class:`repro.fleet.front.FleetFront`, TCP in front of the shard
links) are this module's :class:`Endpoint` bound to two different
``dispatch(req, deadline) -> response`` callables.  Everything a peer
can observe about the protocol is therefore decided here, once:

* the **dialect sniff** — a connection whose first byte is the binary
  magic (``0xA5``, never a valid JSON/UTF-8 lead byte) speaks
  :mod:`repro.wire` frames, anything else JSON-lines;
* the **bounds** — a JSON line of more than :data:`MAX_REQUEST_BYTES`
  (newline or not) and a frame declaring more than
  :data:`repro.wire.MAX_FRAME_BYTES` are refused without being read;
* **which errors keep the connection** — a malformed line or an
  undecodable payload behind an intact frame boundary answer in-band
  (``bad_request`` / ``bad_frame``) and the loop goes on; an oversized
  request, a bad magic or frame version and a truncated frame leave the
  stream desynchronized, so they answer in-band (``oversized_request``
  / ``bad_frame``) when the pipe still allows it and close;
* the **envelope prelude** (:func:`answer`) — the integer ``v`` check
  and ``unsupported_version``, the per-request deadline, a span
  parented on the request's ``trace``, and the mapping of exceptions
  onto ``bad_request`` / ``deadline_exceeded`` / ``internal``;
* the **counters** — ``server_requests`` / ``server_bad_requests`` per
  ``protocol``, ``server_deadline_exceeded``, ``server_internal_errors``
  and ``server_accept_errors``, in whichever process serves;
* the **accept loop** — a daemon thread per connection, and a paced
  backoff instead of death on fd exhaustion (``EMFILE`` / ``ENFILE``).

Threads, not an event loop: a worker's handler blocks by contract (an
``observe`` is acknowledged only after its WAL write and group commit),
so it needs a thread per connection whatever accepts for it, and the
front's only concurrency need — fan-out to a handful of workers — is
met by writing every sub-request before reading any answer.  A slow or
silent client costs its endpoint one parked thread and one socket; there
is no idle timeout on either server (see ``docs/federation.md``).

Imports nothing of :mod:`repro.service` and no numpy, so a process that
only routes (the front, ``repro fleet``) stays as small as a client.
"""

from __future__ import annotations

import errno
import json
import socket
import socketserver
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro import wire
from repro.obs.metrics import get_registry
from repro.obs.tracing import SpanContext, span
from repro.resilience import Deadline, DeadlineExceeded

__all__ = ["Endpoint", "ConnectionHandler", "answer", "MAX_REQUEST_BYTES"]

#: One JSON request line may not exceed this (a malicious or confused
#: client must not balloon a handler's memory).  Binary frames carry
#: their own bound, :data:`repro.wire.MAX_FRAME_BYTES`.
MAX_REQUEST_BYTES = 1 << 20

#: A Unix socket path, or ``(host, port)`` for TCP.
Address = Union[str, Path, Tuple[str, int]]
Dispatch = Callable[[Dict[str, Any], Deadline], Dict[str, Any]]
#: ``route(op, req, deadline)``: the op's payload, or ``None`` for an
#: op the server does not know.
Route = Callable[[str, Dict[str, Any], Deadline], Optional[Dict[str, Any]]]

# The request/bad-request counters carry a ``protocol`` label so the two
# dialects are separable in one scrape (see docs/observability.md).
_REG = get_registry()
_M_REQUESTS = _REG.counter(
    "server_requests", "requests answered by the socket server")
_M_BAD = _REG.counter(
    "server_bad_requests", "malformed or oversized requests answered in-band")
_M_DEADLINES = _REG.counter(
    "server_deadline_exceeded", "requests cut off by the per-request deadline")
_M_INTERNAL = _REG.counter(
    "server_internal_errors", "unexpected handler exceptions answered in-band")
_M_ACCEPT_ERRORS = _REG.counter(
    "server_accept_errors",
    "accept() failures survived by backing off (fd exhaustion etc.)")


def _remote_parent(req: Dict[str, Any]) -> Optional[SpanContext]:
    """The caller's span identity from the request envelope, if sane.

    A malformed trace context is ignored rather than rejected — tracing
    is telemetry, and a bad passenger field must never fail a query.
    """
    trace = req.get("trace")
    if not isinstance(trace, dict):
        return None
    try:
        trace_id = int(trace["trace_id"])
        span_id = int(trace["span_id"])
    except (KeyError, TypeError, ValueError):
        return None
    if trace_id <= 0 or span_id <= 0:
        return None
    return SpanContext(trace_id, span_id)


def answer(
    req: Dict[str, Any],
    deadline: Optional[Deadline],
    route: Route,
    span_prefix: str = "server",
) -> Dict[str, Any]:
    """Answer one request dict through ``route``; never raises.

    The envelope prelude shared by every dispatcher.  ``deadline``
    bounds the whole request: it is checked before and after the op and
    handed to ``route`` so multi-step ops can check it between steps.  A
    request carrying its caller's ``trace`` runs under a
    ``<span_prefix>.<op>`` span parented on it (untraced requests open
    none).  ``route``'s payload is overlaid on the success envelope, so
    one that carries its own ``ok`` / ``v`` / ``error`` — a forwarded
    worker answer, an in-band refusal — keeps them.
    """
    deadline = deadline or Deadline.unbounded()
    try:
        v = req.get("v", wire.PROTOCOL_VERSION)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"bad protocol version {v!r}")
        if v > wire.PROTOCOL_VERSION:
            return wire.error_response(
                "unsupported_version",
                f"protocol version {v} not supported (this server speaks "
                f"{wire.PROTOCOL_VERSION})",
            )
        deadline.check("request")
        op = req.get("op")
        parent = _remote_parent(req)
        scope = (
            span(f"{span_prefix}.{op}", parent=parent)
            if parent is not None else nullcontext()
        )
        with scope:
            payload = route(op, req, deadline) if isinstance(op, str) else None
        if payload is None:
            return wire.error_response("unknown_op", f"unknown op {op!r}")
        deadline.check("request")
        return {"ok": True, "v": wire.PROTOCOL_VERSION, **payload}
    except DeadlineExceeded as exc:
        _M_DEADLINES.inc()
        return wire.error_response(
            "deadline_exceeded", f"DeadlineExceeded: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        return wire.error_response(
            "bad_request", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # the boundary: a connection thread never dies
        _M_INTERNAL.inc()
        return wire.error_response(
            "internal", f"internal error: {type(exc).__name__}: {exc}")


class ConnectionHandler(socketserver.StreamRequestHandler):
    """One connection: answer requests in-band, survive everything.

    Only transport failure (the peer going away) or an unrecoverably
    desynchronized stream ends the loop, and the latter answers in-band
    first when the pipe allows it (see the module docstring for which
    errors are which).
    """

    def handle(self) -> None:
        try:
            first = self.rfile.peek(1)[:1]
        except OSError:
            return
        if first == wire.MAGIC[:1]:
            self._handle_binary()
        else:
            self._handle_json()

    # -- shared ---------------------------------------------------------
    def _dispatch(self, req: Dict[str, Any], protocol: str) -> Dict[str, Any]:
        timeout = self.server.request_timeout
        response = self.server.dispatch(
            req, Deadline.after(timeout) if timeout else Deadline.unbounded()
        )
        self._count(_M_REQUESTS, protocol)
        return response

    @staticmethod
    def _count(counter, protocol: str) -> None:
        counter.inc()
        counter.labels(protocol=protocol).inc()

    def _write(self, data) -> bool:
        try:
            self.wfile.write(data)
            return True
        except OSError:
            return False

    # -- JSON-lines loop ------------------------------------------------
    def _handle_json(self) -> None:
        while True:
            try:
                raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except OSError:
                return  # the peer is gone; nothing left to answer
            if not raw:
                return
            if len(raw) > MAX_REQUEST_BYTES:
                # The rest of this oversized line is still in the pipe;
                # answering and closing is the only way to stay in sync.
                self._count(_M_BAD, "json")
                self._write_json(wire.error_response(
                    "oversized_request",
                    f"request exceeds {MAX_REQUEST_BYTES} bytes",
                ))
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                req = json.loads(line)
                if not isinstance(req, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                self._count(_M_BAD, "json")
                self._count(_M_REQUESTS, "json")
                response = wire.error_response(
                    "bad_request", f"bad request: {exc}")
            else:
                response = self._dispatch(req, "json")
            if not self._write_json(response):
                return

    def _write_json(self, response: Dict[str, Any]) -> bool:
        return self._write(json.dumps(response).encode("utf-8") + b"\n")

    # -- binary frame loop ----------------------------------------------
    def _handle_binary(self) -> None:
        # One writer per connection: encoding reuses its buffer, so a
        # steady request stream allocates nothing per frame.
        writer = wire.FrameWriter()
        while True:
            try:
                frame = wire.read_frame(self.rfile)
            except wire.FrameError as exc:
                # Oversized (the body is left unread), truncated, bad
                # magic or frame version: no way to find the next frame
                # boundary.  Answer if the write side still works, close.
                self._count(_M_BAD, "binary")
                oversized = isinstance(exc, wire.OversizedFrame)
                self._write_error(
                    writer, "oversized_request" if oversized else "bad_frame",
                    str(exc))
                return
            except OSError:
                return
            if frame is None:
                return  # clean EOF
            op, payload = frame
            try:
                req = wire.decode_request(op, payload)
            except wire.FrameError as exc:
                # The frame boundary held; only this payload is bad.
                self._count(_M_BAD, "binary")
                if not self._write_error(writer, "bad_frame", str(exc)):
                    return
                continue
            response = self._dispatch(req, "binary")
            try:
                out = writer.encode_response(op, response)
            except ValueError as exc:  # a FrameError, or a value no slot holds
                out = writer.encode_response(op, wire.error_response(
                    "internal", f"unencodable response: {exc}"
                ))
            if not self._write(out):
                return

    def _write_error(self, writer: wire.FrameWriter, code: str, message: str) -> bool:
        return self._write(
            writer.encode_response(wire.OP_ERROR, wire.error_response(code, message))
        )


class _SocketServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128

    #: fd-exhaustion backoff: on EMFILE/ENFILE the accept loop pauses
    #: (doubling from ``accept_backoff`` up to ``accept_backoff_max``)
    #: instead of dying — connections in flight keep their fds, and once
    #: some close, accepting resumes.  Every such failure increments the
    #: ``server_accept_errors`` counter.
    accept_backoff = 0.05
    accept_backoff_max = 1.0
    _accept_delay = 0.0

    def __init__(
        self, address: Address, dispatch: Dispatch, request_timeout: Optional[float]
    ):
        tcp = isinstance(address, tuple)
        self.address_family = socket.AF_INET if tcp else socket.AF_UNIX
        self.dispatch = dispatch
        self.request_timeout = request_timeout
        super().__init__(address if tcp else str(address), ConnectionHandler)

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        # How often the loop looks for a shutdown request: the most a
        # stop waits (socketserver's 0.5 s made every stop cost that).
        super().serve_forever(poll_interval)

    def get_request(self):
        try:
            request, client_address = super().get_request()
        except OSError as exc:
            if exc.errno in (errno.EMFILE, errno.ENFILE):
                _M_ACCEPT_ERRORS.inc()
                self._accept_delay = min(
                    self._accept_delay * 2 or self.accept_backoff,
                    self.accept_backoff_max,
                )
                # serve_forever() swallows the OSError and loops; the
                # sleep is what turns that into a paced retry instead of
                # a hot spin against an exhausted fd table.
                time.sleep(self._accept_delay)
            raise
        self._accept_delay = 0.0
        if self.address_family != socket.AF_UNIX:
            # Request/response traffic: never wait to coalesce a reply.
            request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return request, client_address


class Endpoint:
    """Serve ``dispatch(req, deadline) -> response`` on a socket.

    ``address`` is a Unix socket path or ``(host, port)`` (port 0 picks
    a free one; :attr:`address` holds the bound pair once started).
    Connections are handled on daemon threads, each speaking JSON-lines
    or binary frames as its first byte decides; ``request_timeout``
    becomes each request's :class:`~repro.resilience.Deadline`.  Use as
    a context manager or call :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        address: Address,
        dispatch: Dispatch,
        request_timeout: Optional[float] = None,
        name: str = "repro-serve",
    ):
        self.address = address
        self.dispatch = dispatch
        self.request_timeout = request_timeout
        self.name = name
        self._server: Optional[_SocketServer] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_requested = False

    def _bind(self) -> _SocketServer:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._unlink()
        server = _SocketServer(self.address, self.dispatch, self.request_timeout)
        if isinstance(self.address, tuple):
            self.address = server.server_address[:2]
        self._server = server
        if self._stop_requested:  # asked before there was a server to tell
            self.request_stop()
        return server

    def _unlink(self) -> None:
        if not isinstance(self.address, tuple):
            Path(self.address).unlink(missing_ok=True)

    def _close(self) -> None:
        self._server.server_close()
        self._unlink()
        self._server = None
        self._stop_requested = False

    def start(self) -> "Endpoint":
        """Bind now (the address is valid on return), serve on a thread."""
        self._thread = threading.Thread(
            target=self._bind().serve_forever, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def request_stop(self) -> None:
        """Ask a running :meth:`serve_forever` loop to exit — or, before
        the server is bound, the loop about to run: the request is
        recorded, and the bind passes it on.

        Safe from a signal handler: ``shutdown()`` blocks until the
        accept loop notices, and the loop runs on the very thread the
        handler interrupted — so the call is made from a helper thread
        and this returns immediately.  Socket cleanup happens where the
        loop was started (``serve_forever``'s finally, or :meth:`stop`).
        """
        self._stop_requested = True
        server = self._server
        if server is not None:
            threading.Thread(
                target=server.shutdown, name="repro-stop", daemon=True
            ).start()

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (the CLI path)."""
        server = self._bind()
        try:
            server.serve_forever()
        finally:
            self._close()

    def __enter__(self) -> "Endpoint":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
