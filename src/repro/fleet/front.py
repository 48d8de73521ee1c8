"""The GIIS-style TCP front tier of the serving fleet.

The same :class:`repro.endpoint.Endpoint` a worker serves its Unix
socket with — both wire dialects, the same bounds, in-band errors,
counters and accept backoff — bound to TCP and to this module's routes
instead of a ``PredictionService``:

* ``predict`` / ``observe`` route to the owning shard by consistent
  hash and forward over pooled binary Unix-socket connections;
* ``predict_batch`` / ``observe_batch`` partition items per shard, fan
  the sub-batches out, and reassemble results in request order;
* ``rank`` fans per-shard sub-rankings out and merges them — confident
  predictions first (descending bandwidth), degraded answers after,
  no-history candidates last;
* ``status`` aggregates every shard's status under one envelope with a
  ``fleet`` section describing per-worker health.

**Fan-out without a second thread.**  Everything here is plain
blocking code on the endpoint's connection threads.  A request that
touches several shards (:meth:`FleetFront._scatter`) writes every
sub-request before it reads any answer, so the workers compute in
parallel while the one thread waits.

**Robustness.**  Each shard gets a heartbeat thread and a
:class:`~repro.resilience.breaker.CircuitBreaker`: transport failures
and timeouts trip it, an open breaker fails fast with a normalized
``unavailable`` error (no connect timeout burned per request while a
worker restarts), and the heartbeat doubles as the half-open probe that
closes it again.  Admission control bounds each shard's in-flight
requests: past ``max_pending`` the front answers ``overloaded``
immediately instead of queueing without bound — shed load is the
failure mode, not collapse.  With ``fallback=True`` the front remembers
the last confident prediction per ``(link, spec)`` and serves it —
marked ``degraded`` — while the owning shard is down; ranked after
confident answers in merged rankings.  ``observe`` never has a
fallback: an ingest ack is a durability promise only the owning shard
can make.

A request carrying its caller's ``trace`` runs under a ``front.<op>``
span, and every sub-request it sends carries that span as *its*
``trace`` — client span -> front span -> worker span, one trace.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import faults as _faults
from repro import wire
from repro.endpoint import Endpoint, answer
from repro.fleet.hashing import ShardRing
from repro.obs.config import enabled as _obs_enabled
from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry
from repro.obs.tracing import current_span
from repro.resilience import CircuitBreaker, Deadline

__all__ = ["FleetFront", "ShardOverloaded", "ShardUnavailable"]

_REG = get_registry()
_M_REQUESTS = _REG.counter(
    "fleet_requests", "requests answered by the fleet front tier")
_M_UNAVAILABLE = _REG.counter(
    "fleet_unavailable", "requests (or batch items) answered 'unavailable'")
_M_OVERLOADED = _REG.counter(
    "fleet_overloaded", "requests shed by per-worker admission control")
_M_FAILOVERS = _REG.counter(
    "fleet_failovers", "degraded last-good answers served for down shards")


class ShardUnavailable(ConnectionError):
    """The owning worker is down, unreachable, or circuit-open."""


class ShardOverloaded(RuntimeError):
    """The owning worker's admission bound is full; load was shed."""


def _error_of(failure: Exception) -> Tuple[str, str]:
    """``(code, message)`` for a shard that could not answer."""
    if isinstance(failure, ShardOverloaded):
        return "overloaded", str(failure)
    if isinstance(failure, ShardUnavailable):
        if _obs_enabled():
            _M_UNAVAILABLE.inc()
        return "unavailable", str(failure)
    if isinstance(failure, wire.FrameError):  # never left the front
        return "bad_request", f"{type(failure).__name__}: {failure}"
    return "internal", f"{type(failure).__name__}: {failure}"


class _Conn:
    """One pooled binary connection to a worker."""

    __slots__ = ("sock", "rfile")

    def __init__(self, socket_path: str, timeout: float):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.settimeout(timeout)
            self.sock.connect(socket_path)
        except BaseException:
            self.sock.close()
            raise
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        for closable in (self.rfile, self.sock):
            try:
                closable.close()
            except OSError:
                pass


#: An admitted, sent, not yet answered call: its connection and the
#: monotonic time by which the answer must have arrived.
_Ticket = Tuple[_Conn, float]


class _ShardLink:
    """One worker's client side: connection pool, breaker, admission.

    Pool connections speak the binary dialect (the batch-friendly shape
    federation fan-out wants).  A call is two halves — :meth:`begin`
    admits it, takes a connection and sends; :meth:`finish` reads the
    answer — so a fan-out can send to every shard before it waits on
    any.  A connection that fails or times out mid-call is closed,
    never reused: a desynchronized stream must not poison the next
    request.  There is no retry: the front cannot know whether a
    request it gave up on (an ``observe``, say) was applied.  Callers
    are the endpoint's connection threads and the heartbeat, so
    ``pending``, ``_created`` and the idle list change only under
    ``_cond``.
    """

    def __init__(
        self,
        shard: int,
        socket_path: Union[str, Path],
        *,
        pool_size: int = 4,
        max_pending: int = 64,
        call_timeout: float = 5.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 1.0,
    ):
        self.shard = shard
        self.socket_path = str(socket_path)
        self.pool_size = pool_size
        self.max_pending = max_pending
        self.call_timeout = call_timeout
        self.breaker = CircuitBreaker(
            f"fleet-worker-{shard}",
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset,
        )
        self.pending = 0
        self._created = 0
        self._idle: List[_Conn] = []
        self._cond = threading.Condition()

    def call(
        self, req: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Round-trip one request; raises the normalized shard errors."""
        return self.finish(self.begin(req, timeout))

    def begin(self, req: Dict[str, Any], timeout: Optional[float] = None) -> _Ticket:
        """Admit and send one request; :meth:`finish` redeems the ticket."""
        # Encoded before admission: a request no frame can carry
        # (``FrameError``: a link name over 65,535 bytes from a JSON
        # client) is its sender's mistake and raises as that, with the
        # breaker, the admission count and the pool untouched.
        frame = wire.FrameWriter().encode_request(req)
        with self._cond:
            if self.pending >= self.max_pending:
                if _obs_enabled():
                    _M_OVERLOADED.inc()
                raise ShardOverloaded(
                    f"shard {self.shard} is at its admission bound "
                    f"({self.max_pending} requests in flight); load shed"
                )
            if not self.breaker.allow():
                raise ShardUnavailable(
                    f"shard {self.shard} is unavailable (circuit open, retry "
                    f"after {self.breaker.retry_after():.2f}s)"
                )
            self.pending += 1
        deadline = time.monotonic() + (timeout or self.call_timeout)
        conn = None
        try:
            conn = self._acquire(deadline)
            conn.sock.settimeout(max(deadline - time.monotonic(), 1e-3))
            conn.sock.sendall(frame)
        except BaseException as exc:
            self._abandon(conn, exc)
        return conn, deadline

    def finish(self, ticket: _Ticket) -> Dict[str, Any]:
        """The answer to a :meth:`begin`; releases its connection."""
        conn, deadline = ticket
        try:
            conn.sock.settimeout(max(deadline - time.monotonic(), 1e-3))
            frame = wire.read_frame(conn.rfile)
            if frame is None:
                raise ConnectionError("worker closed the connection")
            response = wire.decode_response(*frame)
        except BaseException as exc:
            self._abandon(conn, exc)
        self._release(conn, reuse=True)
        self.breaker.record_success()
        return response

    def _abandon(self, conn: Optional[_Conn], exc: BaseException) -> None:
        """Give up on an admitted call and re-raise, transport trouble
        as :class:`ShardUnavailable`.  Its connection may still deliver
        an answer nobody will read, so it is closed, not pooled."""
        self._release(conn, reuse=False)
        self.breaker.record_failure()
        if isinstance(exc, (OSError, EOFError, wire.FrameError)):
            raise ShardUnavailable(
                f"shard {self.shard} ({self.socket_path}): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        raise exc

    def _acquire(self, deadline: float) -> _Conn:
        """An idle connection, or a fresh one while the pool has room;
        otherwise wait — up to the call's deadline — for either."""
        with self._cond:
            while not self._idle and self._created >= self.pool_size:
                if not self._cond.wait(deadline - time.monotonic()):
                    raise TimeoutError("no pooled connection came free in time")
            if self._idle:
                return self._idle.pop()
            self._created += 1
        try:
            return _Conn(self.socket_path, max(deadline - time.monotonic(), 1e-3))
        except BaseException:
            with self._cond:
                self._created -= 1
                self._cond.notify()
            raise

    def _release(self, conn: Optional[_Conn], reuse: bool) -> None:
        with self._cond:
            self.pending -= 1
            if conn is not None:
                if reuse:
                    self._idle.append(conn)
                else:
                    self._created -= 1
                # Either way a waiter in _acquire can now make progress.
                self._cond.notify()
        if conn is not None and not reuse:
            conn.close()

    def reset(self) -> None:
        """Drop every idle pooled connection (e.g. after a known restart).

        In-flight calls keep their connections; waiters blocked in
        :meth:`_acquire` wake up and dial fresh.
        """
        with self._cond:
            drained, self._idle = self._idle, []
            self._created -= len(drained)
            self._cond.notify_all()
        for conn in drained:
            conn.close()

    def health(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "socket": self.socket_path,
            "up": self.breaker.state() == "closed",
            "pending": self.pending,
            "breaker": self.breaker.status(),
        }


class FleetFront:
    """The fleet's TCP endpoint (see module docstring).

    Serves on daemon threads so the CLI, tests, and the benches can
    drive it alongside a :class:`WorkerSupervisor`.  The listening
    socket binds in :meth:`start` (synchronously — ``address`` is valid
    immediately); ``port=0`` picks a free port.
    """

    def __init__(
        self,
        shard_sockets: Sequence[Union[str, Path]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ring: Optional[ShardRing] = None,
        fallback: bool = False,
        pool_size: int = 4,
        max_pending: int = 64,
        call_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 1.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 1.0,
        last_good_capacity: int = 4096,
        info_hook: Optional[Callable[[int], Dict[str, Any]]] = None,
    ):
        if not shard_sockets:
            raise ValueError("a fleet front needs at least one shard socket")
        self.ring = ring or ShardRing(len(shard_sockets))
        if self.ring.shards != len(shard_sockets):
            raise ValueError(
                f"ring has {self.ring.shards} shards but "
                f"{len(shard_sockets)} sockets were given"
            )
        self.host = host
        self.port = port
        self.fallback = fallback
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.info_hook = info_hook
        self._links = [
            _ShardLink(
                shard, path,
                pool_size=pool_size,
                max_pending=max_pending,
                call_timeout=call_timeout,
                breaker_threshold=breaker_threshold,
                breaker_reset=breaker_reset,
            )
            for shard, path in enumerate(shard_sockets)
        ]
        self._last_good: "OrderedDict[Tuple[str, Optional[str]], Dict[str, Any]]" = (
            OrderedDict()
        )
        self._last_good_capacity = last_good_capacity
        self._last_good_lock = threading.Lock()
        self._routes: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
            "predict": self._route_predict,
            "observe": self._route_observe,
            "predict_batch": self._route_predict_batch,
            "observe_batch": self._route_observe_batch,
            "rank": self._route_rank,
            "status": self._route_status,
            "metrics": lambda req: {"metrics": _REG.snapshot()},
        }
        self._endpoint = Endpoint((host, port), self._dispatch, name="fleet-front")
        self._stopping = threading.Event()
        self._heartbeats: List[threading.Thread] = []
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetFront":
        self._endpoint.start()  # raises if already started
        self.address = self._endpoint.address
        self._stopping.clear()
        self._heartbeats = [
            threading.Thread(
                target=self._heartbeat, args=(link,),
                name=f"fleet-heartbeat-{link.shard}", daemon=True,
            )
            for link in self._links
        ]
        for thread in self._heartbeats:
            thread.start()
        return self

    def stop(self) -> None:
        """Graceful stop: close the listener, drain, drop the idle pools."""
        self._stopping.set()
        self._endpoint.stop()
        for thread in self._heartbeats:
            thread.join(timeout=self.heartbeat_timeout + 1.0)
        self._heartbeats = []
        # Requests already sent to a worker finish on their own threads;
        # give them a moment before the caller starts taking workers down.
        deadline = time.monotonic() + 5.0
        while (any(link.pending for link in self._links)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        for link in self._links:
            link.reset()

    def __enter__(self) -> "FleetFront":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _heartbeat(self, link: _ShardLink) -> None:
        """Ping one worker until stopped; the breaker records the outcome.

        While a breaker is open this is also what probes it half-open
        back to closed — recovery does not wait for client traffic.
        """
        while True:
            try:
                link.call({"op": "ping", "v": 1}, timeout=self.heartbeat_timeout)
            except (ShardUnavailable, ShardOverloaded):
                pass
            if self._stopping.wait(self.heartbeat_interval):
                return

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, req: Dict[str, Any], deadline: Deadline) -> Dict[str, Any]:
        if _obs_enabled():
            _M_REQUESTS.inc()
        return answer(req, deadline, self._route, span_prefix="front")

    def _route(
        self, op: str, req: Dict[str, Any], deadline: Deadline
    ) -> Optional[Dict[str, Any]]:
        if op == "ping":
            return {"pong": True}
        if "shard" in req:
            # Escape hatch: address one worker directly, bypassing
            # routing and aggregation — how an operator inspects a
            # single shard's spans, events, or unmerged status.
            return self._forward(int(req["shard"]), req)
        route = self._routes.get(op)
        return None if route is None else route(req)

    def _sub(
        self, req: Dict[str, Any], keys: Iterable[str], **fields: Any
    ) -> Dict[str, Any]:
        """A sub-request: ``keys`` of the client's request, ``fields`` on
        top — and, when the request runs under a front span, that span
        as the worker's trace parent (the client's own otherwise)."""
        sub = {key: req[key] for key in keys if key in req}
        sub.update(fields)
        own = current_span()
        if own is not None:
            sub["trace"] = {"trace_id": own.trace_id, "span_id": own.span_id}
        return sub

    def _scatter(
        self, subs: Dict[int, Dict[str, Any]]
    ) -> Dict[int, Union[Dict[str, Any], Exception]]:
        """Ask several shards at once: ``{shard: response | exception}``.

        Every sub-request is sent before any answer is read, so the
        workers compute in parallel while this one thread waits.  Sends
        go in ascending shard order: two fan-outs contending for the
        same bounded pools each hold only connections *below* the one
        they wait for, so neither can block the other forever.
        """
        tickets: Dict[int, _Ticket] = {}
        outcomes: Dict[int, Union[Dict[str, Any], Exception]] = {}
        for shard in sorted(subs):
            try:
                _faults.check("fleet.route", shard=shard, op=subs[shard].get("op"))
                tickets[shard] = self._links[shard].begin(subs[shard])
            except Exception as exc:
                outcomes[shard] = exc
        for shard, ticket in tickets.items():
            try:
                outcomes[shard] = self._links[shard].finish(ticket)
            except Exception as exc:
                outcomes[shard] = exc
        return outcomes

    def _ask(
        self, shard: int, req: Dict[str, Any]
    ) -> Union[Dict[str, Any], Exception]:
        """One worker's own answer to ``req`` (minus any ``shard`` field)."""
        sub = self._sub(req, (key for key in req if key != "shard"))
        return self._scatter({shard: sub})[shard]

    def _forward(self, shard: int, req: Dict[str, Any]) -> Dict[str, Any]:
        if not 0 <= shard < len(self._links):
            raise ValueError(
                f"no such shard {shard} (fleet has {len(self._links)})")
        outcome = self._ask(shard, req)
        if isinstance(outcome, Exception):
            return wire.error_entry(*_error_of(outcome))
        return outcome

    def _route_observe(self, req: Dict[str, Any]) -> Dict[str, Any]:
        return self._forward(self.ring.shard_of(str(req["link"])), req)

    def _route_predict(self, req: Dict[str, Any]) -> Dict[str, Any]:
        outcome = self._ask(self.ring.shard_of(str(req["link"])), req)
        if isinstance(outcome, Exception):
            return self._stale_or_error(req, req, outcome)
        if outcome.get("ok"):
            self._remember([outcome])
        return outcome

    def _stale_or_error(
        self, req: Dict[str, Any], item: Dict[str, Any], failure: Exception
    ) -> Dict[str, Any]:
        """What one prediction becomes when its shard could not answer:
        the last good answer, marked degraded, if the front runs with
        fallback and remembers one; the shard's error otherwise."""
        if self.fallback and isinstance(failure, ShardUnavailable):
            stale = self._recall(
                str(item.get("link")), item.get("spec", req.get("spec")), item)
            if stale is not None:
                return {"ok": True, **stale}
        return wire.error_entry(*_error_of(failure))

    # -- predict_batch / observe_batch fan-out ---------------------------
    def _route_items(
        self,
        req: Dict[str, Any],
        keys: Sequence[str],
        failed_item: Callable[[Dict[str, Any], Exception], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Partition a batch per owning shard, fan out, reassemble.

        ``keys`` are the request fields every sub-batch carries along;
        ``failed_item(item, failure)`` is the entry of an item whose
        shard could not answer.  Results come back in request order,
        and one shard's death never poisons the rest of the batch.
        """
        items = req["items"]
        if not isinstance(items, (list, tuple)):
            raise ValueError("items must be a list of objects")
        entries: List[Optional[Dict[str, Any]]] = [None] * len(items)
        by_shard: Dict[int, List[int]] = {}
        for pos, item in enumerate(items):
            try:
                if not isinstance(item, dict):
                    raise ValueError("batch item must be an object")
                shard = self.ring.shard_of(str(item["link"]))
            except (KeyError, TypeError, ValueError) as exc:
                entries[pos] = wire.error_entry(
                    "bad_request", f"item {pos}: {type(exc).__name__}: {exc}")
                continue
            by_shard.setdefault(shard, []).append(pos)
        outcomes = self._scatter({
            shard: self._sub(req, keys, items=[items[pos] for pos in positions])
            for shard, positions in by_shard.items()
        })
        for shard, positions in by_shard.items():
            outcome = outcomes[shard]
            if isinstance(outcome, Exception):
                results = [failed_item(items[pos], outcome) for pos in positions]
            elif not outcome.get("ok"):
                refusal = {"ok": False, "error": outcome.get("error")}
                results = [refusal] * len(positions)
            else:
                results = outcome["results"]
            for pos, result in zip(positions, results):
                entries[pos] = result
        return {"count": len(items), "results": entries}

    def _route_predict_batch(self, req: Dict[str, Any]) -> Dict[str, Any]:
        payload = self._route_items(
            req, ("op", "v", "spec", "now", "trace"),
            lambda item, failure: self._stale_or_error(req, item, failure),
        )
        self._remember(entry for entry in payload["results"] if entry.get("ok"))
        return payload

    def _route_observe_batch(self, req: Dict[str, Any]) -> Dict[str, Any]:
        # No stale fallback: an observe ack is a durability promise only
        # the owning shard can make, so a dead shard's items come back
        # ``unavailable`` for the client to retry after failover.
        return self._route_items(
            req, ("op", "v", "trace"),
            lambda item, failure: wire.error_entry(*_error_of(failure)),
        )

    # -- rank fan-out / merge ------------------------------------------
    def _route_rank(self, req: Dict[str, Any]) -> Dict[str, Any]:
        int(req["size"])  # validate like the worker does
        groups = self.ring.partition(str(c) for c in req["candidates"])
        outcomes = self._scatter({
            shard: self._sub(
                req, ("op", "v", "size", "spec", "now", "trace"), candidates=sites)
            for shard, sites in groups.items()
        })
        confident: List[Dict[str, Any]] = []
        degraded: List[Dict[str, Any]] = []
        empty: List[Dict[str, Any]] = []
        for shard in sorted(groups):
            outcome = outcomes[shard]
            if isinstance(outcome, ShardUnavailable) and self.fallback:
                # Last-good failover: every candidate this shard owns
                # ranks from the front's memory, marked degraded and
                # sorted after every confident answer.
                for site in groups[shard]:
                    stale = self._recall(site, req.get("spec"), req)
                    (degraded if stale else empty).append({
                        "site": site,
                        "predicted_bandwidth": stale["value"] if stale else None,
                        "history_length": stale["history_length"] if stale else 0,
                        "degraded": True,
                    })
                continue
            if isinstance(outcome, Exception):
                code, message = _error_of(outcome)
                if code == "unavailable":
                    message = (f"cannot rank: {message} (run the front with "
                               f"fallback to rank from last-good answers)")
                return wire.error_entry(code, message)
            if not outcome.get("ok"):
                return outcome
            for entry in outcome["ranking"]:
                if entry.get("predicted_bandwidth") is None:
                    empty.append(entry)
                elif entry.get("degraded"):
                    degraded.append(entry)
                else:
                    confident.append(entry)
        key = lambda entry: -entry["predicted_bandwidth"]  # noqa: E731
        return {
            "ranking": sorted(confident, key=key) + sorted(degraded, key=key) + empty
        }

    # -- status aggregation --------------------------------------------
    def _route_status(self, req: Dict[str, Any]) -> Dict[str, Any]:
        outcomes = self._scatter({
            link.shard: self._sub(req, ("op", "v", "trace")) for link in self._links
        })
        worker_statuses: List[Optional[Dict[str, Any]]] = []
        shard_entries: List[Dict[str, Any]] = []
        for link in self._links:
            outcome = outcomes[link.shard]
            entry = link.health()
            if self.info_hook is not None:
                try:
                    entry.update(self.info_hook(link.shard))
                except Exception:
                    pass  # status must answer even if the hook breaks
            if isinstance(outcome, Exception) or not outcome.get("ok"):
                entry["up"] = False
                entry["error"] = (
                    str(outcome) if isinstance(outcome, Exception)
                    else str(outcome.get("error"))
                )
                worker_statuses.append(None)
            else:
                worker_statuses.append(outcome)
            shard_entries.append(entry)
        merged = self._merge_statuses(worker_statuses)
        merged["fleet"] = {
            "workers": len(self._links),
            "fallback": self.fallback,
            "last_good_entries": len(self._last_good),
            "shards": shard_entries,
        }
        return merged

    @staticmethod
    def _merge_statuses(
        statuses: List[Optional[Dict[str, Any]]],
    ) -> Dict[str, Any]:
        """Sum the summable, merge the mergeable, drop the rest."""
        up = [status for status in statuses if status]
        merged: Dict[str, Any] = {
            "default_spec": up[0].get("default_spec") if up else None,
            "link_count": sum(s.get("link_count", 0) for s in up),
            "ingested": sum(s.get("ingested", 0) for s in up),
            "predicts": sum(s.get("predicts", 0) for s in up),
            "cache": {
                key: sum((s.get("cache") or {}).get(key, 0) for s in up)
                for key in ("hits", "misses", "entries", "capacity")
            },
            "streaming": {
                key: sum((s.get("streaming") or {}).get(key, 0) for s in up)
                for key in ("streamed", "recomputed")
            },
        }
        links: Dict[str, Any] = {}
        for status in up:
            links.update(status.get("links") or {})
        merged["links"] = links if len(links) <= 1000 else {}
        # Accuracy: count-weighted merge of the overall rollup.
        acc = [s.get("accuracy") or {} for s in up]
        enabled = [a for a in acc if a.get("enabled")]
        if enabled:
            scored = sum(a.get("scored", 0) for a in enabled)
            overall_n = sum(
                (a.get("overall") or {}).get("count", 0) for a in enabled
            )
            mape = None
            if overall_n:
                weighted = [
                    ((a.get("overall") or {}).get("mape"),
                     (a.get("overall") or {}).get("count", 0))
                    for a in enabled
                ]
                known = [(m, n) for m, n in weighted if m is not None and n]
                if known:
                    mape = sum(m * n for m, n in known) / sum(
                        n for _, n in known
                    )
            merged["accuracy"] = {
                "enabled": True,
                "scored": scored,
                "pending": sum(a.get("pending", 0) for a in enabled),
                "dropped": sum(a.get("dropped", 0) for a in enabled),
                "overall": {"count": overall_n, "mape": mape},
            }
        else:
            merged["accuracy"] = {"enabled": False}
        stores = [s.get("store") for s in up if s.get("store")]
        if stores:
            merged["store"] = {
                "resident_links": sum(s.get("resident_links", 0) for s in stores),
                "evicted_links": sum(s.get("evicted_links", 0) for s in stores),
                "stored_links": sum(s.get("stored_links", 0) for s in stores),
                "bytes_on_disk": sum(s.get("bytes_on_disk", 0) for s in stores),
                "evictions": sum(s.get("evictions", 0) for s in stores),
                "revivals": sum(s.get("revivals", 0) for s in stores),
            }
        return merged

    # ------------------------------------------------------------------
    # last-good failover memory
    # ------------------------------------------------------------------
    def _remember(self, payloads: Iterable[Dict[str, Any]]) -> None:
        """Cache confident predictions for degraded failover later."""
        cache = self._last_good
        with self._last_good_lock:
            for payload in payloads:
                if payload.get("value") is None or payload.get("degraded"):
                    continue
                entry = {
                    "link": payload["link"],
                    "spec": payload["spec"],
                    "size": payload["size"],
                    "value": payload["value"],
                    "version": payload.get("version", 0),
                    "history_length": payload.get("history_length", 0),
                }
                for key in ((payload["link"], payload["spec"]),
                            (payload["link"], None)):
                    cache[key] = entry
                    cache.move_to_end(key)
            while len(cache) > self._last_good_capacity:
                cache.popitem(last=False)

    def _recall(
        self, link_name: str, spec: Optional[str], req: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """A degraded last-good prediction payload, if one is cached.

        An explicit ``spec`` never falls back to another spec's answer;
        no spec means the link's most recent one.
        """
        with self._last_good_lock:
            entry = self._last_good.get((link_name, spec))
        if entry is None:
            return None
        if _obs_enabled():
            _M_FAILOVERS.inc()
            get_event_bus().emit(
                "fleet.failover", link=link_name,
                spec=entry["spec"], version=entry["version"],
            )
        return {
            "link": entry["link"],
            "spec": entry["spec"],
            "size": int(req.get("size", entry["size"])),
            "value": entry["value"],
            "cached": True,
            "version": entry["version"],
            "history_length": entry["history_length"],
            "latency_seconds": 0.0,
            "degraded": True,       # a stale answer must say so
        }
