"""The prediction service's op table and its Unix-socket server.

The paper's GRIS answers LDAP inquiries; this module is the equivalent
for the reproduction: what each ``op`` of the wire protocol means to a
:class:`PredictionService` (:func:`handle_request`), and
:class:`ServiceServer`, which serves exactly that on a Unix-domain
socket.  The connection handling itself — the two dialects
(JSON-lines and :mod:`repro.wire` binary frames, autodetected per
connection), the bounds, in-band errors, counters and the accept loop —
is :mod:`repro.endpoint`, shared with the fleet front.

``repro serve`` runs the server; :class:`repro.client.ServiceClient` is
the client for both dialects.  Each request names an ``op``:

=================  ======================================= =====================
op                  request fields                          response payload
=================  ======================================= =====================
``ping``            —                                       ``{"pong": true}``
``predict``         ``link``, ``size``, [``spec``, ``now``] the Prediction fields
``predict_batch``   ``items``, [``spec``, ``now``]          per-item ``results``
``rank``            ``candidates``, ``size``, [``spec``]    ordered replica list
``observe``         ``link``, ``size``, ``start``, ``end``  ``{"link", "version"}``
``observe_batch``   ``items``                               per-item acks
``status``          —                                       service status dict
``metrics``         [``format``]                            merged registry snapshot
``spans``           [``name``, ``limit``]                   finished spans
``events``          [``kind``, ``limit``, ``scope``]        structured events
``trace``           [``kind``]                              recent trace events
=================  ======================================= =====================

**Envelope.**  Every request may carry ``v`` — the protocol schema
version (default 1); every response carries ``v`` and ``ok``.  Errors
are normalized: ``{"ok": false, "v": 1, "error": {"code", "message"}}``.
A request with a ``v`` above what the server speaks answers
``unsupported_version`` in-band.  A request may also carry ``trace`` —
the caller's ``{"trace_id", "span_id"}`` — in which case the op runs
under a ``server.<op>`` span
parented on it, joining the client's distributed trace (both dialects;
:class:`repro.client.ServiceClient` stamps this automatically when the
caller is inside a span).

``predict_batch`` answers thousands of ``(link, size)`` pairs in one
round trip through :meth:`PredictionService.predict_batch`'s vectorized
bank sweep; a malformed item (missing field, unknown spec) yields a
per-item ``{"ok": false, "error": ...}`` entry without failing the rest
of the batch, and the per-request deadline is checked between link
groups.

``metrics`` merges the service's own registry with the process-wide
:func:`repro.obs.get_registry`; ``format: "text"`` returns the
Prometheus exposition.  The dispatch lives in :func:`handle_request`, a
pure ``dict -> dict`` function, so the CLI can answer one-shot queries
in-process without a socket — and tests can exercise every op (on
either protocol) without binding one.
"""

from __future__ import annotations

import socket
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import wire
from repro.core.predictors.registry import resolve as _resolve_spec
from repro.endpoint import Endpoint, answer
from repro.obs.events import get_event_bus
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import get_span_exporter
from repro.logs.record import TransferRecord
from repro.resilience import Deadline
from repro.service.service import Prediction, PredictionService

__all__ = [
    "handle_request",
    "merged_snapshot",
    "merged_render",
    "ServiceServer",
]


def merged_snapshot(service: PredictionService) -> Dict[str, Any]:
    """Process-wide registry overlaid with the service's own series.

    One merged view per scrape: the per-protocol request counters (which
    live process-wide) and the service's own instruments — including the
    accuracy gauges, refreshed from the tracker first — land in a single
    snapshot.  ``serve --metrics-file`` writes exactly this, one JSONL
    object per interval.
    """
    service.quality_feed.publish()
    merged = get_registry().snapshot()
    merged.update(service.metrics.snapshot())
    return merged


def merged_render(service: PredictionService) -> str:
    """One Prometheus exposition covering both registries."""
    service.quality_feed.publish()
    return MetricsRegistry().merge(get_registry()).merge(service.metrics).render()


def _events_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    kind = req.get("kind")
    limit = req.get("limit")
    scope = req.get("scope", "service")
    if scope not in ("service", "global", "all"):
        raise ValueError(f"unknown events scope {scope!r}")
    events = []
    if scope in ("service", "all"):
        events += service.trace.events(kind=kind)
    if scope in ("global", "all"):
        events += get_event_bus().events(kind=kind)
    events.sort(key=lambda e: e.time)
    if limit is not None:
        limit = int(limit)
        events = events[len(events) - limit:] if limit > 0 else []
    return {"events": [e.as_dict() for e in events]}


def _prediction_fields(p: Prediction) -> Dict[str, Any]:
    return {
        "link": p.link,
        "spec": p.spec,
        "size": p.target_size,
        "value": p.value,
        "cached": p.cached,
        "version": p.version,
        "history_length": p.history_length,
        "latency_seconds": p.latency_seconds,
        "degraded": p.degraded,
    }


def _predict_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    prediction = service.predict(
        str(req["link"]),
        int(req["size"]),
        spec=req.get("spec"),
        now=req.get("now"),
    )
    return _prediction_fields(prediction)


def _batch_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    """Per-item results for a ``predict_batch`` request.

    Item validation is per item: a malformed entry (missing field, bad
    type, unknown spec) becomes an in-band ``{"ok": false, "error":
    {...}}`` at its position — the rest of the batch still answers.
    """
    items = req["items"]
    if not isinstance(items, (list, tuple)):
        raise ValueError("items must be a list of {link, size} objects")
    spec_default = req.get("spec")
    if spec_default is not None:
        _resolve_spec(str(spec_default))  # a bad default fails the batch
    now_default = req.get("now")
    entries: List[Optional[Dict[str, Any]]] = [None] * len(items)
    valid: List[Tuple[int, Tuple[str, int, Optional[str], Optional[float]]]] = []
    known_specs = set()
    for pos, item in enumerate(items):
        try:
            if not isinstance(item, dict):
                raise ValueError("batch item must be an object")
            link = str(item["link"])
            size = int(item["size"])
            spec_i = item.get("spec")
            if spec_i is not None:
                spec_i = str(spec_i)
                if spec_i not in known_specs:
                    _resolve_spec(spec_i)  # KeyError -> this item only
                    known_specs.add(spec_i)
            now_i = item.get("now", now_default)
            now_i = None if now_i is None else float(now_i)
        except (KeyError, TypeError, ValueError) as exc:
            entries[pos] = wire.error_entry(
                "bad_request", f"item {pos}: {type(exc).__name__}: {exc}")
            continue
        valid.append((pos, (link, size, spec_i, now_i)))
    predictions = service.predict_batch(
        [item for _, item in valid],
        spec=spec_default,
        now=None if now_default is None else float(now_default),
        deadline=deadline,
    )
    for (pos, _), prediction in zip(valid, predictions):
        entries[pos] = {"ok": True, **_prediction_fields(prediction)}
    return {"count": len(items), "results": entries}


def _observe_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    """Fold one completed transfer into its link; answers the new version.

    The ingest op of the wire protocol — what lets a federation front
    tier (or any remote producer) push observations without a shared
    log file.  Only ``link``, ``size``, ``start`` and ``end`` are
    required; ``bandwidth`` defaults to ``size / (end - start)`` and the
    remaining ULM fields to neutral placeholders.  The acknowledgement
    (the returned ``version``) is only sent after
    :meth:`PredictionService.observe` returns, which persists through
    the durable store first when one is attached — an acked observe
    survives ``kill -9``.
    """
    link, record, offset = _observe_record(req)
    version = service.observe(link, record, source_offset=offset)
    return {"link": link, "version": version}


_INT64_MAX = 2**63 - 1


def _observe_record(item: Dict[str, Any]) -> Tuple[str, TransferRecord, int]:
    """Build ``(link, record, source_offset)`` from an observe payload.

    The one place ``observe`` and every ``observe_batch`` item pass
    through: what is refused here is one ``bad_request`` for one item.
    ``size`` and ``offset`` land in int64 columns.
    """
    link = str(item["link"])
    if not link:
        raise ValueError("link name must be non-empty")
    size = int(item["size"])
    offset = int(item.get("offset", 0))
    if not 0 < size <= _INT64_MAX:
        raise ValueError(f"size must be in 1..2**63-1, got {size}")
    if not 0 <= offset <= _INT64_MAX:
        raise ValueError(f"offset must be in 0..2**63-1, got {offset}")
    start = float(item["start"])
    end = float(item["end"])
    bandwidth = item.get("bandwidth")
    if bandwidth is None:
        if end <= start:
            raise ValueError(f"end ({end}) must follow start ({start})")
        bandwidth = size / (end - start)
    record = TransferRecord(
        source_ip=str(item.get("source_ip", "0.0.0.0")),
        file_name=str(item.get("file_name", "/transfer")),
        file_size=size,
        volume=str(item.get("volume", "/")),
        start_time=start,
        end_time=end,
        bandwidth=float(bandwidth),
        operation=str(item.get("operation", "read")),
        streams=int(item.get("streams", 1)),
        tcp_buffer=int(item.get("tcp_buffer", 65536)),
    )
    return link, record, offset


def _observe_batch_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    """Per-item acks for an ``observe_batch`` request.

    The write-path twin of ``predict_batch``: item validation is per
    item — a malformed entry becomes an in-band ``{"ok": false,
    "error": {...}}`` at its position while the rest of the batch still
    lands — and the valid items are folded through one
    :meth:`PredictionService.observe_batch` sweep.  Each ack's
    ``version`` is sent only after the whole batch has persisted and
    group-committed, so an acked item survives ``kill -9`` exactly as a
    per-record observe ack does.
    """
    items = req["items"]
    if not isinstance(items, (list, tuple)):
        raise ValueError("items must be a list of observation objects")
    entries: List[Optional[Dict[str, Any]]] = [None] * len(items)
    valid: List[Tuple[int, Tuple[str, TransferRecord, int]]] = []
    for pos, item in enumerate(items):
        try:
            if not isinstance(item, dict):
                raise ValueError("batch item must be an object")
            valid.append((pos, _observe_record(item)))
        except (KeyError, TypeError, ValueError) as exc:
            entries[pos] = wire.error_entry(
                "bad_request", f"item {pos}: {type(exc).__name__}: {exc}")
    versions = service.observe_batch([item for _, item in valid])
    for (pos, (link, _, _)), version in zip(valid, versions):
        entries[pos] = {"ok": True, "link": link, "version": version}
    return {"count": len(items), "results": entries}


def _rank_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    ranked = service.rank_replicas(
        [str(c) for c in req["candidates"]],
        int(req["size"]),
        spec=req.get("spec"),
        now=req.get("now"),
        deadline=deadline,
    )
    return {
        "ranking": [
            {
                "site": r.site,
                "predicted_bandwidth": r.predicted_bandwidth,
                "history_length": r.history_length,
                "degraded": r.degraded,
            }
            for r in ranked
        ]
    }


def _metrics_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    if req.get("format") == "text":
        return {"text": merged_render(service)}
    return {"metrics": merged_snapshot(service)}


def _spans_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    limit = req.get("limit")
    spans = get_span_exporter().spans(
        name=req.get("name"),
        limit=int(limit) if limit is not None else None,
    )
    return {"spans": [s.as_dict() for s in spans]}


def _trace_payload(
    service: PredictionService, req: Dict[str, Any], deadline: Deadline
) -> Dict[str, Any]:
    events = service.trace.events(kind=req.get("kind"))
    return {"events": [e.as_dict() for e in events]}


#: op name -> ``(service, req, deadline) -> payload``: the whole surface.
_OPS: Dict[str, Callable[[PredictionService, Dict[str, Any], Deadline], Dict[str, Any]]] = {
    "ping": lambda service, req, deadline: {"pong": True},
    "predict": _predict_payload,
    "predict_batch": _batch_payload,
    "rank": _rank_payload,
    "observe": _observe_payload,
    "observe_batch": _observe_batch_payload,
    "status": lambda service, req, deadline: service.status(),
    "metrics": _metrics_payload,
    "spans": _spans_payload,
    "events": _events_payload,
    "trace": _trace_payload,
}


def handle_request(
    service: PredictionService,
    req: Dict[str, Any],
    deadline: Optional[Deadline] = None,
) -> Dict[str, Any]:
    """Answer one request dict; never raises (errors come back in-band).

    ``deadline``, when given, bounds the whole request: it is checked
    before dispatch and propagated into multi-step operations (``rank``
    checks it before each candidate's lookup, ``predict_batch`` between
    link groups), so one slow request can never hold a connection thread
    indefinitely.  The envelope handling around the op table is
    :func:`repro.endpoint.answer`, shared with the fleet front.
    """

    def route(op, req, deadline):
        payload = _OPS.get(op)
        return None if payload is None else payload(service, req, deadline)

    return answer(req, deadline, route)


class ServiceServer(Endpoint):
    """Serve a :class:`PredictionService` on a Unix-domain socket.

    :class:`repro.endpoint.Endpoint` bound to :func:`handle_request`:
    connections are handled on daemon threads — the service's per-link
    locks and snapshot semantics make concurrent queries safe — and each
    speaks JSON-lines or binary frames, autodetected from its first
    byte.  Use as a context manager or call ``start()``/``stop()``.
    """

    def __init__(
        self,
        service: PredictionService,
        socket_path: Union[str, Path],
        request_timeout: Optional[float] = 30.0,
    ):
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise OSError("unix domain sockets are not available on this platform")
        self.service = service
        self.socket_path = Path(socket_path)
        super().__init__(
            self.socket_path,
            partial(handle_request, service),
            request_timeout,
            name=f"repro-serve[{self.socket_path.name}]",
        )
