"""repro.service — the online prediction service (serving layer).

Everything before this package evaluates logs offline; this package
serves predictions *live*, the deployment posture of Sections 5–6:

* :mod:`repro.service.state` — per-link versioned observation arrays;
* :mod:`repro.service.service` — :class:`PredictionService`: incremental
  ingest, version-keyed LRU-cached ``predict``/``rank_replicas``, and
  the vectorized ``predict_batch`` sweep;
* :mod:`repro.service.tail` — follow a growing ULM log file;
* :mod:`repro.service.server` — the op table (``handle_request``) and
  the Unix-socket server that serves it through the shared
  :mod:`repro.endpoint` loop (``repro serve`` / ``repro query``).

Talk to a server through :class:`repro.client.ServiceClient`.
Metrics/tracing/events live in :mod:`repro.obs`.
"""

from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricsRegistry
from repro.service.server import ServiceServer, handle_request
from repro.service.service import (
    DEFAULT_SPEC,
    Prediction,
    PredictionCache,
    PredictionService,
)
from repro.service.state import LinkState
from repro.service.tail import LogFollower

__all__ = [
    "MetricsRegistry",
    "TraceEvent",
    "ServiceServer",
    "handle_request",
    "DEFAULT_SPEC",
    "Prediction",
    "PredictionCache",
    "PredictionService",
    "LinkState",
    "LogFollower",
]
