"""repro.fleet — the sharded, supervised, fault-tolerant serving fleet.

The paper's MDS hierarchy — one GRIS per server, a GIIS aggregating
them — is the blueprint: each **worker** is a full
:class:`~repro.service.service.PredictionService` (the GRIS) owning a
consistent-hash shard of links backed by its own durable store shard,
and the **front tier** is the GIIS — the same serving loop
(:mod:`repro.endpoint`) on TCP with a different backend behind it: it
routes ``predict``/``observe`` by link hash, fans ``predict_batch`` out
per shard, and merges ``rank_replicas``/``status`` across all of them.

* :mod:`repro.fleet.hashing` — :class:`ShardRing`, the deterministic
  consistent-hash placement every process agrees on;
* :mod:`repro.fleet.worker` — ``python -m repro.fleet.worker``, one
  service shard behind a Unix socket;
* :mod:`repro.fleet.supervisor` — :class:`WorkerSupervisor`: spawn,
  monitor, and respawn crashed workers (warm revival from WAL /
  checkpoints) with crash-loop backoff, plus the chaos hooks
  (``kill``/``stall``/``resume``) the deterministic fault suite drives;
* :mod:`repro.fleet.front` — :class:`FleetFront`: the TCP front tier
  speaking both wire dialects, with per-worker circuit breakers,
  heartbeats, bounded admission (``overloaded``), and last-good
  degraded failover (``--fallback``);
* :mod:`repro.fleet.runner` — :class:`FleetRunner`, supervisor + front
  wired together (``repro fleet``).

Failure semantics are normalized into the v1 envelope: a down shard
answers ``unavailable`` (clients retry under their connect policy), a
saturated shard answers ``overloaded`` (clients surface it
immediately).  See ``docs/federation.md``.
"""

from repro._lazy import lazy_exports

# Resolved on first access: ``python -m repro.fleet.worker`` runs inside
# this package and needs none of the front, supervisor or runner.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.fleet.front": ("FleetFront", "ShardOverloaded", "ShardUnavailable"),
    "repro.fleet.hashing": ("ShardRing",),
    "repro.fleet.runner": ("FleetRunner",),
    "repro.fleet.supervisor": ("WorkerSpec", "WorkerSupervisor"),
})
