"""Online prediction-quality telemetry: live observed-vs-predicted error.

The paper's entire evaluation is the normalized error ``|pred - actual| /
actual`` per link and predictor — computed offline, after the fact, by
:mod:`repro.core.evaluation`.  This module closes the loop online: an
:class:`AccuracyTracker` pairs each *served* prediction with the next
observed transfer(s) on the same link and folds the error into O(1)
streaming sufficient statistics, the same idiom as
:class:`~repro.core.streaming.StreamingBank` — flat cost no matter how
long the link's history grows.

**Pairing is by version.**  Every served answer is recorded with the
link-state version it was computed against.  When an observation lands,
the link's version advances past every prediction that was answered
before it — so ``score(..., version)`` consumes exactly the pending
entries with ``entry.version < version`` and scores them against the new
actual.  This makes pairing exact without coupling the tracker to the
per-link lock: bulk :meth:`~repro.service.PredictionService.ingest_frame`
advances the version by the frame length and scores the backlog against
the frame's first row, as the first item of an ``observe_batch`` does,
and out-of-order observes behave identically to the append path because
the version counter is the clock, not wall time.

**What is maintained per (link, spec)** — an :class:`ErrorStats`:

* running MAPE / MSE / RMSE / signed bias from exact float64 running
  sums (relative rounding ~1e-15, far inside the 1e-9 parity gate the
  tests hold against the offline evaluator);
* a bounded window (newest :data:`DEFAULT_WINDOW` pairs) for *rolling*
  MAPE/MSE — the signal ROADMAP item 2's dynamic selector needs;
* calibration buckets: a histogram of the predicted/actual ratio over
  :data:`CALIBRATION_EDGES`, showing at a glance whether a predictor
  over- or under-shoots;
* abstention and unscorable counts (``None`` answers, non-positive or
  non-finite actuals).

Degraded fallback answers are scored into a separate per-link
:class:`ErrorStats` so stale-answer error never pollutes the live
predictor signal; cached/streamed/recomputed answers are counted by kind.

Per-link *overall* statistics are not maintained on the hot path — they
are derived at read time by :func:`merge_stats` over the link's per-spec
stats (running sums add exactly; windows merge by recency).  The fold
itself is *deferred*: predictions and observations stage onto a single
shared deque and drain in batches by replaying in arrival order (see
the :class:`AccuracyTracker` docstring for why batching, not just
leanness, is what holds the tracker inside the <5% overhead budget on
the service's predict+observe path, the perf ledger's
``obs.quality.overhead_ratio``).
Reads always drain first, so deferral is invisible to every consumer.

State survives eviction and restart: :meth:`AccuracyTracker.link_state`
emits one part of a checkpoint (packed structs and the windows as
floats — see :mod:`repro.store.checkpoint`) that rides alongside the
streaming bank in the link checkpoint, and :meth:`load_link_state` folds
it back on revival.  In-flight pending predictions are deliberately *not*
persisted — an unscored answer from a previous process has no matching
observation stream to pair against.
"""

from __future__ import annotations

import math
import struct
import threading
import time
from bisect import bisect_right
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventBus
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CALIBRATION_EDGES",
    "CALIBRATION_LABELS",
    "DEFAULT_WINDOW",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_STAGE_LIMIT",
    "SCORED_EVENT_BATCH",
    "ErrorStats",
    "AccuracyTracker",
    "QualityFeed",
    "merge_stats",
]

#: Upper edges of the predicted/actual ratio buckets (last bucket open).
CALIBRATION_EDGES: Tuple[float, ...] = (0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0)

#: Human-readable bucket names, aligned with ``CALIBRATION_EDGES`` + 1.
CALIBRATION_LABELS: Tuple[str, ...] = (
    "<0.25x",
    "0.25-0.5x",
    "0.5-0.8x",
    "0.8-0.95x",
    "0.95-1.05x",
    "1.05-1.25x",
    "1.25-2x",
    "2-4x",
    ">4x",
)

#: Rolling-window size for windowed MAPE/MSE.
DEFAULT_WINDOW = 128

#: Per-link cap on unscored predictions awaiting their observation.
DEFAULT_MAX_PENDING = 64

#: Staging-queue length at which :meth:`AccuracyTracker.record` forces a
#: drain, bounding memory in predict-only workloads that never observe.
DEFAULT_STAGE_LIMIT = 4096

#: Staged entries before a serving process's observe path drains and
#: scores them in one ordered replay (:class:`QualityFeed`): one
#: ``prediction.scored`` event per drain, ``pairs`` carrying the count,
#: keeps both the fold and the event bus off the per-record hot path.
SCORED_EVENT_BATCH = 128

# Answer kinds, in the order they are tested on the score path.
KIND_DEGRADED = "degraded"
KIND_CACHED = "cached"
KIND_STREAMED = "streamed"
KIND_RECOMPUTED = "recomputed"

ANSWER_KINDS = (KIND_DEGRADED, KIND_CACHED, KIND_STREAMED, KIND_RECOMPUTED)

#: Shared empty detail list returned by :meth:`AccuracyTracker.score`
#: when no pair crossed the threshold — the overwhelmingly common case,
#: kept allocation-free.  Callers must treat it as read-only.
_NO_BAD: List[Tuple[str, Optional[float], float, str]] = []


#: Checkpointed scalars of one :class:`ErrorStats`: the three counts, the
#: three sums, the calibration buckets, the window's capacity and length.
_STATS = struct.Struct(f"<qqqddd{len(CALIBRATION_EDGES) + 1}qII")

#: What a link's checkpointed quality opens with: hits per answer kind,
#: per-spec stats held, whether degraded stats follow them.
_LINK = struct.Struct(f"<{len(ANSWER_KINDS)}qH?")
_NAME = struct.Struct("<H")


class ErrorStats:
    """O(1) streaming error statistics for one prediction stream.

    Running sums are plain float64 — exact addition order is
    insertion order, matching a sequential fold of the offline error
    arrays to ~1e-15 relative, well inside the 1e-9 gate.
    """

    __slots__ = (
        "count",
        "abstentions",
        "unscorable",
        "sum_abs_frac",
        "sum_sq_err",
        "sum_signed_frac",
        "buckets",
        "window",
    )

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.count = 0
        self.abstentions = 0
        self.unscorable = 0
        self.sum_abs_frac = 0.0
        self.sum_sq_err = 0.0
        self.sum_signed_frac = 0.0
        self.buckets = [0] * (len(CALIBRATION_EDGES) + 1)
        # (when, abs_frac, sq_err, signed_frac) — newest DEFAULT_WINDOW pairs.
        self.window: "deque[Tuple[float, float, float, float]]" = deque(maxlen=window)

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def add(self, predicted: float, actual: float, when: float) -> float:
        """Fold one scored pair; returns the normalized absolute error.

        The newest-pair fields (``last_abs_pct``/``last_time``) are not
        maintained here — the window's tail entry *is* the last fold, so
        they derive for free at read time.
        """
        err = predicted - actual
        signed = err / actual
        frac = signed if signed >= 0.0 else -signed
        sq = err * err
        self.count += 1
        self.sum_abs_frac += frac
        self.sum_sq_err += sq
        self.sum_signed_frac += signed
        self.buckets[bisect_right(CALIBRATION_EDGES, predicted / actual)] += 1
        self.window.append((when, frac, sq, signed))
        return frac

    @property
    def last_abs_pct(self) -> Optional[float]:
        """Absolute percent error of the most recent fold, if any."""
        window = self.window
        return window[-1][1] * 100.0 if window else None

    @property
    def last_time(self) -> Optional[float]:
        """Observation timestamp of the most recent fold, if any."""
        window = self.window
        return window[-1][0] if window else None

    def add_abstention(self) -> None:
        self.abstentions += 1

    def add_unscorable(self) -> None:
        self.unscorable += 1

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The derived statistics; error fields are ``None`` until scored."""
        n = self.count
        out: Dict[str, Any] = {
            "count": n,
            "abstentions": self.abstentions,
            "unscorable": self.unscorable,
        }
        if n:
            out["mape"] = self.sum_abs_frac / n * 100.0
            out["mse"] = self.sum_sq_err / n
            out["rmse"] = math.sqrt(self.sum_sq_err / n)
            out["bias_pct"] = self.sum_signed_frac / n * 100.0
        else:
            out["mape"] = out["mse"] = out["rmse"] = out["bias_pct"] = None
        out["calibration"] = {
            label: hits
            for label, hits in zip(CALIBRATION_LABELS, self.buckets)
            if hits
        }
        w = len(self.window)
        if w:
            sum_abs = sum_sq = 0.0
            for _, frac, sq, _ in self.window:
                sum_abs += frac
                sum_sq += sq
            out["window"] = {
                "count": w,
                "mape": sum_abs / w * 100.0,
                "mse": sum_sq / w,
            }
        else:
            out["window"] = {"count": 0, "mape": None, "mse": None}
        out["last_abs_pct"] = self.last_abs_pct
        out["last_time"] = self.last_time
        return out

    # ------------------------------------------------------------------
    # persistence: one part of a checkpoint (repro.store.checkpoint)
    # ------------------------------------------------------------------
    def state(self) -> tuple:
        """``(fixed, ld, f8)``: :data:`_STATS`, then the window flat."""
        window = self.window
        fixed = _STATS.pack(
            self.count, self.abstentions, self.unscorable, self.sum_abs_frac,
            self.sum_sq_err, self.sum_signed_frac, *self.buckets,
            window.maxlen, len(window))
        return fixed, (), [x for entry in window for x in entry]

    @classmethod
    def load_state(cls, src) -> "ErrorStats":
        """Restore :meth:`state` from a checkpoint ``Reader`` over it."""
        *fields, maxlen, held = src.unpack(_STATS)
        src.require(0 < maxlen and held <= maxlen, "impossible error window")
        stats = cls(window=maxlen)
        (stats.count, stats.abstentions, stats.unscorable, stats.sum_abs_frac,
         stats.sum_sq_err, stats.sum_signed_frac, *stats.buckets) = fields
        flat = src.f8(4 * held).tolist()
        stats.window.extend(zip(*[iter(flat)] * 4))
        # last_abs_pct / last_time derive from the restored window tail.
        return stats


def merge_stats(
    parts: Iterable[ErrorStats], window: int = DEFAULT_WINDOW
) -> ErrorStats:
    """Exact merge of independent :class:`ErrorStats`.

    Running sums, counts, and calibration buckets add exactly; the merged
    window keeps the globally newest ``window`` pairs by timestamp.  Used
    to derive per-link and service-wide rollups at read time so the score
    path only ever touches one per-(link, spec) instance.
    """
    merged = ErrorStats(window=window)
    entries: List[Tuple[float, float, float, float]] = []
    for part in parts:
        merged.count += part.count
        merged.abstentions += part.abstentions
        merged.unscorable += part.unscorable
        merged.sum_abs_frac += part.sum_abs_frac
        merged.sum_sq_err += part.sum_sq_err
        merged.sum_signed_frac += part.sum_signed_frac
        for i, hits in enumerate(part.buckets):
            merged.buckets[i] += hits
        entries.extend(part.window)
    # The merged window keeps the globally newest pairs, so the derived
    # last_abs_pct / last_time land on the newest fold automatically.
    entries.sort(key=lambda e: e[0])
    for entry in entries[-window:] if window else ():
        merged.window.append(entry)
    return merged


class _LinkQuality:
    """Per-link scored state: per-spec stats, degraded stats, kind counts."""

    __slots__ = ("by_spec", "degraded", "kinds")

    def __init__(self):
        self.by_spec: Dict[str, ErrorStats] = {}
        self.degraded: Optional[ErrorStats] = None
        self.kinds = {kind: 0 for kind in ANSWER_KINDS}


#: ``score()``'s return when the observation was queued for a later
#: batched drain (or the drain found nothing) — shared, allocation-free.
_NOTHING: Tuple[int, float, List[Tuple[str, str, float, float, float, str]]] = (
    0, 0.0, _NO_BAD)


class AccuracyTracker:
    """Pairs served predictions with observed transfers and scores them.

    **Hot paths are one deque append.**  :meth:`record` stages
    ``(link, spec, predicted, version, kind)`` and :meth:`score` stages
    ``(link, actual, when, version)`` onto a single shared
    :attr:`stage` deque — a GIL-atomic, lock-free C append (callers on
    a measured hot path may append to :attr:`stage` directly and skip
    the method frame entirely; the service does).  All pairing and
    folding happens in *batched drains*: once :attr:`stage` holds
    :data:`SCORED_EVENT_BATCH` entries (or at any read) the backlog
    replays in one tight loop.  Batching matters beyond amortized call
    overhead: the serving loop's working set evicts cold telemetry code
    from the instruction cache every iteration, so per-call scoring pays
    a ~3x cache-refill multiplier that a consecutive drain loop does not.
    That is what holds the tracker inside its <5% predict+observe
    budget (the perf ledger's ``obs.quality.overhead_ratio``).

    Deferral never changes the statistics: the drain replays staged
    entries in their original arrival order — predictions route into
    their link's bounded pending queue (cap evictions counted exactly
    where immediate recording would have dropped), and each observation
    consumes exactly the pending entries with ``version <`` its own.
    The fold order — every running sum, window, bucket, and drop count
    — is identical to unbatched operation.  Every read path
    (:meth:`status`, :meth:`link_state`, :meth:`new_error_pcts`,
    :meth:`pending_count`) drains first, so readers always see exact,
    current numbers.

    Thread model: concurrent stage appends from any thread are safe;
    drains and reads serialize on the tracker lock.  Like the service's
    ingest path, at most one concurrent observer per link is assumed
    (one log follower per link).
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        max_pending: int = DEFAULT_MAX_PENDING,
        clock: Callable[[], float] = time.time,
        threshold: Optional[float] = None,
    ):
        if max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self.window = int(window)
        self.max_pending = int(max_pending)
        self.threshold = None if threshold is None else float(threshold)
        self._clock = clock
        self._lock = threading.Lock()
        #: The shared staging deque.  Predictions stage as 5-tuples
        #: ``(link, spec, predicted, version, kind)``, observations as
        #: 4-tuples ``(link, actual, when, version)`` — the drain tells
        #: them apart by length.  Hot callers may append directly.
        self.stage: deque = deque()
        #: Stage length at which :meth:`record` forces a drain, bounding
        #: memory when predictions arrive without observations or reads.
        self.stage_limit = DEFAULT_STAGE_LIMIT
        # link -> deque[(link, spec, predicted, version, kind)] — staged
        # prediction tuples routed here, kept whole to avoid a repack.
        self._pending: Dict[str, deque] = {}
        self._links: Dict[str, _LinkQuality] = {}
        # Drain results awaiting pickup by the next score()/drain()
        # return: error-scored pair count, worst |error| fraction, and
        # (link, spec, predicted, actual, frac, kind) threshold-crossers.
        self._pairs_ready = 0
        self._worst_ready = 0.0
        self._bad_ready: List[Tuple[str, str, float, float, float, str]] = []
        self.scored = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def record(
        self,
        link: str,
        spec: str,
        predicted: Optional[float],
        version: int,
        kind: str,
    ) -> None:
        """Note a served answer, to be scored by the next observation.

        ``kind`` is one of :data:`ANSWER_KINDS`; ``predicted`` is ``None``
        for abstentions (counted, never scored as error).
        """
        stage = self.stage
        stage.append((link, spec, predicted, version, kind))
        # No recorded counter here: every entry ends up pending, dropped,
        # or folded, so the total derives exactly at read time (status()).
        if len(stage) >= self.stage_limit:
            with self._lock:
                self._drain_locked()

    def score(
        self, link: str, actual: float, when: float, version: int,
    ) -> Tuple[int, float, List[Tuple[str, str, float, float, float, str]]]:
        """Stage an observation; drain and score once per batch.

        The observation pairs with every pending answer recorded at
        ``entry.version < version`` — exactly the answers served before
        it folded into link state.  The drain is deferred until the
        stage holds :data:`SCORED_EVENT_BATCH` entries; :meth:`drain`
        scores the stage at once.

        Returns ``(pairs, worst, bad)`` — the error-scored pair count,
        worst absolute fractional error, and ``(link, spec, predicted,
        actual, frac, kind)`` detail for pairs at or above the
        tracker's ``threshold`` — covering everything drained since the
        previous non-empty return.  A deferring call returns zeros.
        """
        stage = self.stage
        stage.append((link, actual, when, version))
        if len(stage) < SCORED_EVENT_BATCH:
            return _NOTHING
        return self.drain()

    def drain(
        self,
    ) -> Tuple[int, float, List[Tuple[str, str, float, float, float, str]]]:
        """Replay the staging queue now; returns the scoring pickup.

        Same return shape as :meth:`score` — everything scored since the
        previous non-empty pickup, including pairs folded by read-path
        drains in between.
        """
        with self._lock:
            self._drain_locked()
            pairs = self._pairs_ready
            if not pairs and not self._bad_ready:
                return _NOTHING
            out = (pairs, self._worst_ready, self._bad_ready or _NO_BAD)
            self._pairs_ready = 0
            self._worst_ready = 0.0
            if out[2] is not _NO_BAD:
                self._bad_ready = []
            return out

    # ------------------------------------------------------------------
    # batched drain (caller holds self._lock)
    # ------------------------------------------------------------------
    def _drain_locked(self) -> None:
        """Replay every staged entry, in arrival order, into the stats.

        Scoring results accumulate in the ``*_ready`` pickup state so
        drains triggered away from :meth:`drain` (a full stage, a read
        path) still surface through the next scoring pickup.
        """
        stage = self.stage
        if not stage:
            return
        pending = self._pending
        links = self._links
        max_pending = self.max_pending
        window = self.window
        threshold = self.threshold
        bad = self._bad_ready
        pairs = 0
        worst = self._worst_ready
        isfinite = math.isfinite
        pop = stage.popleft
        # Consecutive staged entries overwhelmingly share a link (and,
        # per link, a spec) in real traffic, so the per-link and
        # per-spec resolutions are memoized across loop iterations.
        route_link = obs_link = spec_link = None
        route_queue = quality = queue = kinds = None
        last_spec = last_stats = None
        while stage:
            entry = pop()
            link = entry[0]
            if len(entry) == 5:
                if link is not route_link:
                    route_queue = pending.get(link)
                    if route_queue is None:
                        route_queue = pending[link] = deque(maxlen=max_pending)
                    route_link = link
                if len(route_queue) == max_pending:
                    self.dropped += 1  # the append below evicts the oldest
                route_queue.append(entry)
                continue
            _, actual, when, version = entry
            if link is not obs_link:
                quality = links.get(link)
                if quality is None:
                    quality = links[link] = _LinkQuality()
                kinds = quality.kinds
                queue = pending.get(link)
                obs_link = link
            elif queue is None:
                queue = pending.get(link)
            scorable = actual > 0.0 and isfinite(actual)
            while queue and queue[0][3] < version:
                _, spec, predicted, _, kind = queue.popleft()
                kinds[kind] += 1
                if kind == KIND_DEGRADED:
                    stats = quality.degraded
                    if stats is None:
                        stats = quality.degraded = ErrorStats(window)
                elif spec is last_spec and link is spec_link:
                    stats = last_stats
                else:
                    by_spec = quality.by_spec
                    stats = by_spec.get(spec)
                    if stats is None:
                        stats = by_spec[spec] = ErrorStats(window)
                    last_spec, last_stats, spec_link = spec, stats, link
                if predicted is None:
                    stats.abstentions += 1
                elif scorable and isfinite(predicted):
                    frac = stats.add(predicted, actual, when)
                    pairs += 1
                    if frac > worst:
                        worst = frac
                    if threshold is not None and frac >= threshold:
                        bad.append((link, spec, predicted, actual, frac, kind))
                else:
                    stats.unscorable += 1
        self.scored += pairs
        self._pairs_ready += pairs
        self._worst_ready = worst

    def flush(self) -> None:
        """Replay all staged entries into the statistics now."""
        with self._lock:
            self._drain_locked()

    # ------------------------------------------------------------------
    # persistence (rides in the link checkpoint next to the bank)
    # ------------------------------------------------------------------
    def link_state(self, link: str) -> Optional[tuple]:
        """One link's scored state as a checkpoint part, or ``None``:
        :data:`_LINK`, the spec names, each spec's stats, then degraded's."""
        with self._lock:
            self._drain_locked()
            quality = self._links.get(link)
            if quality is None:
                return None
            names = [spec.encode() for spec in quality.by_spec]
            held = list(quality.by_spec.values())
            if quality.degraded is not None:
                held.append(quality.degraded)
            fixed = [_LINK.pack(*(quality.kinds[k] for k in ANSWER_KINDS),
                                len(names), quality.degraded is not None)]
            fixed += [_NAME.pack(len(name)) + name for name in names]
            windows: List[float] = []
            for stats in held:
                packed, _, window = stats.state()
                fixed.append(packed)
                windows += window
            return b"".join(fixed), (), windows

    def load_link_state(self, link: str, src) -> bool:
        """Restore a link's scored state from a checkpoint ``Reader`` over
        :meth:`link_state` output.

        In-process scored state wins over the checkpoint (an evict→revive
        cycle must not double-count); on a warm restart the links dict is
        empty and the checkpoint lands.  Returns whether it was applied.
        """
        with self._lock:
            if link in self._links:
                return False
            quality = _LinkQuality()
            *kinds, specs, degraded = src.unpack(_LINK)
            quality.kinds = dict(zip(ANSWER_KINDS, kinds))
            names = [src.raw(*src.unpack(_NAME)).decode() for _ in range(specs)]
            quality.by_spec = {n: ErrorStats.load_state(src) for n in names}
            if degraded:
                quality.degraded = ErrorStats.load_state(src)
            src.finish()
            self._links[link] = quality
            self.scored += sum(s.count for s in quality.by_spec.values())
            if quality.degraded is not None:
                self.scored += quality.degraded.count
            return True

    def forget(self, link: str) -> None:
        """Drop all state for a link (pairs with store deletion paths).

        The stage is replayed first so entries for *other* links are
        never lost, then the forgotten link's routed state is dropped.
        """
        with self._lock:
            self._drain_locked()
            self._pending.pop(link, None)
            self._links.pop(link, None)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        with self._lock:
            self._drain_locked()
            return sum(len(q) for q in self._pending.values())

    def new_error_pcts(self, seen: Dict[Tuple[str, str], int]) -> List[float]:
        """Absolute percent errors scored since the previous call.

        Feeds the error *histogram* at scrape time instead of per pair on
        the observe path.  ``seen`` maps ``(link, stream)`` to the
        ``count`` high-water mark from the previous call and is updated
        in place; degraded streams key as ``(link, "__degraded__")``.
        Between scrapes only the newest ``window`` pairs per stream are
        retained, so a long scrape gap yields a recency *sample* rather
        than an exact ledger — the running gauges stay exact regardless.
        """
        out: List[float] = []
        with self._lock:
            self._drain_locked()
            for link, quality in self._links.items():
                streams = list(quality.by_spec.items())
                if quality.degraded is not None:
                    streams.append(("__degraded__", quality.degraded))
                for stream, stats in streams:
                    key = (link, stream)
                    prev = seen.get(key, 0)
                    n = stats.count
                    if n == prev:
                        continue
                    seen[key] = n
                    w = stats.window
                    k = min(n - prev, len(w))
                    for _, frac, _, _ in islice(w, len(w) - k, None):
                        out.append(frac * 100.0)
        return out

    def status(self, max_links: int = 1000) -> Dict[str, Any]:
        """The full accuracy picture, aggregated at read time.

        Per-link and service-wide rollups are merged from the per-spec
        stats here (exact sum merges), never maintained on the score
        path.  The per-link section is elided beyond ``max_links``,
        mirroring ``PredictionService.status()``.
        """
        with self._lock:
            self._drain_locked()
            window = self.window
            pending = sum(len(q) for q in self._pending.values())
            # Every recorded answer is still pending, was dropped by the
            # cap, or was folded into exactly one stats bucket — so the
            # recorded total derives exactly, with no hot-path counter.
            folded = sum(
                s.count + s.abstentions + s.unscorable
                for quality in self._links.values()
                for s in (*quality.by_spec.values(),
                          *((quality.degraded,) if quality.degraded else ()))
            )
            out: Dict[str, Any] = {
                "enabled": True,
                "window": window,
                "recorded": pending + self.dropped + folded,
                "scored": self.scored,
                "dropped": self.dropped,
                "pending": pending,
                "link_count": len(self._links),
            }
            all_spec_stats: Dict[str, List[ErrorStats]] = {}
            degraded_parts: List[ErrorStats] = []
            links_section: Dict[str, Any] = {}
            for link, quality in self._links.items():
                for spec, stats in quality.by_spec.items():
                    all_spec_stats.setdefault(spec, []).append(stats)
                if quality.degraded is not None:
                    degraded_parts.append(quality.degraded)
                if len(self._links) <= max_links:
                    entry: Dict[str, Any] = {
                        "overall": merge_stats(
                            quality.by_spec.values(), window
                        ).summary(),
                        "by_spec": {
                            spec: stats.summary()
                            for spec, stats in quality.by_spec.items()
                        },
                        "kinds": dict(quality.kinds),
                    }
                    if quality.degraded is not None:
                        entry["degraded"] = quality.degraded.summary()
                    links_section[link] = entry
            every_part = [s for parts in all_spec_stats.values() for s in parts]
            out["overall"] = merge_stats(every_part, window).summary()
            out["by_spec"] = {
                spec: merge_stats(parts, window).summary()
                for spec, parts in sorted(all_spec_stats.items())
            }
            if degraded_parts:
                out["degraded"] = merge_stats(degraded_parts, window).summary()
            if len(self._links) <= max_links:
                out["links"] = links_section
            return out


class QualityFeed:
    """What a serving process publishes of its :class:`AccuracyTracker`.

    Two outlets, both off the per-pair path.  :meth:`drain` turns a
    batch of scorings into one ``prediction.scored`` event (``pairs``
    carries the batch size) and, when any pair crossed the tracker's
    threshold, one ``prediction.bad`` event plus the
    ``accuracy_bad_predictions`` counter.  :meth:`publish` refreshes the
    ``accuracy_*`` gauges and feeds the error histogram at scrape time
    (the Prometheus collector pattern).  The six instruments register in
    ``metrics`` whether or not a tracker is given (``tracker=None``:
    quality is off, and :meth:`publish` leaves them untouched).
    """

    def __init__(self, tracker: Optional[AccuracyTracker],
                 metrics: "MetricsRegistry", trace: "EventBus"):
        self.tracker = tracker
        self.trace = trace
        # (link, stream) -> scored-count high-water marks for the
        # scrape-time error-histogram feed (see publish).
        self._hist_seen: Dict[Tuple[str, str], int] = {}
        m = metrics
        self._m_error = m.histogram(
            "accuracy_abs_pct_error",
            "absolute percentage error per scored prediction")
        self._m_bad = m.counter(
            "accuracy_bad_predictions",
            "scored predictions whose normalized error exceeded the "
            "quality threshold")
        self._m_scored = m.gauge(
            "accuracy_pairs_scored",
            "prediction-observation pairs scored so far")
        self._m_pending = m.gauge(
            "accuracy_pending_predictions",
            "served answers awaiting their matching observation")
        self._m_mape = m.gauge(
            "accuracy_mape_pct",
            "running mean absolute percentage error of served predictions")
        self._m_mse = m.gauge(
            "accuracy_mse",
            "running mean squared error of served predictions ((bytes/s)^2)")

    def drain(self, link: str) -> None:
        """Score what was staged once it is worth it, and publish it.

        The tracker drains once its stage holds
        :data:`SCORED_EVENT_BATCH` entries.  One aggregated
        ``prediction.bad`` event per drain carries the worst miss in
        full and the crosser count, so a noisy predictor cannot flood
        the ring (the counter stays exact).
        """
        if len(self.tracker.stage) < SCORED_EVENT_BATCH:
            return
        pairs, worst, bad = self.tracker.drain()
        if not pairs:
            return
        if bad:
            self._m_bad.inc(len(bad))
            bad_link, spec, predicted, bad_actual, frac, kind = max(
                bad, key=lambda b: b[4])
            self.trace.emit(
                "prediction.bad", link=bad_link, spec=spec,
                predicted=predicted, actual=bad_actual,
                error_pct=frac * 100.0, answer=kind, count=len(bad))
        self.trace.emit(
            "prediction.scored", link=link, pairs=pairs,
            worst_pct=worst * 100.0)

    def publish(self) -> None:
        """Refresh the accuracy gauges from the tracker.

        Callers that export or render metrics — the socket server's
        ``metrics`` op, ``serve --metrics-file`` snapshots — call this
        first, so the hot path never pays for gauge fan-out.  Labeled
        children carry per-spec and per-link running MAPE/MSE.  The
        error histogram is fed here too, from the errors scored since
        the previous scrape (bounded by the tracker's rolling window —
        see :meth:`AccuracyTracker.new_error_pcts`).
        """
        tracker = self.tracker
        if tracker is None:
            return
        observe_error = self._m_error.observe
        for pct in tracker.new_error_pcts(self._hist_seen):
            observe_error(pct)
        accuracy = tracker.status()
        self._m_scored.set(float(accuracy["scored"]))
        self._m_pending.set(float(accuracy["pending"]))
        overall = accuracy["overall"]
        if overall["mape"] is not None:
            self._m_mape.set(overall["mape"])
            self._m_mse.set(overall["mse"])
        for spec, summary in accuracy["by_spec"].items():
            if summary["mape"] is not None:
                self._m_mape.labels(spec=spec).set(summary["mape"])
                self._m_mse.labels(spec=spec).set(summary["mse"])
        for link, entry in (accuracy.get("links") or {}).items():
            link_overall = entry["overall"]
            if link_overall["mape"] is not None:
                self._m_mape.labels(link=link).set(link_overall["mape"])
                self._m_mse.labels(link=link).set(link_overall["mse"])
