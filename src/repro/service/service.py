"""The long-lived online prediction service.

The paper's end state is not offline log replay but a live information
service: a GRIS answering replica-selection inquiries from fresh GridFTP
logs in 1–2 seconds (Sections 5–6).  :class:`PredictionService` is that
serving path:

* **Ingest** — ULM records arrive incrementally (:meth:`observe`,
  :meth:`ingest_records`, :meth:`ingest_ulm`, or the
  tail-follower in :mod:`repro.service.tail`) and fold into per-link
  :class:`~repro.service.state.LinkState` arrays.  No query ever re-reads
  a log file.
* **Serve** — :meth:`predict` answers ``(link, size, predictor spec)``
  queries from warm state through an LRU cache; :meth:`rank_replicas`
  ranks candidate source links for a transfer, the broker use case of
  Section 1.  Every link carries a
  :class:`~repro.core.streaming.StreamingBank`, and a cache miss on a
  battery spec is answered from it in O(1)/O(log n), independent of
  history length.  The generic predictors run where the bank raises
  :class:`~repro.core.streaming.StreamingUnavailable` — a spec with no
  incremental form (``SIZE``, hybrids) or an anchor behind an expired
  window — over a snapshot of the link's columns; which of the two
  answers is decided by the query, never by a setting.
* **Caching** — entries are keyed on ``(link, spec, context, version)``.
  The version component makes invalidation *precise*: the moment a
  link's history grows its version moves and every stale entry becomes
  unreachable (and ages out of the LRU); other links' entries are
  untouched.  The context component captures exactly what else the
  predictor's answer depends on — the target's size class for ``C-``
  specs, the exact size for ``SIZE``, the anchor time for temporal
  windows — so a hit is always bit-identical to a recompute.
* **Concurrency** — a lock per link serializes mutation; predictions run
  on immutable snapshots outside any lock, so queries on different links
  (or even the same link) proceed in parallel with ingest.
* **Durability** — with a :class:`~repro.store.LinkStore` attached,
  every fold writes through to an append-only tail log.  Which links are
  in RAM is :attr:`PredictionService.residency`
  (:class:`~repro.service.residency.Residency`): cold links revive
  transparently on first touch (their checkpoint loaded over their
  durable rows, or a rebuild from them), and an LRU ``max_resident``
  ceiling bounds RAM no matter how many links the store holds.
  Revival preserves version continuity — cache keys survive an
  evict→revive cycle — and revived answers are trace-identical to an
  always-resident run (the durable-store parity suite asserts this on
  the shipped logs).
* **Observability** — every ingest and query updates the service's
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges, a
  predict-latency histogram); the rare events — ingests, revivals,
  evictions, scored and bad predictions — go to the
  :class:`~repro.obs.events.EventBus` ring at ``service.trace``, which
  per-request traffic never touches, so it still holds them under load.
  The registry is per-service so two services never mix their counts;
  pipeline-level metrics (ingest, evaluation, MDS) live in the
  process-wide :func:`repro.obs.get_registry`, and the socket server's
  ``metrics`` op merges both views.

Predictions are numerically identical to the batch evaluator: a query at
history version *v* returns exactly what ``evaluate()`` computes at the
same log prefix (the parity test walks every prefix of the shipped
campaign logs).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import Deadline
    from repro.store import LinkStore

from repro.core.classification import paper_classification
from repro.core.history import History
from repro.core.predictors.arima import ArModel
from repro.core.predictors.base import Predictor
from repro.core.predictors.classified import ClassifiedPredictor
from repro.core.predictors.mean import TemporalAverage
from repro.core.predictors.registry import resolve
from repro.core.predictors.size_model import SizeScaledPredictor
from repro.core.selection import RankedReplica
from repro.core.streaming import StreamingUnavailable
from repro.data.frame import TransferFrame
from repro.data.ingest import load_ulm
from repro.logs.record import Operation, TransferRecord
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import SCORED_EVENT_BATCH, AccuracyTracker, QualityFeed
from repro.service.residency import Residency
from repro.service.state import OP_READ, OP_WRITE, LinkState
from repro.wire import rank_key

__all__ = ["Prediction", "PredictionCache", "PredictionService", "DEFAULT_SPEC"]

#: The service default: the paper's overall strongest small-window
#: classified predictor (Figure 4 / Section 6 discussion).
DEFAULT_SPEC = "C-AVG15"

_MISSING = object()


@dataclass(frozen=True, slots=True)
class Prediction:
    """One answered query."""

    link: str
    spec: str
    target_size: int
    value: Optional[float]      # bytes/s; None = the predictor abstained
    cached: bool                # served from the LRU cache
    version: int                # link history version answered against
    history_length: int
    latency_seconds: float
    #: True when the value is a low-confidence link-agnostic fallback
    #: (the link had no history and the service degraded gracefully
    #: instead of answering nothing; see ``degraded_fallback``).
    degraded: bool = False
    #: True when the value came off the O(1) streaming bank rather than a
    #: cache hit or a full-history recompute.
    streamed: bool = False


class PredictionCache:
    """A thread-safe LRU mapping cache keys to predicted values.

    ``None`` (abstention) is a first-class cached value — recomputing an
    abstention costs the same class filter and window scan as a number.
    """

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: "OrderedDict[Tuple, Optional[float]]" = OrderedDict()

    def get(self, key: Tuple):
        """The cached value, or the module sentinel on a miss."""
        with self._lock:
            if key not in self._data:
                return _MISSING
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: Tuple, value: Optional[float]) -> int:
        """Insert and return the live entry count (saves a second lock
        round-trip for callers that gauge the size after every put)."""
        return self.put_many(((key, value),))

    def get_many(self, keys: Sequence[Tuple]) -> List:
        """One lookup per key under a single lock acquisition.

        Misses come back as the module sentinel, so the result aligns
        with ``keys`` — the batch path probes a whole link group without
        paying the lock round-trip per pair.
        """
        with self._lock:
            data = self._data
            out = []
            for key in keys:
                if key in data:
                    data.move_to_end(key)
                    out.append(data[key])
                else:
                    out.append(_MISSING)
            return out

    def put_many(self, pairs: Iterable[Tuple[Tuple, Optional[float]]]) -> int:
        """Insert many entries under one lock; returns the entry count."""
        with self._lock:
            data = self._data
            for key, value in pairs:
                data[key] = value
                data.move_to_end(key)
            while len(data) > self.capacity:
                data.popitem(last=False)
            return len(data)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class PredictionService:
    """Warm per-link state + cached predictions + metrics.

    Parameters
    ----------
    default_spec:
        Predictor spec used when a query names none.
    cache_size:
        LRU capacity (entries, across all links and specs).
    clock:
        Time source for default query anchors and trace timestamps
        (injectable for tests).
    degraded_fallback:
        When True, a query for a link with **no history** answers a
        low-confidence link-agnostic aggregate (the mean of every known
        link's mean bandwidth) marked ``degraded=True`` instead of
        ``value=None`` — graceful degradation for brokers that must
        rank a replica nobody has measured yet.  Off by default:
        abstention is the honest answer unless the deployment opts in.
    store:
        A :class:`~repro.store.LinkStore` for durable tiered history.
        When set, every fold is written through to disk, queries for
        links the store knows but RAM does not revive transparently
        (checkpoint restore when possible, rebuild from the durable
        columns otherwise), and :meth:`checkpoint_all` spills every
        resident bank for a warm restart.  Revival preserves **version
        continuity** — cache keys survive an evict→revive cycle — and
        revived answers are trace-identical to an always-resident run.
    max_resident:
        Resident-link ceiling.  When the store is set and the resident
        count would exceed this, the least-recently-used links are
        checkpointed and dropped from RAM, bounding the service's
        footprint no matter how many links the store holds.  A link whose
        store holds fewer rows than RAM (a refused write-through) is
        skipped and stays resident.  ``None`` (the default) never evicts.
    quality:
        When True (the default), an :class:`~repro.obs.quality.
        AccuracyTracker` pairs every served answer with the next
        observation on its link and maintains O(1) streaming error
        statistics (running/windowed MAPE, MSE, bias, calibration
        buckets) per link and per spec — the live counterpart of the
        paper's offline observed-vs-predicted evaluation, surfaced
        through :meth:`status`, the metrics registry
        (:meth:`QualityFeed.publish <repro.obs.quality.QualityFeed.publish>`
        via :attr:`quality_feed`), and ``prediction.scored`` /
        ``prediction.bad`` trace events.  The tracker never changes an
        answer: predictions are trace-identical with it on or off.
    quality_threshold:
        Normalized-error threshold (``|pred - actual| / actual``) above
        which a scored answer is logged as a ``prediction.bad`` event
        and counted in ``accuracy_bad_predictions``.  ``None`` disables
        the bad-prediction log.

    What no caller sets is fixed: the paper's size classes
    (:func:`~repro.core.classification.paper_classification`) for
    ``C-`` specs and :meth:`links`' class views, a registry of the
    service's own (``self.metrics``), a 256-event trace ring
    (``self.trace``), and the tracker's 128-pair rolling window.
    """

    def __init__(
        self,
        default_spec: str = DEFAULT_SPEC,
        cache_size: int = 2048,
        clock: Callable[[], float] = time.time,
        degraded_fallback: bool = False,
        store: Optional["LinkStore"] = None,
        max_resident: Optional[int] = None,
        quality: bool = True,
        quality_threshold: Optional[float] = 1.0,
    ):
        resolve(default_spec)  # fail fast on a bad default
        if max_resident is not None and max_resident <= 0:
            raise ValueError(
                f"max_resident must be positive, got {max_resident}")
        self.default_spec = default_spec
        self.degraded_fallback = degraded_fallback
        self.classification = paper_classification()
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.trace = EventBus(256, clock=clock)
        self.store = store
        self.quality_threshold = (
            None if quality_threshold is None else float(quality_threshold)
        )
        self.quality: Optional[AccuracyTracker] = (
            AccuracyTracker(clock=clock, threshold=self.quality_threshold)
            if quality else None
        )
        # The tracker's staging deque, bound once: the predict/observe
        # hot paths stage through this single attribute (None when the
        # tracker is disabled) instead of two loads per call.
        self._q_stage = self.quality.stage if self.quality is not None else None
        self.quality_feed = QualityFeed(self.quality, self.metrics, self.trace)
        self.residency = Residency(
            self.classification, self.metrics, self.trace, store=store,
            max_resident=max_resident, quality=self.quality)
        self._get = self.residency.get
        self._m_rebuilds = self.residency.rebuilds  # the parity suites read it

        self._cache = PredictionCache(cache_size)
        self._predictors: Dict[str, Predictor] = {}
        self._predictors_lock = threading.Lock()
        self._plans: Dict[str, Tuple[bool, bool, bool]] = {}

        m = self.metrics
        self._m_ingested = m.counter(
            "service_ingested_records", "records folded into link state")
        self._m_predicts = m.counter(
            "service_predict_requests", "predict() calls answered")
        self._m_hits = m.counter("service_cache_hits", "predictions served from LRU")
        self._m_misses = m.counter("service_cache_misses", "predictions computed")
        self._m_cache_size = m.gauge("service_cache_entries", "live LRU entries")
        self._m_latency = m.histogram(
            "service_predict_seconds", "predict() wall-clock latency")
        self._m_fallbacks = m.counter(
            "service_fallback_predictions",
            "degraded link-agnostic fallback answers served")
        self._m_streamed = m.counter(
            "service_streaming_answers",
            "cache misses answered from the O(1) streaming bank")
        self._m_stream_fallbacks = m.counter(
            "service_streaming_fallbacks",
            "cache misses recomputed from a snapshot (unbanked spec or "
            "expired window)")
        self._m_batches = m.counter(
            "service_batch_requests", "predict_batch() calls answered")
        self._m_batch_items = m.counter(
            "service_batch_predictions",
            "individual predictions answered through predict_batch()")
        self._m_batch_size = m.histogram(
            "service_batch_size", "items per predict_batch() call")
        self._m_batch_latency = m.histogram(
            "service_batch_seconds", "predict_batch() wall-clock latency")

    # ------------------------------------------------------------------
    # link state
    # ------------------------------------------------------------------
    def links(self) -> List[str]:
        """Every link the service can answer for — resident or spilled."""
        return self.residency.names()

    def checkpoint_all(self, seal: bool = False) -> int:
        """Checkpoint every resident link (:meth:`Residency.checkpoint_all`)."""
        return self.residency.checkpoint_all(seal)

    def version(self, link: str) -> int:
        """Current history version of a link (0 = never observed)."""
        state = self._get(link)
        return state.version if state is not None else 0

    def history(self, link: str) -> History:
        """Immutable snapshot of a link's observations."""
        state = self._get(link)
        return state.history() if state is not None else History.empty()

    def link_state(self, link: str) -> Optional[LinkState]:
        """The raw per-link state (providers use :meth:`LinkState.snapshot`)."""
        return self._get(link)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def observe(
        self, link: str, record: TransferRecord, source_offset: int = 0
    ) -> int:
        """Fold one completed transfer into a link; returns the new version.

        ``source_offset`` — the followed log's byte position after this
        record, when log-driven — rides through to the durable store so
        a warm restart resumes the follower exactly where durability
        actually reached.
        """
        state = self._get(link, create=True)
        version = state.append(record, source_offset=source_offset)
        stage = self._q_stage
        if stage is not None:
            # Inlined tracker.score(): observe() is the hottest scoring
            # call site and a Python frame per record is measurable, so
            # the observation goes straight onto the staging deque (a
            # GIL-atomic C append — the tracker's documented hot-path
            # contract) and the feed's drain rule is tested here.
            stage.append((link, record.bandwidth, record.end_time, version))
            if len(stage) >= SCORED_EVENT_BATCH:
                self.quality_feed.drain(link)
        self._m_ingested.inc()
        return version

    def observe_batch(self, items: Sequence) -> List[int]:
        """Fold many observations in one grouped sweep over the links.

        ``items`` is a sequence of ``(link, record)`` or ``(link,
        record, source_offset)`` tuples.  Returns the per-record
        versions in request order — each identical to what sequential
        :meth:`observe` calls would have assigned (the parity suite
        asserts this), because the version still advances exactly one
        per record.

        This is ``predict_batch``'s write-path twin: the batch is
        grouped per link so each link pays one lock acquisition, one
        vectorized :meth:`StreamingBank.extend` fold (plus one merge and
        one rebuild if any of its rows land out of order) and one WAL
        write, instead of one of each per record; quality staging
        drains **once** at the end, and — when a durable
        store is attached — per-link appends defer their fsync to a
        single cross-link :meth:`~repro.store.LinkStore.group_commit`,
        so ``--fsync`` deployments pay at most one fsync per (link,
        batch) while the returned versions still mean *durable*.
        """
        n = len(items)
        if n == 0:
            return []
        norm: List[Tuple[str, TransferRecord, int]] = [
            (str(item[0]), item[1],
             int(item[2]) if len(item) > 2 else 0)
            for item in items
        ]
        groups: Dict[str, List[int]] = {}
        for i, (link, _, _) in enumerate(norm):
            groups.setdefault(link, []).append(i)

        versions: List[int] = [0] * n
        batch_sync = False if self.store is not None else None
        for link, idxs in groups.items():
            state = self._get(link, create=True)
            _, records, offsets = zip(*(norm[i] for i in idxs))
            last = state.append_batch(
                [r.end_time for r in records], [r.bandwidth for r in records],
                [r.file_size for r in records],
                [OP_READ if r.operation is Operation.READ else OP_WRITE
                 for r in records],
                source_offset=offsets, sync=batch_sync)
            k = len(idxs)
            for pos, i in enumerate(idxs):
                versions[i] = last - k + 1 + pos
        if self.store is not None:
            # The durability barrier: acked versions become durable here,
            # one fsync per touched link at most.
            self.store.group_commit(groups.keys())

        stage = self._q_stage
        if stage is not None:
            stage_obs = stage.append
            for (link, record, _), version in zip(norm, versions):
                stage_obs((link, record.bandwidth, record.end_time, version))
            self.quality_feed.drain(norm[-1][0])
        self._m_ingested.inc(n)
        return versions

    def ingest_records(self, link: str, records: Iterable[TransferRecord]) -> int:
        """Observe many records; returns how many were folded."""
        count = 0
        for record in records:
            self.observe(link, record)
            count += 1
        return count

    def ingest_frame(
        self, link: str, frame: TransferFrame, source_offset: int = 0
    ) -> int:
        """Bulk-fold a columnar frame into a link; returns how many records.

        The frame's columns go through :meth:`LinkState.append_batch` as
        they are — a sorted log is one ``extend``, rows out of order are
        merged at once — with a single ``ingest`` trace event, leaving the
        link state and version that per-record :meth:`observe` calls
        would.
        """
        n = len(frame)
        if n == 0:
            return 0
        state = self._get(link, create=True)
        version = state.append_batch(
            frame.end_times, frame.bandwidths, frame.sizes, frame.ops,
            source_offset=source_offset)
        stage = self._q_stage
        if stage is not None:
            # The version moved by n under one lock, so every answer
            # still pending was served before the frame's first row and
            # pairs with it, as with the first item of an observe_batch;
            # the rows after it would find nothing left to score.
            stage.append((link, float(frame.bandwidths[0]),
                          float(frame.end_times[0]), version - n + 1))
            self.quality_feed.drain(link)
        self._m_ingested.inc(n)
        self.trace.emit("ingest", link=link, version=version, records=n)
        return n

    def ingest_ulm(
        self,
        path: Union[str, Path],
        link: Optional[str] = None,
        cache: bool = True,
    ) -> Tuple[str, int]:
        """Load a ULM log file into a link (default link: the file stem).

        The file is parsed by the vectorized one-pass ingest and folded in
        bulk.  Returns ``(link, records ingested)``.  ``cache`` is
        accepted and ignored: the benchmark ledger's traced pass still
        passes ``cache=False``.
        """
        path = Path(path)
        name = link or path.stem
        offset = 0
        if self.store is not None:
            # Stamp the file size (taken before the read) as the durable
            # resume offset: a warm restart's follower starts here
            # instead of re-delivering the whole file.  Lines appended
            # after this stat land beyond the offset and still flow.
            try:
                offset = path.stat().st_size
            except OSError:
                offset = 0
        count = self.ingest_frame(
            name, load_ulm(path), source_offset=offset)
        self.trace.emit("ingest_ulm", link=name, path=str(path), records=count)
        return name, count

    # ------------------------------------------------------------------
    # predictors and cache keys
    # ------------------------------------------------------------------
    def _resolve(self, spec: str) -> Predictor:
        """Resolve and memoize a spec (registry predictors are stateless).

        The memo read is lock-free (GIL-atomic dict get; entries are
        only ever added); the lock guards first-resolution only.
        """
        predictor = self._predictors.get(spec)
        if predictor is not None:
            return predictor
        with self._predictors_lock:
            predictor = self._predictors.get(spec)
            if predictor is None:
                predictor = resolve(spec, classification=self.classification)
                self._predictors[spec] = predictor
            return predictor

    def _context(self, spec: str, predictor: Predictor, size: int, now: float) -> Tuple:
        """The non-(link, spec, version) inputs the answer depends on.

        * ``C-`` specs depend on the target's size *class* only;
        * ``SIZE`` (possibly under ``C-``) depends on the exact size;
        * temporal windows (``AVG{n}hr``, ``AR{n}d``) anchor at ``now``.

        Everything else is insensitive to both, so distinct queries can
        share one cache entry.  Which of the three a spec depends on is a
        pure function of the (stateless) predictor, so it is worked out
        once per spec and memoized — the isinstance chain is measurable
        on the per-query hot path.  The benign race on the memo dict is
        harmless: both writers store the same tuple.
        """
        plan = self._plans.get(spec)
        if plan is None:
            classified = isinstance(predictor, ClassifiedPredictor)
            base = predictor.base if classified else predictor
            plan = self._plans[spec] = (
                classified,
                isinstance(base, SizeScaledPredictor),
                isinstance(base, TemporalAverage)
                or (isinstance(base, ArModel) and base.window_days is not None),
            )
        classified, size_sensitive, now_sensitive = plan
        return (
            self.classification.classify(size) if classified else None,
            size if size_sensitive else None,
            now if now_sensitive else None,
        )

    # ------------------------------------------------------------------
    # serve
    # ------------------------------------------------------------------
    def predict(
        self,
        link: str,
        size: int,
        spec: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Prediction:
        """Answer one query from warm state.

        ``now`` defaults to the service clock — a live query is anchored
        at inquiry time, exactly where a replica decision happens.  An
        unknown link answers ``value=None`` over empty history rather
        than raising: brokers routinely ask about links with no data yet.

        A cache miss on a battery spec is answered by the link's
        streaming bank in O(1)/O(log n); other specs (and anchors the
        bank cannot serve) recompute from an immutable snapshot with the
        generic predictor — same answer, O(n) cost.
        """
        t0 = time.perf_counter()
        spec = spec or self.default_spec
        return self._predict_on(self._get(link), link, size, spec, now, t0)

    def _predict_on(
        self,
        state: Optional[LinkState],
        link: str,
        size: int,
        spec: str,
        now: Optional[float],
        t0: float,
    ) -> Prediction:
        value, cached, streamed = None, False, False
        history: Optional[History] = None
        version = length = 0
        # An unknown link costs no predictor resolution and no
        # context/cache-key work: unmeasured-link misses are near-free.
        if state is not None:
            anchor = self.clock() if now is None else now
            with state.lock:
                # One locked region: the version, the bank's contents, and
                # the cache key must all describe the same history prefix.
                version, length = state.meta()
                if length:
                    predictor = self._resolve(spec)
                    key = (link, spec,
                           self._context(spec, predictor, size, anchor), version)
                    hit = self._cache.get(key)
                    if hit is not _MISSING:
                        value, cached = hit, True
                    else:
                        try:
                            value = state.bank.answer(predictor, size, anchor)
                            streamed = True
                        except StreamingUnavailable:
                            history = state.history()
        if cached:
            self._m_hits.inc()
        elif length:
            if history is not None:
                # Snapshot recompute, outside the lock.
                value = predictor.predict(history, target_size=size, now=anchor)
            self._m_misses.inc()
            if streamed:
                self._m_streamed.inc()
            else:
                self._m_stream_fallbacks.inc()
            self._m_cache_size.set(self._cache.put(key, value))
        degraded = False
        if value is None and length == 0 and self.degraded_fallback:
            # Graceful degradation: a link nobody has measured yet gets
            # the link-agnostic aggregate, explicitly marked low-confidence.
            value = self._fallback_value()
            degraded = value is not None

        latency = time.perf_counter() - t0
        self._m_predicts.inc()
        self._m_latency.observe(latency)
        stage = self._q_stage
        if stage is not None:
            # Inlined tracker.record(): one staged append on the predict
            # hot path; the observe side (or the stage cap) drains it.
            stage.append((
                link, spec, value, version,
                "degraded" if degraded else "cached" if cached
                else "streamed" if streamed else "recomputed",
            ))
            if len(stage) >= self.quality.stage_limit:
                self.quality.flush()
        return Prediction(
            link=link, spec=spec, target_size=size, value=value, cached=cached,
            version=version, history_length=length, latency_seconds=latency,
            degraded=degraded, streamed=streamed,
        )

    def predict_batch(
        self,
        items: Sequence,
        spec: Optional[str] = None,
        now: Optional[float] = None,
        deadline: Optional["Deadline"] = None,
    ) -> List[Prediction]:
        """Answer many queries in one sweep over the per-link banks.

        ``items`` is a sequence of ``(link, size)`` / ``(link, size,
        spec)`` / ``(link, size, spec, now)`` tuples or ``{"link", "size",
        "spec"?, "now"?}`` dicts; ``spec``/``now`` fill in per-item gaps
        (``spec`` defaults to the service default, ``now`` to one shared
        clock read, so the whole batch is anchored consistently — the
        replica-selection posture, where thousands of pairs are judged at
        one decision instant).

        The batch is grouped by link so each link's lock is taken **once**
        per sweep, not once per pair: under that single acquisition the
        group's cache keys are built against one ``(version, bank)``
        snapshot, probed through the LRU in one locked pass
        (:meth:`PredictionCache.get_many`), and every miss is answered
        from the streaming bank in O(1); misses the bank cannot serve
        share one zero-copy history snapshot and recompute *outside* the
        lock.  New entries land through one :meth:`~PredictionCache.put_many`.
        Every answer is exactly what :meth:`predict` would have returned
        item by item (the parity suite asserts this on the shipped logs);
        instrument updates are batched (one ``inc`` per counter per
        sweep), a ``service_batch_size``/``service_batch_seconds``
        histogram pair records sweep shape, and per-item
        ``latency_seconds`` reports the amortized cost.  ``deadline`` is
        checked between link groups, so one huge batch cannot outlive its
        request budget unobserved.
        """
        t0 = time.perf_counter()
        base_spec = spec or self.default_spec
        norm: List[Tuple[str, int, str, Optional[float]]] = []
        for item in items:
            if isinstance(item, dict):
                link, size = str(item["link"]), int(item["size"])
                spec_i = item.get("spec") or base_spec
                now_i = item.get("now", now)
            else:
                link, size = str(item[0]), int(item[1])
                spec_i = (item[2] if len(item) > 2 else None) or base_spec
                now_i = item[3] if len(item) > 3 and item[3] is not None else now
            norm.append((link, size, spec_i,
                         None if now_i is None else float(now_i)))

        n = len(norm)
        # Per item: (value, cached, version, length, streamed); the
        # Prediction objects are built at the end, once the sweep's
        # amortized latency is known.
        partial: List[Optional[Tuple]] = [None] * n
        groups: Dict[str, List[int]] = {}
        for i, (link, _, _, _) in enumerate(norm):
            groups.setdefault(link, []).append(i)

        anchor_default: Optional[float] = None
        puts: List[Tuple[Tuple, Optional[float]]] = []
        hits = streamed_n = recomputed = 0

        for link, idxs in groups.items():
            if deadline is not None:
                deadline.check("predict_batch")
            state = self._get(link)
            if state is None:
                for i in idxs:
                    partial[i] = (None, False, 0, 0, False)
                continue
            pending: List[Tuple[int, Predictor, Tuple, int, float]] = []
            history: Optional[History] = None
            # Keys first scheduled in this sweep -> their eventual value;
            # later items on the same key resolve as hits (exactly what
            # the sequential path would have seen) without recomputing.
            group_new: Dict[Tuple, Optional[float]] = {}
            dups: List[Tuple[int, Tuple]] = []
            with state.lock:
                # One locked region per *group*: version, bank contents,
                # and every key in the group describe one history prefix.
                version, length = state.meta()
                if length == 0:
                    for i in idxs:
                        partial[i] = (None, False, version, 0, False)
                    continue
                keys = []
                metas = []
                for i in idxs:
                    _, size, spec_i, now_i = norm[i]
                    if now_i is None:
                        if anchor_default is None:
                            anchor_default = self.clock()
                        now_i = anchor_default
                    predictor = self._resolve(spec_i)
                    keys.append((
                        link, spec_i,
                        self._context(spec_i, predictor, size, now_i), version,
                    ))
                    metas.append((i, predictor, size, now_i))
                for (i, predictor, size, now_i), key, hit in zip(
                    metas, keys, self._cache.get_many(keys)
                ):
                    if hit is not _MISSING:
                        partial[i] = (hit, True, version, length, False)
                        hits += 1
                    elif key in group_new:
                        dups.append((i, key))
                        hits += 1
                    else:
                        try:
                            value = state.bank.answer(predictor, size, now_i)
                        except StreamingUnavailable:
                            if history is None:
                                history = state.history()
                            pending.append((i, predictor, key, size, now_i))
                            group_new[key] = None
                        else:
                            partial[i] = (value, False, version, length, True)
                            streamed_n += 1
                            puts.append((key, value))
                            group_new[key] = value
            # Snapshot recomputes for this group, outside the lock.
            for i, predictor, key, size, now_i in pending:
                value = predictor.predict(history, target_size=size, now=now_i)
                partial[i] = (value, False, version, length, False)
                puts.append((key, value))
                group_new[key] = value
            recomputed += len(pending)
            for i, key in dups:
                partial[i] = (group_new[key], True, version, length, False)

        if puts:
            self._m_cache_size.set(self._cache.put_many(puts))
        elapsed = time.perf_counter() - t0
        per_item = elapsed / n if n else 0.0
        results: List[Prediction] = []
        for (link, size, spec_i, _), (value, cached, version, length,
                                      streamed) in zip(norm, partial):
            degraded = False
            if value is None and length == 0 and self.degraded_fallback:
                value = self._fallback_value()
                degraded = value is not None
            results.append(Prediction(
                link=link, spec=spec_i, target_size=size, value=value,
                cached=cached, version=version, history_length=length,
                latency_seconds=per_item, degraded=degraded, streamed=streamed,
            ))

        stage = self._q_stage
        if stage is not None:
            stage.extend(
                (p.link, p.spec, p.value, p.version,
                 "degraded" if p.degraded else "cached" if p.cached
                 else "streamed" if p.streamed else "recomputed")
                for p in results)
            if len(stage) >= self.quality.stage_limit:
                self.quality.flush()

        # Batched instrument updates: one inc per counter per sweep.
        self._m_predicts.inc(n)
        self._m_hits.inc(hits)
        self._m_misses.inc(n - hits)
        self._m_streamed.inc(streamed_n)
        self._m_stream_fallbacks.inc(recomputed)
        self._m_batches.inc()
        self._m_batch_items.inc(n)
        self._m_batch_size.observe(float(n))
        self._m_batch_latency.observe(elapsed)
        return results

    def _fallback_value(self) -> Optional[float]:
        """The degraded link-agnostic answer, counted.

        Never cached — it depends on every *other* link's state.
        """
        value = self.aggregate_bandwidth()
        if value is not None:
            self._m_fallbacks.inc()
        return value

    def aggregate_bandwidth(self) -> Optional[float]:
        """Link-agnostic aggregate: the mean of per-link mean bandwidths.

        The degraded-fallback value — deliberately crude (every link
        weighs the same regardless of sample count) because its job is
        a plausible low-confidence prior, not a forecast.  ``None``
        when no link has any history at all.
        """
        states = self.residency.resident().values()
        # Each link's mean is its bank's ``AVG`` answer: O(1) a link,
        # where a mean over ``history()`` would walk its columns.
        average = self._resolve("AVG")
        means = []
        for state in states:
            with state.lock:
                mean = state.bank.answer(average, 0, None)
            if mean is not None:
                means.append(mean)
        if not means:
            return None
        return sum(means) / len(means)

    def rank_replicas(
        self,
        candidates: Sequence[str],
        size: int,
        spec: Optional[str] = None,
        now: Optional[float] = None,
        deadline: Optional["Deadline"] = None,
    ) -> List[RankedReplica]:
        """Rank candidate source links for a ``size``-byte transfer.

        Candidates sort stably by :func:`repro.wire.rank_key`:
        confident predictions by descending bandwidth, then degraded
        fallback answers (see ``degraded_fallback``), then candidates
        with no value at all (unknown link, abstaining predictor), which
        are reported so a caller may explore them; ties keep the order
        of ``candidates``, a repeat counted at its first place.

        The spec is resolved once and every candidate's link state is
        gathered (reviving spilled links from the durable store) before
        any prediction runs; all candidates share one anchor time, so
        the ranking is a consistent snapshot rather than a drifting one.
        ``deadline`` is checked before each candidate's lookup, so a
        ranking of many cold links cannot outlive its request budget.
        """
        spec = spec or self.default_spec
        unique = list(dict.fromkeys(candidates))
        if unique:
            self._resolve(spec)  # memoize once, not once per candidate
        anchor = self.clock() if now is None else now
        # A lookup (not a raw dict read), so a candidate the store knows
        # but RAM does not revives transparently — a broker ranking a
        # cold link gets its real history, not an unknown-link shrug.
        states = []
        for link in unique:
            if deadline is not None:
                deadline.check("rank")
            states.append((link, self._get(link)))
        ranked = sorted(
            (self._predict_on(state, link, size, spec, anchor,
                              time.perf_counter())
             for link, state in states),
            key=lambda p: rank_key(p.value, p.degraded),
        )
        return [
            RankedReplica(site=p.link, predicted_bandwidth=p.value,
                          history_length=p.history_length, degraded=p.degraded)
            for p in ranked
        ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        hits = self._m_hits.value
        misses = self._m_misses.value
        total = hits + misses
        return {
            "entries": float(len(self._cache)),
            "capacity": float(self._cache.capacity),
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / total if total else 0.0,
        }

    def status(self) -> Dict[str, object]:
        """One JSON-ready structure describing the whole service.

        Per-link detail is elided past 1000 resident links (a fleet
        status answer should not serialize a 100k-entry map); the
        counts always appear.
        """
        resident = self.residency.resident()
        links: Dict[str, object] = {}
        if len(resident) <= 1000:
            links = {
                name: {"records": len(state), "version": state.version}
                for name, state in sorted(resident.items())
            }
        status: Dict[str, object] = {
            "default_spec": self.default_spec,
            "links": links,
            "link_count": len(resident),
            "cache": self.cache_stats(),
            "ingested": self._m_ingested.value,
            "predicts": self._m_predicts.value,
            "streaming": {
                "streamed": self._m_streamed.value,
                "recomputed": self._m_stream_fallbacks.value,
            },
            "accuracy": (
                self.quality.status() if self.quality is not None
                else {"enabled": False}
            ),
        }
        store = self.residency.status()
        if store is not None:
            status["store"] = store
        return status
