"""The GridFTP performance information providers (Section 5.1, Figure 6).

Bridges the instrumentation and delivery layers: reads the server's
transfer log, filters it, classifies entries into file-size classes,
computes summary statistics and per-class predictions, and publishes one
LDIF entry per server under the ``GridFTPPerf`` object class.

Three providers differ in where the summaries come from — a rescan of
the log (:class:`GridFTPInfoProvider`, the paper's), running summaries
folded per appended record (:class:`IncrementalGridFTPInfoProvider`),
the columns a warm prediction service already holds
(:class:`ServicePerfProvider`) — and share the entry itself:
:func:`perf_entry` is the only place the DN, the attribute names, their
order and the ``K`` rendering are written down, so the three publish
byte-identical LDIF for the same log (the service predicts from a
link's whole history, so for it that holds while no size class mixes
reads and writes).

Bandwidths are rendered the way Figure 6 prints them — integer KB/s with a
``K`` suffix (``avgrdbandwidth: 6062K``).

:meth:`GridFTPInfoProvider.report` additionally returns a timing breakdown
(filter / classify+summarize / predict), which the latency benchmark uses
to check the paper's "~700 log entries in 1–2 seconds" claim against this
implementation.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.classification import Classification, paper_classification
from repro.core.predictors.base import Predictor
from repro.core.predictors.mean import TotalAverage
from repro.data.frame import OP_READ, OP_WRITE, TransferFrame
from repro.logs.logfile import TransferLog
from repro.logs.record import Operation, TransferRecord
from repro.logs.stats import (
    BandwidthSummary,
    RunningSummary,
    summarize_frame_by_class,
    summarize_values,
)
from repro.mds.ldif import Entry
from repro.net.topology import Site
from repro.obs.config import enabled as _obs_enabled
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as _span
from repro.units import bytes_per_sec_to_kbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import PredictionService

__all__ = [
    "ProviderReport",
    "perf_entry",
    "GridFTPInfoProvider",
    "IncrementalGridFTPInfoProvider",
    "ServicePerfProvider",
]

# Process-wide MDS instrumentation (see docs/observability.md).
_M_RENDERS = get_registry().counter(
    "mds_ldif_renders", "GridFTPPerf LDIF entries rendered by providers")
_H_RENDER = get_registry().histogram(
    "mds_render_seconds", "provider entry-render latency")


def _kb(rate_bytes_per_sec: float) -> str:
    """Figure 6's bandwidth rendering: integer KB/s with K suffix."""
    return f"{int(round(bytes_per_sec_to_kbps(rate_bytes_per_sec)))}K"


def perf_entry(
    site: Site,
    url: str,
    now: float,
    n_transfers: int,
    reads: BandwidthSummary,
    writes: BandwidthSummary,
    class_means: Mapping[str, float],
    predictions: Mapping[str, float],
    recent: Iterable[float],
) -> Entry:
    """The ``GridFTPPerf`` entry of Figure 6, from computed summaries.

    Attributes appear in the order given: the per-direction block, every
    ``avgrdbandwidth<class>range`` in ``class_means`` order (providers
    pass labels string-sorted), every ``predictedrdbandwidth<class>range``
    in ``predictions`` order (size-class order), then the ``recent`` read
    bandwidths, oldest first.
    """
    if _obs_enabled():
        _M_RENDERS.inc()
    dcs = ",".join(f"dc={part}" for part in site.domain.split("."))
    entry = Entry(f"cn={site.address},hostname={site.hostname},{dcs},o=grid")
    entry.add("objectclass", "GridFTPPerf")
    entry.add("cn", site.address)
    entry.add("hostname", site.hostname)
    entry.add("gridftpurl", url)
    entry.add("numtransfers", n_transfers)
    entry.add("lastupdate", repr(now))
    for prefix, summary in (("rd", reads), ("wr", writes)):
        if summary.count:
            entry.add(f"min{prefix}bandwidth", _kb(summary.minimum))
            entry.add(f"max{prefix}bandwidth", _kb(summary.maximum))
            entry.add(f"avg{prefix}bandwidth", _kb(summary.mean))
            entry.add(f"med{prefix}bandwidth", _kb(summary.median))
    for label, mean in class_means.items():
        entry.add(f"avgrdbandwidth{label.lower()}range", _kb(mean))
    for label, predicted in predictions.items():
        entry.add(f"predictedrdbandwidth{label.lower()}range", _kb(predicted))
    for bandwidth in recent:
        entry.add("recentrdbandwidth", _kb(float(bandwidth)))
    return entry


def _column_summaries(reads, write_values, classify):
    """``(read summary, write summary, class read means)`` of a link's
    columns; ``reads`` carries parallel ``sizes`` / ``bandwidths``."""
    per_class = summarize_frame_by_class(reads, classify)
    return (
        summarize_values(reads.bandwidths),
        summarize_values(write_values),
        {label: summary.mean for label, summary in per_class.items()},
    )


def _tail(values, recent: int):
    """The last ``recent`` read bandwidths of a column (none for 0)."""
    return values[-recent:] if recent else values[:0]


def _representative_size(classification: Classification, label: str) -> int:
    """The size a class's prediction is asked for: the midpoint of a
    finite class, 1.25x the lower bound of the unbounded top class."""
    lo, hi = classification.bounds(label)
    return int((lo + hi) / 2) if hi != float("inf") else int(lo * 1.25)


@dataclass(frozen=True)
class ProviderReport:
    """Timing breakdown of one provider run (wall-clock seconds)."""

    n_records: int
    filter_seconds: float
    classify_seconds: float
    predict_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.filter_seconds + self.classify_seconds + self.predict_seconds


class GridFTPInfoProvider:
    """Publishes one ``GridFTPPerf`` entry for one GridFTP server.

    Parameters
    ----------
    log:
        The server's transfer log — a live :class:`TransferLog` or an
        already-columnar :class:`~repro.data.frame.TransferFrame` (the
        bulk-ingest path hands frames straight through without ever
        materializing record objects).
    site:
        The server's site (drives the DN and hostname attributes).
    url:
        The advertised gsiftp URL.
    classification:
        Size classes for the per-class attributes.
    predictor:
        Predictor used for the ``predictedrdbandwidth<class>range``
        attributes; the default total average matches what a stock
        deployment would publish.
    recent:
        Number of recent read bandwidths published as the multi-valued
        ``recentrdbandwidth`` attribute.
    """

    def __init__(
        self,
        log: Union[TransferLog, TransferFrame],
        site: Site,
        url: str,
        classification: Optional[Classification] = None,
        predictor: Optional[Predictor] = None,
        recent: int = 10,
    ):
        if recent < 0:
            raise ValueError(f"recent must be >= 0, got {recent}")
        self.log = log
        self.site = site
        self.url = url
        self.classification = classification or paper_classification()
        self.predictor = predictor or TotalAverage()
        self.recent = recent

    # ------------------------------------------------------------------
    # entry generation
    # ------------------------------------------------------------------
    def entries(self, now: float) -> List[Entry]:
        entry, _ = self.report(now)
        return [entry] if entry is not None else []

    def _frame(self) -> TransferFrame:
        """The log as a columnar frame (a frame passes straight through)."""
        if isinstance(self.log, TransferFrame):
            return self.log
        return self.log.to_frame()

    def report(self, now: float) -> Tuple[Optional[Entry], ProviderReport]:
        """Build the entry and measure each pipeline stage.

        The whole pipeline runs on column slices — filtering by direction,
        summarizing, classifying, and predicting never materialize record
        objects — yet publishes attribute-for-attribute what the original
        record-list pipeline did (asserted by the columnar parity tests).
        """
        t0 = time.perf_counter()
        with _span("mds.render", provider=type(self).__name__,
                   host=self.site.hostname):
            entry, report = self._report(now, t0)
        if _obs_enabled():
            _H_RENDER.observe(time.perf_counter() - t0)
        return entry, report

    def _report(self, now: float, t0: float) -> Tuple[Optional[Entry], ProviderReport]:
        frame = self._frame()
        reads = frame.reads()
        writes = frame.writes()
        t1 = time.perf_counter()

        summaries = _column_summaries(
            reads, writes.bandwidths, self.classification.classify)
        t2 = time.perf_counter()

        predictions = self._per_class_predictions(reads, now)
        t3 = time.perf_counter()

        report = ProviderReport(
            n_records=len(frame),
            filter_seconds=t1 - t0,
            classify_seconds=t2 - t1,
            predict_seconds=t3 - t2,
        )
        if not len(frame):
            return None, report
        entry = perf_entry(
            self.site, self.url, now, len(frame), *summaries,
            predictions, _tail(reads.bandwidths, self.recent),
        )
        return entry, report

    def _per_class_predictions(
        self, reads: TransferFrame, now: float
    ) -> Dict[str, float]:
        """Predicted bandwidth per size class, from class-filtered history."""
        if not len(reads):
            return {}
        history = reads.history()
        out: Dict[str, float] = {}
        for label in self.classification.labels:
            class_history = history.of_class(self.classification, label)
            if len(class_history) == 0:
                continue
            predicted = self.predictor.predict(
                class_history,
                target_size=_representative_size(self.classification, label),
                now=now,
            )
            if predicted is not None:
                out[label] = predicted
        return out


class IncrementalGridFTPInfoProvider:
    """Constant-work-per-transfer variant of the provider.

    The batch provider rescans the log on every (cache-miss) inquiry —
    the cost the paper measured at 1-2 s for 700 entries.  This variant
    subscribes to the transfer log and folds each record into running
    summaries as it is appended, so an inquiry only renders the entry:
    O(attributes), independent of log size.

    The published attributes match the batch provider configured with the
    total-average predictor exactly (a parity test asserts it): the
    per-class prediction of ``TotalAverage`` over class history *is* the
    class's running mean, which the summaries already carry.

    Records appended before construction are folded at construction, so
    attaching to a live log mid-campaign is safe.  Call :meth:`close` to
    detach.
    """

    def __init__(
        self,
        log: TransferLog,
        site: Site,
        url: str,
        classification: Optional[Classification] = None,
        recent: int = 10,
    ):
        if recent < 0:
            raise ValueError(f"recent must be >= 0, got {recent}")
        self.log = log
        self.site = site
        self.url = url
        self.classification = classification or paper_classification()
        self.recent = recent

        self._n_records = 0
        self._reads = RunningSummary()
        self._writes = RunningSummary()
        self._per_class: Dict[str, RunningSummary] = {}
        self._recent_reads: Deque[float] = collections.deque(maxlen=recent)

        for record in log.records():
            self._ingest(record)
        log.subscribe(self._ingest)
        self._attached = True

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _ingest(self, record: TransferRecord) -> None:
        self._n_records += 1
        if record.operation is Operation.READ:
            self._reads.add(record.bandwidth)
            label = self.classification.classify(record.file_size)
            self._per_class.setdefault(label, RunningSummary()).add(record.bandwidth)
            self._recent_reads.append(record.bandwidth)
        else:
            self._writes.add(record.bandwidth)

    def close(self) -> None:
        """Detach from the log (idempotent)."""
        if self._attached:
            self.log.unsubscribe(self._ingest)
            self._attached = False

    # ------------------------------------------------------------------
    # inquiry
    # ------------------------------------------------------------------
    def entries(self, now: float) -> List[Entry]:
        if self._n_records == 0:
            return []
        means = {label: self._per_class[label].summary().mean
                 for label in sorted(self._per_class)}
        # TotalAverage over class history == the class running mean.
        predictions = {label: means[label]
                       for label in self.classification.labels if label in means}
        return [perf_entry(
            self.site, self.url, now, self._n_records,
            self._reads.summary(), self._writes.summary(),
            means, predictions, self._recent_reads,
        )]


class ServicePerfProvider:
    """The provider over a warm prediction service's link (Section 5).

    Instead of re-reading the transfer log on every GRIS cache miss, this
    provider summarizes the columns the service already holds for the
    link — one O(n) pass per render, which a :class:`~repro.mds.gris.GRIS`
    caches for its ``cache_ttl`` — and takes its
    ``predictedrdbandwidth<class>range`` values from ``service.predict``,
    so MDS answers flow through the same versioned cache as broker
    queries.  Rendering a link the durable store has evicted hydrates
    its columns.

    Parameters
    ----------
    service:
        The warm :class:`~repro.service.service.PredictionService`
        holding the link's state (anything with its ``link_state`` /
        ``classification`` / ``predict``).
    link:
        The service link name this provider reports on.
    site, url:
        Identity of the GridFTP server (DN, hostname, gsiftp URL).
    spec:
        Predictor spec for the per-class prediction attributes.  The
        default ``"C-AVG"`` (classified total average) publishes the same
        numbers as a stock deployment's class means.
    recent:
        Number of recent read bandwidths in ``recentrdbandwidth``.
    """

    def __init__(
        self,
        service: PredictionService,
        link: str,
        site: Site,
        url: str,
        spec: str = "C-AVG",
        recent: int = 10,
    ):
        if recent < 0:
            raise ValueError(f"recent must be >= 0, got {recent}")
        self.service = service
        self.link = link
        self.site = site
        self.url = url
        self.spec = spec
        self.recent = recent

    def entries(self, now: float) -> List[Entry]:
        state = self.service.link_state(self.link)
        if state is None:
            return []
        _times, values, sizes, ops, _version = state.snapshot()
        if len(values) == 0:
            return []
        with _span("mds.render", provider=type(self).__name__, link=self.link):
            is_read = ops == OP_READ
            reads = SimpleNamespace(sizes=sizes[is_read], bandwidths=values[is_read])
            classification = self.service.classification
            read_summary, write_summary, class_means = _column_summaries(
                reads, values[ops == OP_WRITE], classification.classify)
            predictions = {}
            for label in classification.labels:
                if label in class_means:
                    predicted = self.service.predict(
                        self.link, _representative_size(classification, label),
                        spec=self.spec, now=now,
                    ).value
                    if predicted is not None:
                        predictions[label] = predicted
            return [perf_entry(
                self.site, self.url, now, len(values),
                read_summary, write_summary, class_means,
                predictions, _tail(reads.bandwidths, self.recent),
            )]
