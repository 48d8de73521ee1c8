"""The replica-selection broker (the use case motivating the paper).

Given a logical file replicated at several sites, the broker asks a
predictor for the expected transfer bandwidth from each candidate to the
requesting client — using that candidate's own transfer log, filtered to
transfers involving that client — and ranks the candidates.  This is the
"intelligent replica selection" of Section 1 / reference [41].

Candidates with no usable history are ranked last (unknown is worse than
any estimate, for ranking purposes) but are reported with
``predicted_bandwidth=None`` so a caller can choose to explore them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.core.history import History
from repro.core.predictors.base import Predictor
from repro.logs.filters import by_operation, by_source_ip, chain
from repro.logs.logfile import TransferLog
from repro.logs.record import Operation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.filesystem import ReplicaCatalog

__all__ = ["RankedReplica", "ReplicaBroker"]


@dataclass(frozen=True)
class RankedReplica:
    """One candidate source with its predicted performance."""

    site: str
    predicted_bandwidth: Optional[float]  # bytes/s; None = no history
    history_length: int
    #: The bandwidth is a link-agnostic guess, not this link's history
    #: (a service's ``degraded_fallback``); it ranks after measured ones.
    degraded: bool = False

    def estimated_time(self, size: int) -> Optional[float]:
        """Predicted transfer duration for ``size`` bytes, if predictable."""
        if self.predicted_bandwidth is None or self.predicted_bandwidth <= 0:
            return None
        return size / self.predicted_bandwidth


class ReplicaBroker:
    """Ranks replica sites by predicted transfer bandwidth to a client.

    Parameters
    ----------
    catalog:
        Logical name -> replica locations.
    logs:
        Site name -> that site's GridFTP server transfer log.
    predictor:
        Any :class:`~repro.core.predictors.base.Predictor`; classified
        predictors work since the broker passes the file's size.
    """

    def __init__(
        self,
        catalog: ReplicaCatalog,
        logs: Mapping[str, TransferLog],
        predictor: Predictor,
    ):
        self.catalog = catalog
        self.logs: Dict[str, TransferLog] = dict(logs)
        self.predictor = predictor

    def _history_for(self, site: str, client_address: str) -> History:
        """Past server-read transfers from ``site`` to this client."""
        log = self.logs.get(site)
        if log is None:
            return History.empty()
        relevant = chain(
            by_operation(Operation.READ), by_source_ip(client_address)
        )(log.records())
        return History.from_records(relevant)

    def rank(
        self,
        logical_name: str,
        client_address: str,
        now: float,
    ) -> List[RankedReplica]:
        """All candidate replicas, best predicted bandwidth first.

        Raises ``KeyError`` if the file has no registered replicas.
        """
        size = self.catalog.size_of(logical_name)
        ranked: List[RankedReplica] = []
        for site in self.catalog.locations(logical_name):
            history = self._history_for(site, client_address)
            predicted = (
                self.predictor.predict(history, target_size=size, now=now)
                if len(history) > 0
                else None
            )
            ranked.append(
                RankedReplica(
                    site=site,
                    predicted_bandwidth=predicted,
                    history_length=len(history),
                )
            )
        ranked.sort(
            key=lambda r: (
                r.predicted_bandwidth is None,           # unknowns last
                -(r.predicted_bandwidth or 0.0),          # fastest first
                r.site,                                   # stable tie-break
            )
        )
        return ranked

    def select(
        self, logical_name: str, client_address: str, now: float
    ) -> RankedReplica:
        """The best candidate (first of :meth:`rank`)."""
        return self.rank(logical_name, client_address, now)[0]
