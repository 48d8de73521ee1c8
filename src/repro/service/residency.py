"""Which links' state is in RAM: the residency of a prediction service.

A :class:`~repro.service.PredictionService` answers from warm per-link
:class:`~repro.service.state.LinkState`.  :class:`Residency` is where
those states live.  Without a store it is a map that only grows.  With a
:class:`~repro.store.LinkStore` it is a cache over the store: a link the
store holds but RAM does not is revived on first touch (its checkpoint
loaded over its durable rows, or a rebuild from them), and past
``max_resident`` the least recently touched links spill the way a
shutdown does — checkpoint, then seal — and leave RAM.

**The LRU is the map's own order.**  The resident map is an
``OrderedDict``: a touch is one lock-free ``move_to_end`` (a single
GIL-atomic C call), a new or revived link lands at the end, and victims
come off the front (``popitem``).  With no ceiling nothing is ever
evicted, so nothing is touched.

**A refused victim is skipped.**  Eviction refuses a link whose store
holds fewer rows than RAM does — a refused write-through left rows only
in memory, and evicting would silently stop serving them.  The refused
link stays resident and findable (back at the recent end of the map),
the refusal is counted in ``service_eviction_refusals``, and the next
least recently touched link goes instead, so the resident count stays at
or below ``max_resident`` plus the number of such links.

The API is small: :meth:`Residency.get`, :meth:`~Residency.resident`,
:meth:`~Residency.names`, :meth:`~Residency.checkpoint_all` and
:meth:`~Residency.status` (the ``store`` section of the service's
status).  Its instruments — ``service_links``, evictions, refusals,
revivals, revival latency, ``store_checkpoints_stale`` and
``streaming_rebuilds`` — register in the owning service's registry.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import suppress
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.streaming import StreamingBank
from repro.service.state import LinkState, row_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.classification import Classification
    from repro.obs.events import EventBus
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.quality import AccuracyTracker
    from repro.store import LinkStore

__all__ = ["Residency"]

#: What revival reads for a link whose store holds no checkpoint.
_NO_CHECKPOINT = {"meta": {"n": 0, "version": 0}}


class Residency:
    """The resident links of one service, over an optional store.

    ``metrics`` and ``trace`` are the owning service's; ``quality`` is
    its accuracy tracker (or None), whose per-link state rides in each
    checkpoint.  ``max_resident`` without a store bounds nothing.
    """

    def __init__(
        self,
        classification: "Classification",
        metrics: "MetricsRegistry",
        trace: "EventBus",
        store: Optional["LinkStore"] = None,
        max_resident: Optional[int] = None,
        quality: Optional["AccuracyTracker"] = None,
    ):
        self.classification = classification
        self.trace = trace
        self.store = store
        self.max_resident = max_resident
        self.quality = quality
        # The classification identity a checkpointed bank is keyed by;
        # revival rejects checkpoints written against a different one.
        # Only a store reads or writes checkpoints, and only then is the
        # store's code loaded.
        self._fingerprint = None
        if store is not None:
            from repro.store.checkpoint import fingerprint

            self._fingerprint = fingerprint("{}|{}".format(
                ",".join(str(e) for e in classification.edges),
                ",".join(classification.labels),
            ))
        self._bounded = store is not None and max_resident is not None
        self._links: "OrderedDict[str, LinkState]" = OrderedDict()
        self._lock = threading.Lock()

        m = metrics
        self._m_links = m.gauge("service_links", "links with state")
        self._m_evictions = m.counter(
            "service_link_evictions",
            "resident links checkpointed and dropped from RAM")
        self._m_refusals = m.counter(
            "service_eviction_refusals",
            "eviction victims kept resident because the store holds fewer "
            "of their rows than RAM")
        self._m_revivals = m.counter(
            "service_link_revivals",
            "cold links revived from the durable store")
        self._m_revival_latency = m.histogram(
            "service_revival_seconds", "cold-link revival wall-clock latency")
        self._m_stale = m.counter(
            "store_checkpoints_stale",
            "revivals that rebuilt past a checkpoint they could not use "
            "(reason=format|rows|digest)")
        self.rebuilds = m.counter(
            "streaming_rebuilds",
            "streaming banks rebuilt from history arrays")

    # ------------------------------------------------------------------
    # the way in
    # ------------------------------------------------------------------
    def get(self, link: str, create: bool = False) -> Optional[LinkState]:
        """The link's state — resident, revived from the store, or (with
        ``create``) new and empty — or None.

        The resident read is lock-free: a dict read is GIL-atomic.  A
        state evicted under a racing caller stays valid: write-through
        keeps its appends durable, so a later revival recovers them, and
        revival preserves the version counter, so nothing a racing
        reader computed or cached goes wrong.
        """
        links = self._links
        state = links.get(link)
        if state is not None:
            if self._bounded:
                try:
                    links.move_to_end(link)
                except KeyError:  # evicted since the read
                    pass
            return state
        if not create and (self.store is None or not self.store.has(link)):
            return None
        with self._lock:
            state = links.get(link)
            if state is not None:
                return state
            if self.store is not None and self.store.has(link):
                state = self._revive_locked(link)
            if state is None:
                if not create:
                    return None
                state = LinkState(link, bank=self._new_bank(),
                                  persist=self._persist_for(link))
            links[link] = state  # the end of the map: the newest touch
            self._m_links.set(len(links))
            if self._bounded:
                self._evict_overflow_locked(keep=state)
            return state

    def resident(self) -> Dict[str, LinkState]:
        """The resident links, least recently touched first."""
        with self._lock:
            return dict(self._links)

    def names(self) -> List[str]:
        """Every link the service can answer for — resident or spilled."""
        with self._lock:
            names = set(self._links)
        if self.store is not None:
            names.update(self.store.link_names())
        return sorted(names)

    def _new_bank(self) -> StreamingBank:
        return StreamingBank(self.classification, on_rebuild=self._on_bank_rebuild)

    def _on_bank_rebuild(self, reason: str) -> None:
        self.rebuilds.inc()
        self.rebuilds.labels(reason=reason).inc()

    def _persist_for(self, link: str):
        if self.store is None:
            return None
        return partial(self.store.append_rows, link)

    # ------------------------------------------------------------------
    # revival
    # ------------------------------------------------------------------
    def _revive_locked(self, link: str) -> Optional[LinkState]:
        """Bring a cold link back from the durable store: its rows, then
        its checkpoint, one read each.

        One stable argsort of the rows (arrival order) is the order the
        resident buffer held them in.  The checkpoint names rows ``[0,
        n)``; when it was written against this classification and they
        are still there (``n`` no more than the durable rows) and hash
        to its ``row_digest``, the bank takes the sorted rows and loads
        the checkpoint over the first ``n``, and the rows past ``n`` fold
        in as the live path would have — if the argsort leaves them
        behind the others, in arrival order.  Otherwise the bank is
        rebuilt from the same arrays: a checkpoint that cannot be used is
        *stale* (``format``, ``rows`` or ``digest``, counted), never
        quarantined.  Either way the bank holds the sorted rows, copied
        once (:meth:`LinkState.revived` wraps it): a revived link holds
        what an always-resident one holds and never reads the store
        again.  A quarantine that took rows under the checkpoint
        therefore costs one rebuild: the next eviction checkpoints the
        survivors, and the revival after it loads.  Returns None when the
        store holds neither rows nor a checkpoint.
        """
        t0 = time.perf_counter()
        times, values, sizes, ops = self.store.load_columns(link)
        durable = len(times)
        ckpt, reason = self._checkpoint_for(link, durable)
        if durable == 0 and reason == "absent":
            return None
        meta = ckpt["meta"]
        n = meta["n"] if reason is None else 0
        digest = row_digest(times[:n], values[:n], sizes[:n])
        if reason is None and digest.digest() != meta["row_digest"]:
            reason = "digest"
        row_digest(times[n:], values[n:], sizes[n:], into=digest)
        order = np.argsort(times, kind="stable")
        columns = tuple(column[order] for column in (times, values, sizes, ops))
        if reason is None and (order[n:] != np.arange(n, durable)).any():
            reason = "out_of_order"  # a late row: the live path rebuilt too
        if reason is None:
            bank = self._new_bank()
            try:
                bank.load_state(ckpt["bank"], columns, n)
            except Exception:
                reason = "rows"
        if reason is None:
            version = meta["version"] + durable - n
        else:
            bank = self._new_bank()
            bank.rebuild(*columns, reason="revive")
            # Rows lost or changed under the checkpoint: the counter moves
            # on, so no cache entry of the old rows answers for the new.
            version = (max(durable, meta["version"] + 1)
                       if reason in ("rows", "digest") else durable)
        state = LinkState.revived(link, bank, version,
                                  self._persist_for(link), digest)
        if reason is None:
            # The checkpoint covers the pre-delta version; with no delta
            # the state is clean and eviction skips re-serializing it.
            state.ckpt_version = meta["version"]
        self._m_revivals.inc()
        self._m_revival_latency.observe(time.perf_counter() - t0)
        how = "checkpoint" if reason is None else "rebuild"
        self._m_revivals.labels(how=how).inc()
        if reason in ("format", "rows", "digest"):
            self._m_stale.inc()
            self._m_stale.labels(reason=reason).inc()
        self.trace.emit("revive", link=link, how=how, reason=reason,
                        version=state.version, records=len(state))
        return state

    def _checkpoint_for(self, link: str, durable: int) -> Tuple[dict, Optional[str]]:
        """The link's checkpoint, and why its bank cannot be loaded as it
        stands (None when it might: its rows' digest is checked next).
        Its accuracy part loads whenever it was written against this
        classification, whatever becomes of the bank part."""
        from repro.store.checkpoint import StaleCheckpoint

        try:
            ckpt = self.store.read_checkpoint(link)
        except StaleCheckpoint:  # another build's file: the rows decide
            return _NO_CHECKPOINT, "format"
        if ckpt is None:
            return _NO_CHECKPOINT, "absent"
        meta = ckpt["meta"]
        if meta["classification"] != self._fingerprint:
            return ckpt, "format"
        if self.quality is not None and "accuracy" in ckpt:
            # A no-op when the link has scored state in RAM (an
            # evict→revive cycle must not double-count).
            with suppress(Exception):
                self.quality.load_link_state(link, ckpt["accuracy"])
        if not 0 <= meta["n"] <= min(durable, meta["version"]):
            return ckpt, "rows"  # e.g. a quarantine took rows under it
        return ckpt, None

    # ------------------------------------------------------------------
    # eviction and checkpoints
    # ------------------------------------------------------------------
    def _evict_overflow_locked(self, keep: LinkState) -> None:
        """Spill least recently touched links until the ceiling holds.

        Each victim comes off the front of the map in one ``popitem`` (a
        single C call, so a lock-free touch cannot interleave with it).
        ``keep`` (the link being admitted) and every victim the store
        refuses go back in at the end, resident and findable.
        """
        links = self._links
        held = []
        while links and len(links) + len(held) > self.max_resident:
            _, victim = links.popitem(last=False)
            if victim is keep:
                held.append(victim)
            elif not self._evict_locked(victim):
                held.append(victim)
                self._m_refusals.inc()
        for state in held:
            links[state.link] = state
        self._m_links.set(len(links))

    def _checkpoint_payload(self, state: LinkState) -> dict:
        """The link checkpoint, with accuracy sufficient statistics
        riding alongside the bank — ``status()`` accuracy survives an
        evict→revive cycle and a warm restart.  Pending (unscored)
        predictions are deliberately not persisted."""
        payload = state.checkpoint_state(self._fingerprint)
        if self.quality is not None:
            accuracy = self.quality.link_state(state.link)
            if accuracy is not None:
                payload["accuracy"] = accuracy
        return payload

    def _checkpoint_locked(self, state: LinkState) -> bool:
        """Make the link's checkpoint on disk current (caller holds
        ``state.lock``).  A link revived from its checkpoint and never
        appended to is still covered by it — the read-mostly churn case
        — and is not serialized again."""
        if state.version != state.ckpt_version and self.store.write_checkpoint(
                state.link, self._checkpoint_payload(state)):
            state.ckpt_version = state.version
        return state.version == state.ckpt_version

    def _evict_locked(self, state: LinkState) -> bool:
        """Spill one link, already off the map, to the store: checkpoint,
        then seal the tail when the rewrite pays for itself
        (:meth:`LinkStore.seal`, ``amortized``).  Refuses (returns
        False) when the store holds fewer rows than RAM does."""
        with state.lock:
            n = len(state)
            if self.store.durable_rows(state.link) < n:
                return False
            self._checkpoint_locked(state)
            self.store.seal(state.link, amortized=True)
        self._m_evictions.inc()
        self.trace.emit("evict", link=state.link, records=n,
                        version=state.version)
        return True

    def checkpoint_all(self, seal: bool = False) -> int:
        """Checkpoint every resident link to the store (warm-restart spill).

        With ``seal=True`` each link's tail is also folded into its
        open segment, whatever its size, so the next process reads
        columns instead of scanning WAL records.  Links whose on-disk
        checkpoint is already current are counted but not re-serialized.
        Returns how many links have a current checkpoint.  No-op (0)
        without a store.
        """
        if self.store is None:
            return 0
        written = 0
        for state in self.resident().values():
            with state.lock:
                if state.version == 0:  # never held a row
                    continue
                written += self._checkpoint_locked(state)
            if seal:
                self.store.seal(state.link)
        self.trace.emit("checkpoint_all", links=written, seal=seal)
        return written

    def status(self) -> Optional[Dict[str, object]]:
        """The ``store`` section of the service's status (None without
        a store)."""
        store = self.store
        if store is None:
            return None
        resident = self.resident()
        return {
            "root": str(store.root),
            "resident_links": len(resident),
            "evicted_links": len(set(store.link_names()).difference(resident)),
            "stored_links": store.link_count(),
            "bytes_on_disk": store.bytes_on_disk(),
            "evictions": self._m_evictions.value,
            "revivals": self._m_revivals.value,
            "max_resident": self.max_resident,
            "group_commits": store.group_commits,
            "fsyncs": store.tail_fsyncs,
        }
