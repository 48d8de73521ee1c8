"""Chaos suite for the durable store tier.

Storage faults must cost durability *work* — a failed seal leaves rows
in the WAL tail, a corrupt checkpoint forces a column rebuild, an
unwritable checkpoint downgrades eviction to rebuild-on-revive — but
they must never change an answer.  Every test here replays the shipped
campaign logs through a store-backed service under injected faults and
demands bit-identical predictions against a fault-free, always-resident
baseline.

The one deliberate exception: a corrupt *sealed segment* genuinely
loses rows.  There the contract is containment — the bad file is
quarantined, the link is flagged degraded, and the service keeps
serving exactly the rows that survived, with no exception and no
garbage values.  A read the system refuses (no file descriptor left) is
no proof of damage: the request answers an in-band error, every file
stays, and the next touch serves every acked row.
"""

from __future__ import annotations

import errno
import struct
from pathlib import Path

import pytest

from repro import faults
from repro.faults import FaultInjector
from repro.service import PredictionService
from repro.store import LinkStore
from repro.units import MB
from tests.unit.test_store import as_format_2

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
LOGS = ["aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm"]
SPECS = ["C-AVG15", "AVG5", "C-MED15", "MED", "LV",
         "AVG", "C-AVG", "AR", "C-AR"]
SIZES = [10 * MB, 100 * MB, 1000 * MB]
NOW = 10_000_000.0


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    faults.uninstall()


def _ingest_logs(service):
    for name in LOGS:
        service.ingest_ulm(DATA_DIR / name)


def _answers(service):
    out = []
    for link in sorted(service.links()):
        for spec in SPECS:
            for size in SIZES:
                p = service.predict(link, size, spec, now=NOW)
                out.append((link, spec, size, p.value, p.version,
                            p.history_length))
    return out


@pytest.fixture(scope="module")
def baseline():
    """Fault-free, always resident, one ``observe`` per record."""
    from repro.data import load_ulm

    service = PredictionService()
    for name in LOGS:
        service.ingest_records(
            Path(name).stem, load_ulm(DATA_DIR / name).to_records())
    return _answers(service)


def _quarantined(state_dir):
    return list(Path(state_dir).rglob("*.quarantined"))


class TestSegmentSealFaults:
    def test_failed_seals_leave_rows_in_tail_answers_unchanged(
            self, tmp_path, baseline):
        injector = FaultInjector(seed=7)
        injector.inject("store.segment", error=OSError, op="write", times=4)

        store = LinkStore(tmp_path / "state", segment_rows=64)
        with faults.injected(injector):
            service = PredictionService(store=store, max_resident=1)
            _ingest_logs(service)
            chaotic = _answers(service)

        assert injector.fired.get("store.segment", 0) >= 1
        assert chaotic == baseline
        # Nothing was lost: every folded row is durable (tail or segment)
        # and revival under eviction pressure served all of them.
        for link in service.links():
            assert store.durable_rows(link) == len(service.history(link))
        assert not _quarantined(tmp_path / "state")


class TestCheckpointFaults:
    def test_corrupt_checkpoint_quarantined_rebuild_is_identical(
            self, tmp_path, baseline):
        store = LinkStore(tmp_path / "state")
        first = PredictionService(store=store)
        _ingest_logs(first)
        assert first.checkpoint_all(seal=True) == len(LOGS)
        store.close()

        injector = FaultInjector(seed=11)
        injector.inject("store.checkpoint", corrupt=8, times=len(LOGS))

        reopened = LinkStore(tmp_path / "state")
        with faults.injected(injector):
            second = PredictionService(store=reopened)
            chaotic = _answers(second)

        assert injector.fired.get("store.checkpoint", 0) == len(LOGS)
        assert chaotic == baseline
        # Both checkpoints were detected, quarantined, and replaced by a
        # full column rebuild — never trusted.
        quarantined = _quarantined(tmp_path / "state")
        assert len(quarantined) == len(LOGS)
        assert all("checkpoint" in q.name for q in quarantined)

    def test_truncated_checkpoint_quarantined_rebuild_is_identical(
            self, tmp_path, baseline):
        store = LinkStore(tmp_path / "state")
        first = PredictionService(store=store)
        _ingest_logs(first)
        first.checkpoint_all(seal=True)
        store.close()

        injector = FaultInjector(seed=13)
        injector.inject("store.checkpoint", truncate=0.5, times=len(LOGS))

        with faults.injected(injector):
            second = PredictionService(store=LinkStore(tmp_path / "state"))
            chaotic = _answers(second)

        assert injector.fired.get("store.checkpoint", 0) == len(LOGS)
        assert chaotic == baseline
        assert len(_quarantined(tmp_path / "state")) == len(LOGS)

    def test_stale_format_checkpoint_rebuilds_without_quarantine(
            self, tmp_path, baseline):
        """Stale is not corrupt: a checkpoint of an older format costs a
        counted rebuild, and the next checkpoint overwrites it."""
        from repro.obs import get_registry
        from repro.store import checkpoint as ck

        store = LinkStore(tmp_path / "state")
        first = PredictionService(store=store)
        _ingest_logs(first)
        first.checkpoint_all(seal=True)
        store.close()
        paths = sorted((tmp_path / "state").rglob("checkpoint.bin"))
        assert len(paths) == len(LOGS)
        for path in paths:
            path.write_bytes(as_format_2(path.read_bytes()))
            with pytest.raises(ck.StaleCheckpoint):
                ck.loads(path.read_bytes())

        counter = get_registry().counter("store_quarantined", "")
        before = counter.value
        second = PredictionService(store=LinkStore(tmp_path / "state"))
        assert _answers(second) == baseline
        assert second.status()["store"]["revivals"] == len(LOGS)
        stale = second.metrics.snapshot()["store_checkpoints_stale"]
        assert stale["value"] == len(LOGS)  # each a rebuild, reason=format
        assert _quarantined(tmp_path / "state") == []
        assert counter.value == before
        # The rebuilt links are dirty against the stale file: the next
        # checkpoint replaces it with the current format.
        assert second.checkpoint_all() == len(LOGS)
        for path in paths:
            assert path.read_bytes()[4:6] == struct.pack("<H", 8)
            assert "bank" in ck.loads(path.read_bytes())

    def test_a_stale_revival_counts_in_the_total_and_one_reason(self, tmp_path):
        """Telemetry has one mode: each revival counter's total is the sum
        of its labeled children, a ``reason=format`` revival included."""
        from tests.conftest import make_record

        store = LinkStore(tmp_path / "state")
        first = PredictionService(store=store)
        first.ingest_records("LINK", [
            make_record(start=1000.0 + 100 * i, size=(50 + 7 * i) * MB)
            for i in range(30)])
        first.checkpoint_all(seal=True)
        store.close()
        (path,) = (tmp_path / "state").rglob("checkpoint.bin")
        path.write_bytes(as_format_2(path.read_bytes()))

        second = PredictionService(store=LinkStore(tmp_path / "state"))
        assert second.predict("LINK", 100 * MB, "AVG", now=NOW).value is not None
        snapshot = second.metrics.snapshot()
        children = {}
        for name, label in (("store_checkpoints_stale", "reason"),
                            ("service_link_revivals", "how"),
                            ("streaming_rebuilds", "reason")):
            family = snapshot[name]
            children[name] = {series["labels"][label]: series["value"]
                              for series in family["series"]}
            assert family["value"] == sum(children[name].values()), name
        assert children["store_checkpoints_stale"] == {"format": 1.0}
        assert children["service_link_revivals"] == {"rebuild": 1.0}
        assert children["streaming_rebuilds"] == {"revive": 1.0}

    def test_unwritable_checkpoints_degrade_eviction_not_answers(
            self, tmp_path, baseline):
        injector = FaultInjector(seed=17)
        injector.inject(
            "store.checkpoint", error=OSError, op="write", times=None)

        store = LinkStore(tmp_path / "state", segment_rows=128)
        with faults.injected(injector):
            service = PredictionService(store=store, max_resident=1)
            _ingest_logs(service)
            chaotic = _answers(service)

        # Evictions happened without a checkpoint; every revival fell
        # back to a rebuild from durable columns.
        assert injector.fired.get("store.checkpoint", 0) >= 1
        assert service.status()["store"]["evictions"] >= 1
        assert service.status()["store"]["revivals"] >= 1
        assert chaotic == baseline


class TestSegmentCorruption:
    def test_corrupt_segment_is_contained(self, tmp_path):
        self._damaged_segment_is_contained(tmp_path, corrupt=8)

    def test_truncated_segment_is_contained(self, tmp_path):
        self._damaged_segment_is_contained(tmp_path, truncate=0.5)

    def test_a_quarantined_segment_keeps_the_links_accuracy(self, tmp_path):
        """A warm restart after a segment went bad: the link rebuilds from
        the rows that survive, and its scored accuracy still comes back
        from the checkpoint whose bank part could not be used."""
        from repro.data.ingest import load_ulm

        link = "lbl-anl"
        store = LinkStore(tmp_path / "state", segment_rows=64)
        first = PredictionService(store=store)
        records = load_ulm(DATA_DIR / LOGS[0]).to_records()
        for record in records:
            first.predict(link, record.file_size, now=record.end_time)
            first.observe(link, record)
        accuracy = first.status()["accuracy"]["links"][link]
        assert accuracy["overall"]["count"] > 400
        assert first.checkpoint_all(seal=True) == 1
        store.close()
        segment = sorted((tmp_path / "state").rglob("seg-*.col"))[0]
        raw = bytearray(segment.read_bytes())
        raw[len(raw) // 2] ^= 0x5A
        segment.write_bytes(bytes(raw))

        second = PredictionService(store=LinkStore(
            tmp_path / "state", segment_rows=64))
        assert 0 < len(second.history(link)) < len(records)
        (event,) = second.trace.events(kind="revive")
        assert (event.fields["how"], event.fields["reason"]) == ("rebuild", "rows")
        assert second.status()["accuracy"]["links"][link] == accuracy
        assert [q.name for q in _quarantined(tmp_path / "state")] == [
            segment.name + ".quarantined"]

    def _damaged_segment_is_contained(self, tmp_path, **damage):
        from repro.data.ingest import load_ulm

        link = "lbl-anl"
        store = LinkStore(tmp_path / "state", segment_rows=64)
        first = PredictionService(store=store)
        records = load_ulm(DATA_DIR / LOGS[0]).to_records()
        for i, record in enumerate(records):
            first.observe(link, record)
            if i in (149, 299):  # carve the history into several segments
                store.seal(link)
        total = len(first.history(link))
        store.seal(link)
        store.close()

        segments = sorted((tmp_path / "state").rglob("seg-*.col"))
        assert len(segments) >= 2
        injector = FaultInjector(seed=19)
        injector.inject("store.segment", path=str(segments[0]), **damage)

        with faults.injected(injector):
            second = PredictionService(store=LinkStore(
                tmp_path / "state", segment_rows=64))
            history = second.history(link)
            p = second.predict(link, 100 * MB, "C-MED15", now=NOW)

        assert injector.fired.get("store.segment", 0) == 1
        # The bad segment's rows are gone, everything else survives and
        # the service answers from the surviving rows without raising.
        assert 0 < len(history) < total
        assert p.value > 0
        assert p.history_length == len(history)
        quarantined = _quarantined(tmp_path / "state")
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith("seg-")


class OutOfDescriptors(OSError):
    """What ``open`` raises in a process with no file descriptor left."""

    def __init__(self, message):
        super().__init__(errno.EMFILE, message)


class TestReadRefusals:
    """ROADMAP 2(e)'s EMFILE, met at the store: 20 rows sealed and
    checkpointed, 3 more in the tail, and the first read of a fresh
    process refused."""

    LINK = "lbl-anl"
    PREDICT = {"op": "predict", "link": LINK, "size": 100 * MB,
               "spec": "C-AVG15", "now": NOW}

    def _records(self):
        from repro.data.ingest import load_ulm

        return load_ulm(DATA_DIR / LOGS[0]).to_records()[:24]

    def _state_dir(self, root):
        records = self._records()
        first = PredictionService(store=LinkStore(root))
        for record in records[:20]:
            first.observe(self.LINK, record)
        assert first.checkpoint_all(seal=True) == 1
        for record in records[20:23]:
            first.observe(self.LINK, record)
        first.store.close()
        return sorted(path.relative_to(root) for path in root.rglob("*"))

    def _answer(self, service):
        """``(repr(value), version, history_length)`` of the request."""
        from repro.service import handle_request

        response = handle_request(service, self.PREDICT)
        assert response["ok"], response
        return (repr(response["value"]), response["version"],
                response["history_length"])

    def _expected(self, count):
        reference = PredictionService()
        for record in self._records()[:count]:
            reference.observe(self.LINK, record)
        return self._answer(reference)

    @pytest.mark.parametrize("site,op,after", [
        ("store.segment", "read", 0),        # recovery's framing read
        ("store.segment", "read", 1),        # revival's column read
        ("store.segment", "tail-read", 0),   # recovery's tail scan
        ("store.checkpoint", "read", 0),     # revival's checkpoint read
    ], ids=["segment-framing", "segment-columns", "tail", "checkpoint"])
    def test_a_refused_read_answers_in_band_and_moves_no_file(
            self, tmp_path, site, op, after):
        from repro.obs import get_registry
        from repro.service import handle_request

        root = tmp_path / "state"
        files = self._state_dir(root)
        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        injector = FaultInjector(seed=23)
        injector.inject(site, error=OutOfDescriptors, op=op, after=after)
        served = PredictionService(store=LinkStore(root))
        with faults.injected(injector):
            refused = handle_request(served, self.PREDICT)
        assert injector.fired.get(site, 0) == 1
        assert refused["ok"] is False
        assert refused["error"]["code"] == "internal"
        assert "OutOfDescriptors" in refused["error"]["message"]
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == files
        assert quarantined.value == before

        # The fault cleared: the next touch reads every acked row, and
        # the next append takes the row number after them.
        answer = self._answer(served)
        assert answer == self._expected(23) and answer[2] == 23
        served.observe(self.LINK, self._records()[23])
        served.store.close()
        reopened = PredictionService(store=LinkStore(root))
        assert reopened.store.durable_rows(self.LINK) == 24
        assert self._answer(reopened) == self._expected(24)
        assert quarantined.value == before
        assert not _quarantined(root)
