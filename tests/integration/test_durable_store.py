"""Durable tiered store, end to end on the shipped campaign logs.

The ISSUE 7 parity gates:

* **evict→revive** — a service running under a tight ``max_resident``
  ceiling (links constantly spilled to disk and revived on demand)
  answers every query bit-identically to an always-resident service
  over the same schedule, versions included.
* **warm restart** — checkpoint on shutdown, reopen the store in a
  fresh process-equivalent (new LinkStore, new service), answers are
  trace-identical, and ingest continues seamlessly.
* **kill -9** — a SIGKILLed ingester leaves at most a torn tail
  record; recovery truncates it, serves every durable row, and the
  revived answers match a resident service folded over exactly those
  rows.  No corrupt state is ever served.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.logs.record import Operation
from repro.service import PredictionService
from repro.store import LinkStore
from repro.store import wal
from repro.units import MB

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
LOGS = ["aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm"]
#: Exact under every revival path: a checkpoint restores the longdouble
#: accumulators and a rebuild folds them again in the same order (see
#: docs/architecture.md on fold exactness).
SPECS = ["C-AVG15", "AVG5", "C-MED15", "MED", "LV",
         "AVG", "C-AVG", "AR", "C-AR"]
SIZES = [10 * MB, 100 * MB, 1000 * MB]
#: The ledger's eight specs (``benchmarks/ledger/workloads.py``), and the
#: two medians over a whole history.
UPGRADE_SPECS = ["AVG", "LV", "AVG15", "MED5", "C-AVG15", "C-MED15",
                 "AVG15hr", "AR5d", "MED", "C-MED"]
NOW = 10_000_000.0


def _answers(service):
    out = []
    for link in sorted(service.links()):
        for spec in SPECS:
            for size in SIZES:
                p = service.predict(link, size, spec, now=NOW)
                out.append((link, spec, size, p.value, p.version,
                            p.history_length))
    return out


def _ingest_logs(service):
    for name in LOGS:
        service.ingest_ulm(DATA_DIR / name)


def _observed():
    """The reference: an always-resident service that saw the same logs
    one ``observe`` at a time."""
    from repro.data import load_ulm

    service = PredictionService()
    for name in LOGS:
        service.ingest_records(
            Path(name).stem, load_ulm(DATA_DIR / name).to_records())
    return service


def _interleaved(service):
    """All 30 specs at each link's own newest time, links innermost, so
    with one resident slot every answer crosses an evict→revive."""
    from repro.core.predictors.registry import ALL_PREDICTOR_NAMES

    links = sorted(service.links())
    nows = {link: service.link_state(link).last_time + 60.0 for link in links}
    return [(link, spec, size, repr(p.value), p.version, p.history_length)
            for spec in ALL_PREDICTOR_NAMES for size in SIZES for link in links
            for p in [service.predict(link, size, spec, now=nows[link])]]


def _synthetic_records(count, phase=0):
    sizes = (10 * MB, 100 * MB, 500 * MB, 1000 * MB)
    from tests.conftest import make_record

    return [make_record(start=1e6 + 900.0 * i + phase, duration=5.0 + i % 11,
                        size=sizes[(i * 7 + phase) % 4],
                        bandwidth=2e6 + 1e5 * ((i * 13 + phase) % 17))
            for i in range(count)]


def _tail_and_open_segment_rows(link_dir):
    """Rows a link holds in WAL form, and in its last segment."""
    from tests.unit.test_store import segment_shapes

    tail = link_dir / "tail.wal"
    in_tail = tail.stat().st_size // wal.RECORD_SIZE if tail.exists() else 0
    shapes = sorted(segment_shapes(link_dir).values())
    return in_tail, (shapes[-1][1] if shapes else 0)


def _assert_no_tail_outgrew_its_segment(root, but=()):
    """What eviction leaves behind: never more rows in the tail than in
    the open segment (``but`` names the links still resident)."""
    for link_dir in (Path(root) / "links").iterdir():
        if link_dir.name not in but:
            in_tail, in_segment = _tail_and_open_segment_rows(link_dir)
            assert in_tail <= in_segment, link_dir.name


class TestEvictRevive:
    def test_every_spec_on_the_four_logs_across_eviction_and_restart(
            self, tmp_path):
        logs = sorted(DATA_DIR.glob("*.ulm"))
        assert len(logs) == 4
        resident = PredictionService()
        tiered = PredictionService(
            store=LinkStore(tmp_path / "state", segment_rows=128), max_resident=1)
        for service in (resident, tiered):
            for log in logs:
                service.ingest_ulm(log)
        expected = _interleaved(resident)
        assert all(answer[3] != repr(None) for answer in expected)
        assert _interleaved(tiered) == expected  # so revived answers too
        assert tiered.status()["store"]["revivals"] >= len(expected) - 4
        _assert_no_tail_outgrew_its_segment(tmp_path / "state")
        assert tiered.checkpoint_all(seal=True) >= 1
        tiered.store.close()
        warm = PredictionService(
            store=LinkStore(tmp_path / "state", segment_rows=128))
        assert _interleaved(warm) == expected

    def test_late_rows_in_batches_under_eviction_answer_as_per_record_observes(
            self, tmp_path):
        """300 rows a link, eight pairs of neighbours swapped, arriving
        as 16-row ``observe_batch`` calls at a service with one resident
        slot: one merge and one rebuild per batch that holds a late row,
        against one rebuild per late row when the same rows are observed
        one by one — and all 30 specs answer the same, bit for bit."""
        links = {}
        for k in range(3):
            rows = _synthetic_records(300, phase=k)
            for i in (3, 9, 40, 44, 100, 150, 200, 250):  # six batches of 16
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
            links[f"L{k}"] = rows
        resident = PredictionService()
        for link, rows in links.items():
            for record in rows:
                resident.observe(link, record)
        tiered = PredictionService(
            store=LinkStore(tmp_path / "state", segment_rows=128), max_resident=1)
        for lo in range(0, 300, 16):
            for link, rows in links.items():
                tiered.observe_batch([(link, r) for r in rows[lo:lo + 16]])
        assert resident._m_rebuilds.value == 3 * 8
        assert tiered._m_rebuilds.value == 3 * 6
        assert tiered.status()["store"]["evictions"] >= 3 * 18
        # The late rows are in the store in arrival order; one stable
        # argsort of them is the order the bank held, so every revival
        # loads its checkpoint.
        revivals = tiered.metrics.snapshot()["service_link_revivals"]
        assert [series["labels"] for series in revivals["series"]] == [
            {"how": "checkpoint"}]
        for link in links:
            assert tiered.history(link).times.tolist() == \
                resident.history(link).times.tolist()
        assert _interleaved(tiered) == _interleaved(resident)

    def test_parity_under_constant_eviction(self, tmp_path):
        resident = _observed()
        store = LinkStore(tmp_path / "state", segment_rows=128)
        tiered = PredictionService(store=store, max_resident=1)
        _ingest_logs(tiered)

        # Interleave queries across links so every one crosses an
        # evict→revive boundary (only one link fits in RAM).
        assert _answers(tiered) == _answers(resident)

        status = tiered.status()["store"]
        assert status["resident_links"] <= 1
        assert status["evictions"] >= 1
        assert status["revivals"] >= 1
        assert status["bytes_on_disk"] > 0

    def test_a_seal_or_compaction_between_checkpoint_and_revival_changes_nothing(
            self, tmp_path):
        """A checkpoint names rows, not files: the seal that follows an
        eviction's checkpoint rewrites the segment it was taken over and
        the link still revives from it."""
        links = {f"L{k}": _synthetic_records(40, phase=k) for k in range(2)}
        resident = PredictionService()
        tiered = PredictionService(
            store=LinkStore(tmp_path / "state", segment_rows=16), max_resident=1)
        for lo in range(0, 40, 7):
            for link, records in links.items():
                for service in (resident, tiered):
                    service.observe_batch([(link, r) for r in records[lo:lo + 7]])
                tiered.store.seal(link)
        expected = _interleaved(resident)
        for link in links:
            tiered.store.seal(link)
        assert _interleaved(tiered) == expected
        events = tiered.trace.events(kind="revive")
        assert events and {e.fields["how"] for e in events} == {"checkpoint"}
        assert "store_checkpoints_stale" not in {
            name for name, metric in tiered.metrics.snapshot().items()
            if metric.get("value")}

    def test_ingest_continues_after_revival(self, tmp_path):
        from tests.conftest import make_record

        resident = _observed()
        store = LinkStore(tmp_path / "state", segment_rows=64)
        tiered = PredictionService(store=store, max_resident=1)
        _ingest_logs(tiered)

        # Touch the other link so the first is evicted, then append to
        # the evicted one: revival + in-order fold, still identical.
        links = sorted(resident.links())
        tiered.predict(links[1], 100 * MB, now=NOW)
        record = make_record(start=NOW - 5.0, duration=1.0, size=100 * MB)
        for service in (resident, tiered):
            service.observe(links[0], record)
        assert _answers(tiered) == _answers(resident)


def test_fsync_server_acks_each_batch_item_with_the_links_next_version(tmp_path):
    """Per-item acks in request order, one group commit per batch, one
    fsync per link it touched."""
    from repro.client import ServiceClient
    from repro.service import ServiceServer

    service = PredictionService(store=LinkStore(tmp_path / "state", fsync=True))
    last = {}
    with ServiceServer(service, tmp_path / "repro.sock") as server, \
            ServiceClient(server.socket_path, binary=True) as client:
        for batch in range(3):
            items = [(f"L{i % 3}", 10 * MB, 1e6 + 100.0 * batch + i,
                      1e6 + 100.0 * batch + i + 1.0) for i in range(60)]
            for (link, *_), ack in zip(items, client.observe_batch(items),
                                       strict=True):
                assert ack["ok"] and ack["link"] == link
                assert ack["version"] == last.get(link, 0) + 1
                last[link] = ack["version"]
        store = client.status()["store"]
    assert last == {"L0": 60, "L1": 60, "L2": 60}
    assert (store["group_commits"], store["fsyncs"]) == (3, 9)


class TestWarmRestart:
    def test_checkpoint_all_then_reopen_is_trace_identical(self, tmp_path):
        resident = _observed()
        store = LinkStore(tmp_path / "state")
        first = PredictionService(store=store)
        _ingest_logs(first)
        assert first.checkpoint_all(seal=True) == len(LOGS)
        store.close()

        reopened = LinkStore(tmp_path / "state")
        second = PredictionService(store=reopened)
        assert second.links() == sorted(resident.links())
        assert _answers(second) == _answers(resident)
        # Every link came back through the O(1) checkpoint path, not a
        # rebuild.
        assert second.status()["store"]["revivals"] == len(LOGS)

    def test_version_continuity_preserves_cache_keys(self, tmp_path):
        store = LinkStore(tmp_path / "state")
        first = PredictionService(store=store)
        _ingest_logs(first)
        versions = {link: first.version(link) for link in first.links()}
        first.checkpoint_all()
        store.close()

        second = PredictionService(store=LinkStore(tmp_path / "state"))
        for link, version in versions.items():
            assert second.version(link) == version


    def test_a_degraded_answer_leaves_revived_links_on_disk(self, tmp_path):
        """The link-agnostic aggregate over revived links is the mean of
        their banks' means: what the always-resident links would give."""
        first = PredictionService(store=LinkStore(tmp_path / "state"))
        _ingest_logs(first)
        means = [first.history(link).values.mean()
                 for link in sorted(first.links())]
        first.checkpoint_all(seal=True)
        first.store.close()

        warm = PredictionService(store=LinkStore(tmp_path / "state"),
                                 max_resident=8, degraded_fallback=True)
        states = [warm.link_state(link) for link in sorted(warm.links())]
        assert len(states) == len(LOGS)
        answer = warm.predict("unknown", 100 * MB, now=NOW)
        assert answer.degraded
        assert answer.value == pytest.approx(sum(means) / len(means), rel=1e-12)


class TestUpgrade:
    """A state dir whose segments an earlier build wrote as ``.npz``."""

    def test_npz_state_dir_serves_appends_and_compacts_as_col(self, tmp_path):
        from repro.obs import get_registry
        from tests.conftest import make_record
        from tests.unit.test_store import as_npz_state_dir

        def observe_more(service, count):
            for link in service.links():
                last = service.link_state(link).last_time
                for k in range(count):
                    service.observe(link, make_record(
                        start=last + 10.0 * (k + 1), duration=1.0))

        def build(root):
            store = LinkStore(root, segment_rows=64)
            service = PredictionService(store=store)
            _ingest_logs(service)
            observe_more(service, 70)  # one more seal, six rows in the tail
            assert service.checkpoint_all(seal=True) == len(LOGS)
            store.close()

        build(tmp_path / "old")
        build(tmp_path / "new")
        legacy = as_npz_state_dir(tmp_path / "old")
        assert len(legacy) == 3 * len(LOGS)
        assert not list((tmp_path / "old").rglob("seg-*.col"))

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        old_store = LinkStore(tmp_path / "old", segment_rows=64)
        old = PredictionService(store=old_store)
        new = PredictionService(
            store=LinkStore(tmp_path / "new", segment_rows=64))
        assert old.links() == new.links()
        assert _answers(old) == _answers(new)
        for link in old.links():
            for column_old, column_new in zip(
                    old_store.load_columns(link), new.store.load_columns(link)):
                np.testing.assert_array_equal(column_old, column_new)

        # New rows seal as .col beside the old files ...
        for service in (old, new):
            observe_more(service, 64)
        assert _answers(old) == _answers(new)
        assert all(path.exists() for path in legacy)
        assert len(list((tmp_path / "old").rglob("seg-*.col"))) == len(LOGS)

        # ... and a restart reads both where they lie.
        old_store.close()
        reopened = PredictionService(
            store=LinkStore(tmp_path / "old", segment_rows=64))
        assert _answers(reopened) == _answers(new)
        assert all(path.exists() for path in legacy)
        assert quarantined.value == before
        assert not list((tmp_path / "old").rglob("*.quarantined"))


    def test_state_dir_of_the_commit_before_eviction_sealed_converges(
            self, tmp_path):
        """Before eviction sealed, an evicted link was a tail and a
        checkpoint, and a link resident at five shutdowns had five small
        segments.  Both serve as they are, and one eviction each leaves
        one segment per link."""
        from repro.obs import get_registry
        from repro.store import segments

        links = {f"L{k}": _synthetic_records(40, phase=k) for k in range(4)}
        fresh = PredictionService()
        old = PredictionService(store=LinkStore(tmp_path / "state"))
        for service in (fresh, old):
            for link, records in links.items():
                for record in records:
                    service.observe(link, record)
        assert old.checkpoint_all() == len(links)  # no seal: tails stay
        old.store.close()
        restarted = tmp_path / "state" / "links" / "L0"
        scan = wal.scan((restarted / "tail.wal").read_bytes())
        columns = (scan.times, scan.values, scan.sizes, scan.ops, scan.offsets)
        for lo in range(0, 30, 6):
            segments.write_segment(
                restarted / segments.segment_name(lo), lo,
                *(column[lo:lo + 6] for column in columns[:4]))
        (restarted / "tail.wal").write_bytes(wal.encode_columns(
            30, *(column[30:] for column in columns)))
        assert sorted(p.name for p in restarted.iterdir()) == [
            "checkpoint.bin", *(segments.segment_name(lo)
                                for lo in range(0, 30, 6)), "tail.wal"]

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        served = PredictionService(
            store=LinkStore(tmp_path / "state"), max_resident=1)
        expected = _interleaved(fresh)
        assert _interleaved(served) == expected
        revivals = served.metrics.snapshot()["service_link_revivals"]
        assert [series["labels"] for series in revivals["series"]] == [
            {"how": "checkpoint"}]  # never a rebuild
        # The ten rows L0 kept in its tail are at least the six of its
        # last segment, so its eviction sealed too.
        served.checkpoint_all(seal=True)
        served.store.close()
        for link_dir in (tmp_path / "state" / "links").iterdir():
            assert sorted(p.name for p in link_dir.iterdir()) == [
                "checkpoint.bin", "seg-000000000000.col"], link_dir.name
            assert segments.read_framing(
                link_dir / "seg-000000000000.col")[:2] == (0, 40)
        warm = PredictionService(store=LinkStore(tmp_path / "state"))
        assert _interleaved(warm) == expected
        assert quarantined.value == before

    @pytest.mark.parametrize("format_", [3, 4, 5, 6, 7])
    def test_an_earlier_checkpoint_costs_one_rebuild(
            self, tmp_path, format_):
        """A state dir written before checkpoint format 8: the file is
        stale, so the link's first touch rebuilds it from its rows
        (counted, nothing quarantined, version continuous), its online
        accuracy starts again, it answers ``repr``-identically to a link
        that folded the same rows, and its next dirty eviction leaves a
        format-8 file that the revival after it loads."""
        from repro.obs import get_registry
        from tests.unit.test_store import (EARLIER_CHECKPOINTS,
                                           stale_link_records)

        records = stale_link_records()

        def seeded(root=None):
            service = PredictionService(
                store=root and LinkStore(root), max_resident=1,
                clock=lambda: 0.0)
            for record in records:
                service.predict("stale", record.file_size, now=record.end_time)
                service.observe("stale", record)
            service.observe("other", records[0])  # evicts "stale"
            return service

        folded, old = seeded(), seeded(tmp_path / "old")
        assert old.checkpoint_all() == 1  # "other"
        old.store.close()
        path = tmp_path / "old" / "links" / "stale" / "checkpoint.bin"
        written_by_an_earlier_commit = EARLIER_CHECKPOINTS[format_].read_bytes()
        assert written_by_an_earlier_commit[:6] == b"RSCK" + bytes([format_, 0])
        path.write_bytes(written_by_an_earlier_commit)

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        served = PredictionService(store=LinkStore(tmp_path / "old"),
                                   max_resident=1, clock=lambda: 0.0)
        assert served.version("stale") == 30
        (event,) = served.trace.events(kind="revive")
        assert (event.fields["how"], event.fields["reason"]) == (
            "rebuild", "format")
        snapshot = served.metrics.snapshot()
        assert [(s["labels"], s["value"]) for s in snapshot[
            "store_checkpoints_stale"]["series"]] == [({"reason": "format"}, 1.0)]
        assert snapshot["streaming_rebuilds"]["value"] == 1
        assert "stale" not in served.status()["accuracy"]["links"]
        assert path.read_bytes() == written_by_an_earlier_commit  # left in place

        served.predict("other", 10 * MB, "LV", now=NOW)  # evicts "stale", dirty
        assert path.read_bytes()[:6] == b"RSCK\x08\0"
        served.predict("stale", 10 * MB, "LV", now=NOW)  # evicts "other"
        assert [e.fields["how"] for e in served.trace.events(kind="revive")
                if e.fields["link"] == "stale"] == ["rebuild", "checkpoint"]
        # Every answer crosses an evict->revive, and none rebuilds.
        assert _interleaved(served) == _interleaved(folded)
        assert served.metrics.snapshot()["streaming_rebuilds"]["value"] == 1
        assert quarantined.value == before
        assert not list((tmp_path / "old").rglob("*.quarantined"))

    def test_format_1_segments_serve_as_format_3_and_one_seal_upgrades(
            self, tmp_path):
        """A state dir whose segments the commit before byte planes wrote
        (format 1, every column row-major): every link revives from its
        checkpoint, answers ``repr``-identically to the same rows stored
        as format 3, and the link's next seal leaves format 3 alone."""
        from repro.obs import get_registry
        from tests.unit.test_store import as_format_1_state_dir

        links = {f"L{k}": _synthetic_records(30 + 40 * k, phase=k)
                 for k in range(6)}

        def build(root):
            service = PredictionService(store=LinkStore(root))
            for link, records in links.items():
                for record in records:
                    service.observe(link, record)
            assert service.checkpoint_all(seal=True) == len(links)
            service.store.close()

        def formats(root):
            return {path.read_bytes()[4] for path in root.rglob("seg-*.col")}

        def answers(service):
            return [(link, spec, size, repr(p.value), p.version,
                     p.history_length)
                    for link in sorted(links) for spec in UPGRADE_SPECS
                    for size in SIZES
                    for p in [service.predict(link, size, spec, now=NOW)]]

        old, new = tmp_path / "old", tmp_path / "new"
        build(old)
        build(new)
        assert len(as_format_1_state_dir(old)) == len(links)
        assert (formats(old), formats(new)) == ({1}, {3})

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        served = {root: PredictionService(store=LinkStore(root), max_resident=2)
                  for root in (old, new)}
        expected = answers(served[new])
        assert answers(served[old]) == expected
        revivals = served[old].metrics.snapshot()["service_link_revivals"]
        assert [series["labels"] for series in revivals["series"]] == [
            {"how": "checkpoint"}]  # never a rebuild for the format

        # One more row a link, and a seal.
        for service in served.values():
            for link in sorted(links):
                last = service.link_state(link).last_time
                service.observe(link, dataclasses.replace(
                    links[link][0], start_time=last + 10.0,
                    end_time=last + 15.0))
                assert service.store.seal(link)
        assert formats(old) == {3}
        assert answers(served[old]) == answers(served[new])
        for root in (old, new):
            served[root].store.close()
        reopened = {root: PredictionService(store=LinkStore(root))
                    for root in (old, new)}
        assert answers(reopened[old]) == answers(reopened[new])
        assert quarantined.value == before
        assert not list(old.rglob("*.quarantined"))

    def test_a_segment_of_a_newer_format_refuses_its_link_in_band(
            self, tmp_path):
        """Rolling a state dir back across a segment format bump: the
        newer file is left where it lies and nothing is quarantined; a
        request that touches its link answers an in-band error, and
        every other link keeps serving."""
        from repro.obs import get_registry
        from repro.service import handle_request
        from repro.store import segments
        from tests.unit.test_store import format_4_segment

        service = PredictionService(store=LinkStore(tmp_path))
        for link in ("A", "B"):
            for record in _synthetic_records(20):
                service.observe(link, record)
        expected = service.predict("A", 10 * MB, "AVG", now=NOW).value
        service.checkpoint_all(seal=True)
        service.store.close()
        newer = tmp_path / "links" / "B" / segments.segment_name(0)
        rows = segments.read_segment(newer)
        newer.write_bytes(format_4_segment(0, *rows[3:]))

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        served = PredictionService(store=LinkStore(tmp_path))
        for request in (
                {"op": "predict", "link": "B", "size": 10 * MB},
                {"op": "observe", "link": "B", "start": NOW, "end": NOW + 5.0,
                 "size": MB},
                {"op": "rank", "candidates": ["A", "B"], "size": 10 * MB}):
            response = handle_request(served, request)
            assert response["ok"] is False, request
            assert "UnknownSegmentFormat" in response["error"]["message"]
        response = handle_request(served, {
            "op": "predict", "link": "A", "size": 10 * MB, "spec": "AVG",
            "now": NOW})
        assert response["ok"] and response["value"] == expected
        assert handle_request(served, {"op": "status"})["ok"]
        assert newer.read_bytes()[:6] == b"RSSG\4\0"
        assert quarantined.value == before
        assert not list(tmp_path.rglob("*.quarantined"))


    def test_a_parent_state_dir_serves_as_a_fresh_one_and_one_seal_upgrades(
            self, tmp_path):
        """A state dir of the commit before segment format 3 and
        checkpoint format 8 (format-2 segments and format-7 checkpoints,
        both in the legacy envelope): nothing is quarantined, each link
        rebuilds once (its checkpoint is stale) and loads the format-8
        checkpoint its eviction wrote ever after, every answer is
        ``repr``-identical to a service that never evicted, and the seal
        that extends a format-2 segment rewrites it as format 3 under its
        own name and row numbers."""
        from repro.obs import get_registry
        from repro.store import segments
        from tests.unit.test_store import as_parent_state_dir

        links = {f"L{k}": _synthetic_records(30 + 40 * k, phase=k)
                 for k in range(4)}
        root = tmp_path / "state"
        fresh = PredictionService()
        built = PredictionService(store=LinkStore(root))
        for service in (fresh, built):
            for link, records in links.items():
                for record in records:
                    service.observe(link, record)
        assert built.checkpoint_all(seal=True) == len(links)
        built.store.close()
        rewritten = as_parent_state_dir(root)
        assert {path.read_bytes()[:6] for path in rewritten} == {
            b"RSSG\2\0", b"RSCK\7\0"}
        assert len(rewritten) == 2 * len(links)

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        served = PredictionService(store=LinkStore(root), max_resident=1)
        assert _interleaved(served) == _interleaved(fresh)
        snapshot = served.metrics.snapshot()
        assert snapshot["streaming_rebuilds"]["value"] == len(links)
        assert [(s["labels"], s["value"]) for s in snapshot[
            "store_checkpoints_stale"]["series"]] == [
                ({"reason": "format"}, float(len(links)))]
        assert {series["labels"]["how"]: series["value"] for series in
                snapshot["service_link_revivals"]["series"]}["rebuild"] \
            == len(links)
        assert {path.read_bytes()[:6]
                for path in root.rglob("checkpoint.bin")} == {b"RSCK\x08\0"}

        # One more row a link, and the seal that folds it in.
        for link, records in sorted(links.items()):
            last = fresh.link_state(link).last_time
            extra = dataclasses.replace(records[0], start_time=last + 10.0,
                                        end_time=last + 15.0)
            for service in (fresh, served):
                service.observe(link, extra)
            assert served.store.seal(link)
            path = root / "links" / link / segments.segment_name(0)
            assert path.read_bytes()[:6] == b"RSSG\3\0"
            assert segments.read_framing(path)[:2] == (0, len(records) + 1)
            assert [p.name for p in path.parent.glob("seg-*")] == [path.name]
        assert _interleaved(served) == _interleaved(fresh)
        served.store.close()
        reopened = PredictionService(store=LinkStore(root), max_resident=1)
        assert _interleaved(reopened) == _interleaved(fresh)
        assert reopened.metrics.snapshot()["streaming_rebuilds"]["value"] == 0
        assert quarantined.value == before
        assert not list(root.rglob("*.quarantined"))

    @pytest.mark.exhaustive
    def test_a_thousand_link_parent_state_dir_serves_with_one_rebuild_a_link(
            self, tmp_path):
        """The shape of the ledger's ``cold_revive``, 1,000 links of 30
        rows, left by the commit before segment format 3 and checkpoint
        format 8: served through 16 resident slots it quarantines
        nothing, rebuilds each link once, and answers ``repr``-identically
        to a service that never evicted."""
        from repro.obs import get_registry
        from tests.unit.test_store import as_parent_state_dir

        links = {f"L{k:04d}": _synthetic_records(30, phase=k)
                 for k in range(1000)}
        root = tmp_path / "state"
        fresh = PredictionService()
        built = PredictionService(store=LinkStore(root))
        for service in (fresh, built):
            for link, records in links.items():
                service.ingest_records(link, records)
        assert built.checkpoint_all(seal=True) == len(links)
        built.store.close()
        assert len(as_parent_state_dir(root)) == 2 * len(links)

        def answers(service):
            return [(link, spec, repr(p.value), p.version, p.history_length)
                    for spec in ("AVG15", "C-MED15") for link in links
                    for p in [service.predict(link, 100 * MB, spec, now=NOW)]]

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        served = PredictionService(store=LinkStore(root), max_resident=16)
        assert answers(served) == answers(fresh)
        snapshot = served.metrics.snapshot()
        assert snapshot["streaming_rebuilds"]["value"] == len(links)
        assert snapshot["store_checkpoints_stale"]["value"] == len(links)
        assert quarantined.value == before
        assert not list(root.rglob("*.quarantined"))


class TestStaleCheckpoint:
    """A checkpoint whose bank cannot be used costs one rebuild and says
    why: never a quarantine, never an answer."""

    def _evicted(self, root):
        records = _synthetic_records(40)
        service = PredictionService(store=LinkStore(root), max_resident=1)
        for record in records:
            service.observe("L", record)
        service.observe("other", records[0])  # evicts "L": checkpoint + seal
        service.store.close()
        return records

    def _revive(self, root):
        service = PredictionService(store=LinkStore(root))
        state = service.link_state("L")
        (event,) = service.trace.events(kind="revive")
        return service, state, event.fields

    def test_rows_that_changed_under_the_checkpoint_fail_its_digest(
            self, tmp_path):
        from repro.store import segments

        records = self._evicted(tmp_path / "state")
        path = tmp_path / "state" / "links" / "L" / "seg-000000000000.col"
        data = segments.read_segment(path)
        values = data.values.copy()
        values[7] += 1.0  # same rows, one bandwidth rewritten
        segments.write_segment(path, 0, data.times, values, data.sizes,
                               data.ops, max_offset=data.max_offset)
        service, state, fields = self._revive(tmp_path / "state")
        assert (fields["how"], fields["reason"]) == ("rebuild", "digest")
        assert fields["version"] == 41  # moved past the checkpoint's 40
        reference = PredictionService()
        for record, value in zip(records, values.tolist()):
            reference.observe("L", dataclasses.replace(record, bandwidth=value))
        for spec in SPECS:
            assert repr(service.predict("L", 100 * MB, spec, now=NOW).value) \
                == repr(reference.predict("L", 100 * MB, spec, now=NOW).value)

    def test_a_checkpoint_in_another_links_directory_fails_its_digest(
            self, tmp_path):
        """A checkpoint names no link; copied into another link's
        directory it does not name that link's rows either."""
        self._evicted(tmp_path / "state")
        records = _synthetic_records(40, phase=1)
        service = PredictionService(store=LinkStore(tmp_path / "state"))
        for record in records:
            service.observe("M", record)
        service.checkpoint_all()
        service.store.close()
        links = tmp_path / "state" / "links"
        (links / "M" / "checkpoint.bin").write_bytes(
            (links / "L" / "checkpoint.bin").read_bytes())
        service = PredictionService(store=LinkStore(tmp_path / "state"))
        service.link_state("M")
        (event,) = service.trace.events(kind="revive")
        assert (event.fields["how"], event.fields["reason"]) == (
            "rebuild", "digest")
        snapshot = service.metrics.snapshot()
        assert [(s["labels"], s["value"]) for s in snapshot[
            "store_checkpoints_stale"]["series"]] == [({"reason": "digest"}, 1.0)]
        assert snapshot["streaming_rebuilds"]["value"] == 1
        folded = PredictionService()
        for record in records:
            folded.observe("M", record)
        for spec in SPECS:
            assert repr(service.predict("M", 100 * MB, spec, now=NOW).value) \
                == repr(folded.predict("M", 100 * MB, spec, now=NOW).value)

    def test_a_checkpoint_of_another_classification_reads_stale_by_format(
            self, tmp_path):
        """The same rows, digest and bank, keyed by another
        classification's fingerprint: the bank is not loaded."""
        from repro.store import checkpoint as ck

        records = self._evicted(tmp_path / "state")
        folded = PredictionService()
        for record in records:
            folded.observe("L", record)
        foreign = folded.link_state("L").checkpoint_state(
            ck.fingerprint("100000000|small,large"))
        store = LinkStore(tmp_path / "state")
        assert store.write_checkpoint("L", foreign)
        store.close()
        service, state, fields = self._revive(tmp_path / "state")
        assert (fields["how"], fields["reason"]) == ("rebuild", "format")
        assert state.version == 40
        for spec in SPECS:
            assert repr(service.predict("L", 100 * MB, spec, now=NOW).value) \
                == repr(folded.predict("L", 100 * MB, spec, now=NOW).value)

    def test_a_degraded_link_reads_its_checkpoint_stale_by_rows(self, tmp_path):
        self._evicted(tmp_path / "state")
        link_dir = tmp_path / "state" / "links" / "L"
        (link_dir / "seg-000000000000.col").write_bytes(b"rot")
        service, state, fields = self._revive(tmp_path / "state")
        assert (fields["how"], fields["reason"]) == ("rebuild", "rows")
        assert len(state) == 0 and state.version == 41
        assert service.predict("L", 100 * MB, now=NOW).value is None


    def test_bit_rot_met_after_revival_leaves_the_resident_link_as_it_was(
            self, tmp_path):
        """A byte flipped in a revived link's segment changes nothing
        while the link stays resident: revival kept the rows it read, so
        an unbanked ``SIZE`` and the bank's ``AVG`` answer as a service
        that never evicted, at the same version.  The link's next revival
        meets the rot: the segment is quarantined and the link rebuilds
        from what survives, its version moved on."""
        from repro.obs import get_registry

        records = _synthetic_records(40)
        resident = PredictionService()
        for record in records:
            resident.observe("L", record)
        first = PredictionService(store=LinkStore(tmp_path / "state"))
        for record in records:
            first.observe("L", record)
        first.checkpoint_all(seal=True)
        first.store.close()

        quarantined = get_registry().counter("store_quarantined", "")
        before = quarantined.value
        service = PredictionService(store=LinkStore(tmp_path / "state"))
        want = {spec: resident.predict("L", 100 * MB, spec, now=NOW)
                for spec in ("SIZE", "AVG")}
        assert want["SIZE"].value is not None
        avg = service.predict("L", 100 * MB, "AVG", now=NOW)
        assert repr(avg.value) == repr(want["AVG"].value)
        (path,) = (tmp_path / "state" / "links" / "L").glob("seg-*.col")
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x5A
        path.write_bytes(bytes(raw))
        for spec in ("SIZE", "AVG"):
            got = service.predict("L", 100 * MB, spec, now=NOW)
            assert (repr(got.value), got.version, got.history_length) == (
                repr(want[spec].value), 40, 40), spec
        state = service.link_state("L")
        assert (len(state), state.version) == (40, 40)
        assert quarantined.value == before
        service.checkpoint_all(seal=True)  # current and sealed: no write
        service.store.close()

        service, state, fields = self._revive(tmp_path / "state")
        assert quarantined.value == before + 1
        assert (fields["how"], fields["reason"]) == ("rebuild", "rows")
        assert (len(state), state.version) == (0, 41)


class TestKillNine:
    """SIGKILL an ingester mid-append; recover; serve only the truth."""

    CHILD = textwrap.dedent("""
        import os, signal, sys
        sys.path.insert(0, {src!r})
        from repro.data.ingest import load_ulm
        from repro.service import PredictionService
        from repro.store import LinkStore

        store = LinkStore({state!r}, segment_rows=64)
        service = PredictionService(store=store)
        frame = load_ulm({log!r})
        for i, record in enumerate(frame.to_records()):
            service.observe("victim", record)
            if i == 150:
                os.write(1, b"ready\\n")  # parent may SIGKILL any time now
        os.write(1, b"done\\n")
        signal.pause()
    """)

    def _run_child_and_kill(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        script = self.CHILD.format(
            src=src, state=str(tmp_path / "state"),
            log=str(DATA_DIR / LOGS[0]),
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env)
        assert proc.stdout.readline().strip() == b"ready"
        # Kill while the append loop is hot: no checkpoint, no flush,
        # possibly a torn in-flight record.
        proc.kill()
        proc.wait(timeout=30)

    def test_recovery_serves_exactly_the_durable_rows(self, tmp_path):
        self._run_child_and_kill(tmp_path)

        # Simulate the torn in-flight write the kill may or may not
        # have produced, so the truncation path definitely runs.
        link_dir = next((tmp_path / "state" / "links").iterdir())
        tail = link_dir / "tail.wal"
        if tail.exists():
            with open(tail, "ab") as fh:
                fh.write(b"\x13torn-record-bytes")

        store = LinkStore(tmp_path / "state", segment_rows=64)
        durable = store.durable_rows("victim")
        assert durable > 150  # the child got at least past the marker
        if tail.exists():
            assert os.path.getsize(tail) % wal.RECORD_SIZE == 0

        revived = PredictionService(store=store)
        # The reference: a resident service folded over exactly the
        # rows that became durable, in the same arrival order.
        times, values, sizes, ops = store.load_columns("victim")
        assert len(times) == durable
        assert (np.diff(times) >= 0).all()

        from tests.conftest import make_record

        resident = PredictionService()
        for t, v, s, o in zip(times, values, sizes, ops):
            resident.observe("victim", make_record(
                start=float(t) - 1.0, duration=1.0, size=int(s),
                bandwidth=float(v),
                operation=Operation.READ if o == 0 else Operation.WRITE))

        for spec in SPECS:
            for size in SIZES:
                a = revived.predict("victim", size, spec, now=NOW)
                b = resident.predict("victim", size, spec, now=NOW)
                assert a.value == b.value, (spec, size)
                assert a.history_length == b.history_length == durable

    def test_rows_past_the_checkpoint_fold_as_the_per_row_path_would(
            self, tmp_path):
        """A killed process leaves every un-checkpointed row in the WAL;
        revival folds them with one ``extend``, which must leave the bank
        a per-row ``add`` of the same rows would have."""
        from repro.core.predictors.registry import ALL_PREDICTOR_NAMES, resolve
        from repro.core.streaming import StreamingBank
        from tests.conftest import make_record

        sizes = (10 * MB, 100 * MB, 500 * MB, 1000 * MB)
        records = [make_record(start=1e6 + 900.0 * i, duration=5.0 + i % 11,
                               size=sizes[(i * 7) % 4],
                               bandwidth=2e6 + 1e5 * ((i * 13) % 17))
                   for i in range(400)]
        dying = PredictionService(store=LinkStore(tmp_path / "state"))
        for record in records[:100]:
            dying.observe("victim", record)
        assert dying.checkpoint_all() == 1
        for record in records[100:]:
            dying.observe("victim", record)
        # ... and it dies here: no checkpoint, no seal, 300 rows of suffix.

        store = LinkStore(tmp_path / "state")
        revived = PredictionService(store=store)
        by_row = StreamingBank(revived.classification)
        columns = store.load_columns("victim")
        by_row.load_state(store.read_checkpoint("victim")["bank"],
                          *(column[:100] for column in columns[:3]))
        assert by_row.count == 100
        for t, v, s, o in zip(*(column[100:].tolist() for column in columns)):
            by_row.add(t, v, s, o)

        bank = revived.link_state("victim").bank
        (event,) = revived.trace.events(kind="revive")
        assert (event.fields["how"], event.fields["records"]) == ("checkpoint", 400)
        with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
            assert repr(bank.state()) == repr(by_row.state())
        now = records[-1].end_time + 60.0
        for name in ALL_PREDICTOR_NAMES:
            predictor = resolve(name, classification=revived.classification)
            for size in sizes:
                assert repr(revived.predict("victim", size, name, now=now).value) \
                    == repr(by_row.answer(predictor, size, now)), (name, size)

    def test_rows_past_an_evict_sealed_segment_survive_the_kill(self, tmp_path):
        """Eviction moved each link's rows into a segment; what came
        after is in the tail, some of it past the last checkpoint.  A
        killed process must come back with every acked row, through the
        checkpoint, with the suffix folded."""
        links = {f"L{k}": _synthetic_records(44, phase=k) for k in range(3)}
        resident = PredictionService()
        dying = PredictionService(
            store=LinkStore(tmp_path / "state"), max_resident=1)
        for lo, hi in ((0, 30), (30, 36), (36, 40)):
            for link, records in links.items():
                for record in records[lo:hi]:
                    dying.observe(link, record)
        for record in links["L0"][40:]:
            dying.observe("L0", record)
        # ... and it dies here, L0 resident: no checkpoint, no seal.
        for link, records in links.items():
            for record in records[:44 if link == "L0" else 40]:
                resident.observe(link, record)
        rows = {link_dir.name: _tail_and_open_segment_rows(link_dir)
                for link_dir in (tmp_path / "state" / "links").iterdir()}
        # 30 sealed at the first eviction; 6 and then 4 more never
        # matched the segment, so they (and L0's last 4) are WAL rows.
        assert rows == {"L0": (14, 30), "L1": (10, 30), "L2": (10, 30)}

        store = LinkStore(tmp_path / "state")
        revived = PredictionService(store=store)
        for link, records in links.items():
            acked = [r.end_time for r in records[:44 if link == "L0" else 40]]
            assert store.load_columns(link)[0].tolist() == acked
        assert [revived.version(link) for link in links] == [44, 40, 40]
        assert [(e.fields["link"], e.fields["how"], e.fields["records"])
                for e in revived.trace.events(kind="revive")] == [
            ("L0", "checkpoint", 44), ("L1", "checkpoint", 40),
            ("L2", "checkpoint", 40)]
        assert _interleaved(revived) == _interleaved(resident)

    def test_restart_after_kill_continues_ingest(self, tmp_path):
        from tests.conftest import make_record

        self._run_child_and_kill(tmp_path)
        store = LinkStore(tmp_path / "state", segment_rows=64)
        service = PredictionService(store=store)
        before = len(service.history("victim"))
        last = service.link_state("victim").last_time
        service.observe(
            "victim", make_record(start=last + 10.0, duration=1.0))
        assert len(service.history("victim")) == before + 1
        assert store.durable_rows("victim") == before + 1
