"""The service as a state machine: ``PredictionService`` over a
``LinkStore(segment_rows=8)`` with one resident link, against one that
never evicts.

Every rule is something a serving process meets: a batch of
observations in order, late, or at one timestamp; an eviction; a seal; a
graceful restart; a kill between the checkpoints a spill writes and the
seals that follow them; a kill with nothing written; a flipped byte in a
segment, under a cold link or a resident one.  After every rule the
tiered service answers the perf ledger's 8 specs x 3 sizes on every link
``repr``-identically to the reference, which has seen the same rows and
nothing else.  A revival rebuilds only where a rule made it: the one
revival that meets a flip (the link's rows changed under its
checkpoint), or the first after a kill (rows past the checkpoint, one of
them late, no checkpoint at all, or one a flip left stale and nothing
has written over since).  So a link whose rot has been met rebuilds
once, and from its next eviction on loads its checkpoint again: the
digest decides, and nothing marks the link.  A flip under a resident
link changes none of its answers until the segment is read again.
``store_quarantined`` moves on the flip and nowhere else.  And every
resident link, in both services, holds each row once: its ``history()``
is the bank's link series, memory and all, and each class series keeps
the positions of exactly the rows of its class.

Bandwidths are whole numbers, so every longdouble sum is exact and an
answer cannot depend on how a window's expiries and folds interleaved:
a rebuilt bank has expired nothing yet (``repro.core.streaming``).
"""

import tempfile
import urllib.parse
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule,
                                 run_state_machine_as_test)

from repro.logs.record import Operation
from repro.obs import get_registry
from repro.service import PredictionService
from repro.service.state import row_digest
from repro.store import LinkStore
from repro.units import MB
from tests.conftest import make_record

#: The perf ledger's battery (benchmarks/ledger/workloads.py) and sizes
#: from three of its classes.
SPECS = ("AVG", "LV", "AVG15", "MED5", "C-AVG15", "C-MED15", "AVG15hr", "AR5d")
SIZES = (10 * MB, 100 * MB, 1000 * MB)
CLASS_SIZES = (10 * MB, 100 * MB, 500 * MB, 1000 * MB)
LINKS = ["a", "b/c", "d"]
links = st.sampled_from(LINKS)
T0 = 1_000_000.0


def _record(end, size, bandwidth, op):
    return make_record(start=end - 4.0, duration=4.0, size=size,
                       bandwidth=bandwidth,
                       operation=Operation.WRITE if op else Operation.READ)


def _flip(path, at):
    raw = bytearray(path.read_bytes())
    raw[at % len(raw)] ^= 0x5A
    path.write_bytes(bytes(raw))


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        #: link -> its records in arrival order: what the store holds.
        self.model = {link: [] for link in LINKS}
        self.counter = 0
        self.quarantined = get_registry().counter("store_quarantined", "")
        self.quarantined_seen = self.quarantined.value
        #: Rebuilds a rule allows: link -> reasons, until the link's next
        #: revival (kill); links whose next revival meets a flip.
        self.after_kill = {}
        self.damaged = set()
        self.unexpected = []
        #: Every revival: (link, how, reason).
        self.revivals = []
        self.reference = PredictionService()
        self._open()

    def teardown(self):
        self.service.store.close()
        self._tmp.cleanup()

    def _open(self):
        self.service = PredictionService(
            store=LinkStore(self.root, segment_rows=8), max_resident=1)
        # A spy on this instance's ring: each revival is checked as it
        # is emitted, in emission order, by the thread that emits it.
        trace = self.service.trace
        emit = trace.emit

        def spy(kind, **fields):
            event = emit(kind, **fields)
            self._on_event(event)
            return event

        trace.emit = spy

    def _on_event(self, event):
        if event.kind != "revive":
            return
        link, how = event.fields["link"], event.fields["how"]
        self.revivals.append((link, how, event.fields["reason"]))
        allowed = self.after_kill.pop(link, set())
        if link in self.damaged:
            self.damaged.discard(link)
            allowed = allowed | {"rows", "digest"}
        if how == "rebuild" and event.fields["reason"] not in allowed:
            self.unexpected.append((link, event.fields["reason"]))

    def _dir(self, link):
        return self.root / "links" / urllib.parse.quote(link, safe="")

    def _last_end(self, link):
        return max((r.end_time for r in self.model[link]), default=T0)

    # -- rules ----------------------------------------------------------
    @rule(link=links, n=st.integers(1, 6),
          kind=st.sampled_from(["in_order", "late", "equal"]))
    def observe(self, link, n, kind):
        last = self._last_end(link)
        ends = {"in_order": [last + 600.0 * (k + 1) for k in range(n)],
                "late": [last - 300.0 * (k + 1) for k in range(n)],
                "equal": [last] * n}[kind]
        records = []
        for end in ends:
            self.counter += 1
            k = self.counter
            records.append(_record(end, CLASS_SIZES[(7 * k) % 4],
                                   1_000_000.0 + 4096.0 * ((13 * k) % 29), k % 2))
        items = [(link, record) for record in records]
        acks = self.service.observe_batch(items)
        assert acks == list(range(acks[0], acks[0] + n))
        self.reference.observe_batch(items)
        self.model[link].extend(records)

    @rule(link=links)
    def evict(self, link):
        """Touch another link: with one resident slot, that spills this one."""
        for other in LINKS:
            if other != link and self.model[other]:
                self.service.version(other)
                return

    @rule(link=links)
    def seal(self, link):
        self.service.store.seal(link)

    @rule()
    def graceful_restart(self):
        self.service.checkpoint_all(seal=True)
        self.service.store.close()
        self._open()

    @rule()
    def die_between_checkpoint_and_seal(self):
        """Every resident link checkpointed and none sealed: what a spill
        leaves when the process dies between its two writes."""
        self.service.checkpoint_all(seal=False)
        self.service.store.close()  # handles only; nothing is written
        self._open()

    @rule()
    def kill(self):
        """No checkpoint, no seal: a link revives from an older checkpoint
        and folds the rows past it — or rebuilds, if one is late, it has
        none, or its rows changed under it (a flip no eviction has
        checkpointed over since)."""
        store = self.service.store
        for link, records in self.model.items():
            checkpoint = store.read_checkpoint(link)
            if checkpoint is None:
                if records:
                    self.after_kill[link] = {"absent"}
                continue
            meta = checkpoint["meta"]
            n = meta["n"]
            held = records[:n]
            if n > len(records) or row_digest(
                    [r.end_time for r in held], [r.bandwidth for r in held],
                    [r.file_size for r in held]).digest() != meta["row_digest"]:
                self.after_kill[link] = {"rows", "digest"}
                continue
            ends = [r.end_time for r in records]
            delta = ends[n:]
            if delta and (delta[0] < max(ends[:n], default=-np.inf)
                          or any(b < a for a, b in zip(delta, delta[1:]))):
                self.after_kill[link] = {"out_of_order"}
        store.close()
        self._open()

    @rule(link=links, which=st.integers(0, 10**6), at=st.integers(0, 10**6))
    def flip_a_byte_in_a_segment(self, link, which, at):
        """Bit rot under a cold link, met by its next revival: the segment
        is quarantined and the link serves what survives — in the same
        process when another link can evict it, whose cache still holds
        answers for the rows that were lost."""
        if not self.model[link]:
            return
        self.evict(link)
        if link in self.service.status()["links"]:
            self.graceful_restart()
        paths = sorted(self._dir(link).glob("seg-*.col"))
        if not paths:
            return
        _flip(paths[which % len(paths)], at)
        self._meet_the_rot(link)

    @rule(link=links, which=st.integers(0, 10**6), at=st.integers(0, 10**6),
          late=st.booleans())
    def flip_a_byte_under_a_resident_link(self, link, which, at, late):
        """Bit rot under a resident link, met by what needs its rows: a
        late row (a merge into its columns) or an unbanked ``SIZE``.
        While the link stays resident it answers from the rows it revived
        with; the rot is found when the segment is next read (a seal, or
        the revival after a graceful restart), and what survives becomes
        the model."""
        if not self.model[link]:
            return
        self.service.version(link)  # resident: the link just touched
        paths = sorted(self._dir(link).glob("seg-*.col"))
        if not paths:
            return
        _flip(paths[which % len(paths)], at)
        if late:
            self.observe(link, 1, "late")
            self._assert_answers([link], SPECS)
        else:
            self._assert_answers([link], ("SIZE",))
        self.graceful_restart()
        self._meet_the_rot(link)

    def _meet_the_rot(self, link):
        """Revive a link whose segment was flipped: one quarantine, and
        the rows that survive are the model from now on."""
        self.damaged.add(link)
        self.service.version(link)
        assert link not in self.damaged  # that was the revival
        assert self.quarantined.value == self.quarantined_seen + 1
        self.quarantined_seen = self.quarantined.value
        times, values, sizes, ops = self.service.store.load_columns(link)
        self.model[link] = [
            _record(*row) for row in zip(times.tolist(), sizes.tolist(),
                                         values.tolist(), ops.tolist())]
        self.reference = PredictionService()
        for name, records in self.model.items():
            self.reference.observe_batch([(name, r) for r in records])

    # -- what must hold after every rule --------------------------------
    @invariant()
    def answers_match_a_service_that_never_evicts(self):
        self._assert_answers(LINKS, SPECS)

    def _assert_answers(self, links, specs):
        now = max(map(self._last_end, LINKS)) + 60.0
        for link in links:
            for spec in specs:
                for size in SIZES:
                    got = self.service.predict(link, size, spec, now=now)
                    want = self.reference.predict(link, size, spec, now=now)
                    assert (repr(got.value), got.history_length) == \
                        (repr(want.value), want.history_length), (link, spec, size)

    @invariant()
    def a_resident_link_holds_each_row_once(self):
        for service in (self.service, self.reference):
            for state in service.residency.resident().values():
                bank, history = state.bank, state.history()
                link = bank._global
                if link.count == 0:  # rot took every row: nothing to share
                    continue
                assert np.shares_memory(
                    history.values, link._values(0, link.count))
                assert np.shares_memory(
                    history.times, bank._columns[0][:link.count])
                tags = bank.classification.indices(history.sizes)
                for tag, series in bank._classes.items():  # every row of its class
                    np.testing.assert_array_equal(
                        series._pos[:series.count], np.flatnonzero(tags == tag))

    @invariant()
    def rebuilds_and_quarantines_only_where_a_rule_made_them(self):
        assert self.unexpected == []
        assert self.quarantined.value == self.quarantined_seen


def test_service_machine():
    run_state_machine_as_test(ServiceMachine, settings=settings(
        max_examples=40, stateful_step_count=25, deadline=None))


def test_rot_under_a_revived_link_leaves_its_answers_until_it_is_read():
    """The resident-rot rule on a link revived from its checkpoint: a
    revived link that left its rows on disk read the flipped segment on
    its first ``SIZE`` and answered None."""
    machine = ServiceMachine()
    try:
        for link, n in (("a", 6), ("a", 6), ("d", 1)):  # "d" evicts "a"
            machine.observe(link, n, "in_order")
        machine.flip_a_byte_under_a_resident_link("a", 0, 100, late=False)
        machine.answers_match_a_service_that_never_evicts()
        machine.rebuilds_and_quarantines_only_where_a_rule_made_them()
    finally:
        machine.teardown()


def test_a_link_whose_rot_was_met_rebuilds_once_then_loads_its_checkpoint():
    """One flipped segment under a cold link: the revival that meets it
    rebuilds from the survivors, the eviction after it checkpoints them,
    and every later revival loads that checkpoint."""
    machine = ServiceMachine()
    try:
        for link, n in (("a", 6), ("a", 6), ("a", 6), ("d", 1)):
            machine.observe(link, n, "in_order")
        machine.flip_a_byte_in_a_segment("a", 0, 100)
        for _ in range(3):
            machine.evict("a")
            machine.service.version("a")
            machine.answers_match_a_service_that_never_evicts()
            machine.rebuilds_and_quarantines_only_where_a_rule_made_them()
        hows = [how for link, how, _ in machine.revivals if link == "a"]
        assert hows == ["rebuild"] + ["checkpoint"] * 3
    finally:
        machine.teardown()


@pytest.mark.exhaustive
def test_service_machine_exhaustive():
    run_state_machine_as_test(ServiceMachine, settings=settings(
        max_examples=300, stateful_step_count=50, deadline=None))
