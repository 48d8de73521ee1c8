"""The store as a state machine: one ``LinkStore`` against a list of rows.

Every rule is something a serving process does to a link's directory —
append, seal at shutdown, seal on the evict path, restart, die between
the segment replace and the tail removal, compact — plus one thing a
disk does (a flipped byte in the open segment).  After every rule the
store must hand back exactly the rows the model holds, in order, and
keep them in a bounded number of files.  A link whose segment was
damaged is held to the weaker contract the store documents: nothing is
served that was not written, nothing is lost but the damaged segment's
rows, and compaction makes the link whole again.
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

from repro.store import LinkStore, segments, wal

SEGMENT_ROWS = 8
LINKS = ["a", "b/c"]
links = st.sampled_from(LINKS)
_DTYPES = (np.float64, np.float64, np.int64, np.int8)


def _is_subsequence(short, long):
    rest = iter(long)
    return all(row in rest for row in short)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.store = LinkStore(self.root, segment_rows=SEGMENT_ROWS)
        self.model = {link: [] for link in LINKS}
        #: link -> model indexes a flipped byte may have taken; a link
        #: stays here from the flip to the next compaction.
        self.damaged = {}
        self.counter = 0

    def teardown(self):
        self.store.close()
        self._tmp.cleanup()

    # -- what the test can see of a link's directory -------------------
    def _dir(self, link):
        return self.root / "links" / urllib.parse.quote(link, safe="")

    def _segments(self, link):
        """``(start_row, rows, path)`` of each live segment, row order."""
        found = [(*segments.read_framing(path)[:2], path)
                 for path in self._dir(link).glob("seg-*.col")]
        return sorted(found)

    def _reopen(self):
        self.store.close()
        self.store = LinkStore(self.root, segment_rows=SEGMENT_ROWS)

    # -- rules ----------------------------------------------------------
    @rule(link=links, n=st.integers(1, 20))
    def append(self, link, n):
        rows = [(float(k), k + 0.5, k * 1000, k % 2)
                for k in range(self.counter, self.counter + n)]
        self.counter += n
        assert self.store.append_rows(link, *zip(*rows)) is True
        self.model[link].extend(rows)

    @rule(link=links)
    def seal(self, link):
        self.store.seal(link)

    @rule(link=links)
    def evict_path_seal(self, link):
        self.store.seal(link, amortized=True)
        if link in self.damaged or not self.model[link]:
            return
        found = self._segments(link)
        in_tail = len(self.model[link]) - sum(rows for _, rows, _ in found)
        assert (not (self._dir(link) / "tail.wal").exists()
                or in_tail < found[-1][1])

    @rule()
    def restart(self):
        self._reopen()

    @rule(link=links)
    def die_between_replace_and_tail_removal(self, link):
        tail = self._dir(link) / "tail.wal"
        if not tail.exists():
            return
        saved = tail.read_bytes()
        self.store.seal(link)
        tail.write_bytes(saved)
        self._reopen()

    @rule(link=links, at=st.integers(0, 10**6))
    def flip_a_byte_in_the_open_segment(self, link, at):
        if link in self.damaged:
            return
        found = self._segments(link)
        if not found:
            return
        start_row, rows, path = found[-1]
        raw = bytearray(path.read_bytes())
        raw[at % len(raw)] ^= 0x5A
        path.write_bytes(bytes(raw))
        self.damaged[link] = set(range(start_row, start_row + rows))

    @rule(link=links)
    def compact(self, link):
        if not self.model[link]:
            return
        assert self.store.compact(link)
        if self.damaged.pop(link, None) is not None:
            self.model[link] = list(zip(*(
                column.tolist() for column in self.store.load_columns(link))))

    # -- what must hold after every rule --------------------------------
    @invariant()
    def the_store_holds_the_model(self):
        for link, model in self.model.items():
            columns = self.store.load_columns(link)
            got = list(zip(*(column.tolist() for column in columns)))
            if link in self.damaged:
                lost = self.damaged[link]
                assert _is_subsequence(got, model)
                assert _is_subsequence(
                    [row for at, row in enumerate(model) if at not in lost],
                    got)
                continue
            assert not self.store.degraded(link)
            want = zip(*model) if model else ((), (), (), ())
            for column, values, dtype in zip(columns, want, _DTYPES):
                assert column.dtype == dtype
                assert column.tobytes() == np.array(values, dtype).tobytes()
            assert self.store.durable_rows(link) == len(model)
            # A new segment starts only when the last one cannot take
            # the tail, so any two neighbours hold more than one
            # segment's worth: at most twice the files a perfect packing
            # would need, however the seals fall.
            files = len(self._segments(link)) if model else 0
            assert (files // 2) * SEGMENT_ROWS < max(len(model), 1)

    @invariant()
    def no_tail_is_left_empty(self):
        for tail in self.root.glob("links/*/tail.wal"):
            assert tail.stat().st_size >= wal.RECORD_SIZE


def test_store_machine():
    run_state_machine_as_test(StoreMachine, settings=settings(
        max_examples=30, stateful_step_count=25, deadline=None))


@pytest.mark.exhaustive
def test_store_machine_exhaustive():
    run_state_machine_as_test(StoreMachine, settings=settings(
        max_examples=400, stateful_step_count=60, deadline=None))
