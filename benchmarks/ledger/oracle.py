"""A naive list-of-records model of the Figure 4 mean/median/last family.

Nothing here imports the program under test: the class edges, the window
rules and the walk-forward protocol are written out from the paper, so a
wrong answer from any layer of the stack (codec, cache, streaming bank,
checkpoint, WAL replay) disagrees with this file, not with itself.

A link's history is a plain list of ``(size, end_time, bandwidth)`` in
arrival order; every workload appends in end-time order.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

Record = Tuple[int, float, float]  # (size bytes, end time, bandwidth)

MB = 1_000_000
#: The paper's testbed classes: 0-50, 50-250, 250-750, >750 MB.
CLASS_EDGES = (50 * MB, 250 * MB, 750 * MB)
TRAINING = 15
REL_TOL = 1e-9

_SPEC = re.compile(r"^(C-)?(AVG|MED|LV)(\d+)?(hr)?$")


def size_class(size: int) -> int:
    for index, edge in enumerate(CLASS_EDGES):
        if size < edge:
            return index
    return len(CLASS_EDGES)


def covers(spec: str) -> bool:
    """True for the specs this model defines (everything but AR)."""
    match = _SPEC.match(spec)
    if match is None:
        return False
    _, family, window, hours = match.groups()
    if family == "LV":
        return window is None and hours is None
    if hours:
        return family == "AVG" and window is not None
    return True


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def predict(history: Sequence[Record], spec: str, size: int,
            now: float) -> Optional[float]:
    """What ``spec`` predicts for a ``size``-byte transfer asked at ``now``."""
    classified, family, window, hours = _SPEC.match(spec).groups()
    if classified:
        wanted = size_class(size)
        history = [r for r in history if size_class(r[0]) == wanted]
    if not history:
        return None
    if hours:
        cutoff = now - float(window) * 3600.0
        values = [r[2] for r in history if r[1] >= cutoff]
    elif window:
        values = [r[2] for r in history[-int(window):]]
    else:
        values = [r[2] for r in history]
    if not values:
        return None
    if family == "LV":
        return values[-1]
    return _mean(values) if family == "AVG" else _median(values)


def close(expected: Optional[float], got: Optional[float]) -> bool:
    if expected is None or got is None:
        return expected is None and got is None
    return abs(expected - got) <= REL_TOL * max(abs(expected), abs(got))


# ----------------------------------------------------------------------
# the Section 6 walk, for the mape_pct cross-check
# ----------------------------------------------------------------------
def parse_ulm(text: str) -> List[Tuple[int, float, float, float]]:
    """``(size, start, end, bandwidth)`` per line of an unquoted ULM log."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if '"' in line:
            raise ValueError("oracle ULM parser does not handle quoted values")
        fields = dict(token.split("=", 1) for token in line.split())
        rows.append((int(fields["GFTP.NBYTES"]), float(fields["GFTP.START"]),
                     float(fields["GFTP.END"]), float(fields["GFTP.BW"])))
    if any(a[2] > b[2] for a, b in zip(rows, rows[1:])):
        raise ValueError("oracle walk needs a log sorted by end time")
    return rows


def walk_mape(rows: Sequence[Tuple[int, float, float, float]],
              specs: Sequence[str]) -> Dict[str, float]:
    """MAPE per spec: 15-record training prefix, then predict each next
    transfer at its start time from strictly earlier records; abstentions
    do not enter the mean."""
    history: List[Record] = [(r[0], r[2], r[3]) for r in rows]
    errors: Dict[str, List[float]] = {spec: [] for spec in specs}
    for i in range(TRAINING, len(rows)):
        size, start, _, actual = rows[i]
        prefix = history[:i]
        for spec in specs:
            predicted = predict(prefix, spec, size, start)
            if predicted is not None:
                errors[spec].append(abs(actual - predicted) / actual * 100.0)
    return {spec: _mean(errs) if errs else float("nan")
            for spec, errs in errors.items()}


# ----------------------------------------------------------------------
# replaying a request stream against the model
# ----------------------------------------------------------------------
class Model:
    """Per-link histories advanced by the same requests the server saw."""

    #: Every Nth covered ``predict`` answer is recomputed naively.
    SAMPLE_EVERY = 50

    def __init__(self, histories: Dict[str, List[Record]]) -> None:
        self.links = {link: list(records) for link, records in histories.items()}
        self.failures: List[str] = []
        self.checked = 0
        self._covered_seen = 0

    def version(self, link: str) -> int:
        return len(self.links.get(link, ()))

    def _fail(self, index: int, message: str) -> int:
        if len(self.failures) < 20:
            self.failures.append(f"request {index}: {message}")
        return 1

    def _check_prediction(self, index: int, item: Dict, answer: Dict,
                          force: bool = False) -> int:
        """0 if ``answer`` is right for ``item`` at the model's state."""
        link, spec = item["link"], item["spec"]
        history = self.links.get(link, [])
        if not answer.get("ok", True):
            return self._fail(index, f"predict {link} not ok: {answer}")
        if answer["link"] != link or answer["spec"] != spec:
            return self._fail(index, f"echo mismatch {answer['link']}/{answer['spec']}")
        if (answer["version"] != len(history)
                or answer["history_length"] != len(history)):
            return self._fail(
                index, f"{link} at version {answer['version']} "
                f"(length {answer['history_length']}), model has {len(history)}")
        if not covers(spec):
            return 0
        self._covered_seen += 1
        if not force and self._covered_seen % self.SAMPLE_EVERY:
            return 0
        self.checked += 1
        expected = predict(history, spec, item["size"], item["now"])
        if not close(expected, answer["value"]):
            return self._fail(
                index, f"{spec} on {link}: model {expected!r}, "
                f"server {answer['value']!r}")
        return 0

    def _check_acks(self, index: int, items: Sequence[Dict],
                    acks: Sequence[Dict]) -> int:
        """Acks are per item, in request order, sequential per link."""
        if len(acks) != len(items):
            return self._fail(index, f"{len(acks)} acks for {len(items)} items")
        failed = 0
        for item, ack in zip(items, acks):
            records = self.links.setdefault(item["link"], [])
            records.append((item["size"], item["end"], item["bandwidth"]))
            if not (ack.get("ok", True) and ack.get("link") == item["link"]
                    and ack.get("version") == len(records)):
                failed += self._fail(
                    index, f"ack {ack} for {item['link']} at {len(records)}")
        return failed

    def apply(self, index: int, req: Dict, resp: Dict, force: bool = False) -> int:
        """Advance the model by one request; returns how many items failed."""
        op = req["op"]
        if not resp.get("ok"):
            return self._fail(index, f"{op} answered {resp.get('error')}") \
                * items_of(req)
        if op == "predict":
            return self._check_prediction(index, req, resp, force)
        if op == "observe":
            return self._check_acks(index, [req], [resp])
        if op == "observe_batch":
            return self._check_acks(index, req["items"], resp["results"])
        if op == "predict_batch":
            results = resp["results"]
            if len(results) != len(req["items"]):
                return self._fail(index, "predict_batch length") * items_of(req)
            return sum(self._check_prediction(index, item, answer, force)
                       for item, answer in zip(req["items"], results))
        if op == "rank":
            return self._check_rank(index, req, resp["ranking"])
        raise ValueError(f"model has no rule for op {op!r}")

    def _check_rank(self, index: int, req: Dict, ranking: Sequence[Dict]) -> int:
        spec = req["spec"]
        if sorted(e["site"] for e in ranking) != sorted(req["candidates"]):
            return self._fail(index, "rank sites differ") * items_of(req)
        known = [e["predicted_bandwidth"] for e in ranking
                 if e["predicted_bandwidth"] is not None]
        if known != sorted(known, reverse=True):
            return self._fail(index, "ranking not in descending order")
        failed = 0
        for entry in ranking:
            history = self.links.get(entry["site"], [])
            if entry["history_length"] != len(history):
                failed += self._fail(index, f"rank length for {entry['site']}")
            elif covers(spec):
                self.checked += 1
                expected = predict(history, spec, req["size"], req["now"])
                if not close(expected, entry["predicted_bandwidth"]):
                    failed += self._fail(
                        index, f"rank {spec} on {entry['site']}: model "
                        f"{expected!r}, server {entry['predicted_bandwidth']!r}")
        return failed


def items_of(req: Dict) -> int:
    """Items a request answers or acks: a batch of k items is k ops."""
    op = req["op"]
    if op in ("predict_batch", "observe_batch"):
        return len(req["items"])
    if op == "rank":
        return len(req["candidates"])
    return 1
