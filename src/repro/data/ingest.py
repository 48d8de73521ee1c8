"""Vectorized ULM ingest.

The row-at-a-time loader (:func:`repro.logs.ulm.parse_lines`) costs one
quote-aware character scan, one dict, and one frozen dataclass per line —
fine for a test log, ruinous for the many-thousand-record campaign
outputs the production service replays at startup.  This module parses a
whole log into a :class:`~repro.data.frame.TransferFrame` in one pass:

* **whole-document path** — a log in which every line is exactly what
  :func:`~repro.logs.ulm.format_record` writes when nothing needs
  quoting tokenizes with one compiled-regex ``findall``;
* **fast path** — otherwise, lines containing no double quote (quoting
  only triggers on file names with spaces, ``=`` or backslashes)
  tokenize with a plain ``str.split``/``partition`` sweep;
* **fallback** — lines containing a quote go through the existing
  quote-aware :func:`~repro.logs.ulm.parse_fields` scanner, so escaping
  semantics are shared, not reimplemented;
* **columnar conversion** — raw value strings convert to typed NumPy
  columns in bulk, and the record's invariants
  (:data:`~repro.logs.record.INVARIANTS`: non-empty names, sizes,
  streams and buffers in 1..2**63-1, finite and ordered timestamps, a
  bandwidth in (0, 2**63)) judge the whole columns at once: the same
  code that judges one :class:`~repro.logs.record.TransferRecord`, so
  ingest keeps no copy of its own.

Any anomaly — a malformed line, a value the bulk cast rejects (an
integer past int64 included), a row the invariants refuse — re-parses
through the canonical per-record path so errors carry the exact message
and line number :func:`parse_lines` would raise; bytes that are not
UTF-8 raise a :class:`ULMError` naming their line too.  The property
tests assert frame-identical output on real and fuzzed logs.

:func:`load_ulm` reads a log and parses it, every time: it writes
nothing, and a service that wants to skip the parse on restart keeps
its links in the durable store (:mod:`repro.store`).
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.data.frame import OP_READ, OP_WRITE, TransferFrame
from repro.logs.record import INVARIANTS
from repro.logs.ulm import _KEYS as _WRITER_KEYS
from repro.logs.ulm import ULMError, parse_fields, parse_record
from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as _span

__all__ = ["parse_ulm_lines", "parse_ulm_text", "load_ulm"]

# Process-wide ingest instrumentation (see docs/observability.md).
_REG = get_registry()
_M_RECORDS = _REG.counter(
    "ingest_records_parsed", "records parsed into frames by the columnar ingest")
_M_FALLBACK = _REG.counter(
    "ingest_fallback_reparses",
    "vectorized parses that fell back to the per-record path")
_M_BYTES = _REG.counter("ingest_bytes", "log bytes read by load_ulm")
_H_LOAD = _REG.histogram("ingest_seconds", "load_ulm wall-clock latency")
_G_RATE = _REG.gauge(
    "ingest_bytes_per_second", "throughput of the most recent load_ulm")

#: ULM keys of the GridFTP transfer object, in frame column order.
_RAW_KEYS: Tuple[str, ...] = (
    "GFTP.START",
    "GFTP.END",
    "GFTP.BW",
    "GFTP.NBYTES",
    "GFTP.OP",
    "GFTP.STREAMS",
    "GFTP.BUFFER",
    "GFTP.SRC",
    "GFTP.FILE",
    "GFTP.VOLUME",
)
_REQUIRED_KEYS = frozenset(_RAW_KEYS)


class _SlowPath(Exception):
    """Internal: the fast path met something only the canonical parser
    should judge (and whose error message it owns)."""


def _fast_fields(line: str) -> Dict[str, str]:
    """Space-split tokenizer for quote-free lines.

    Matches :func:`parse_fields` on its domain; anything it is not sure
    about (missing ``=``, empty key, duplicate key) raises
    :class:`_SlowPath` so the canonical scanner decides.
    """
    fields: Dict[str, str] = {}
    for token in line.split(" "):
        if not token:
            continue
        key, eq, value = token.partition("=")
        if not eq or not key:
            raise _SlowPath
        if key in fields:
            raise _SlowPath
        fields[key] = value
    return fields


def _collect(lines: Iterable[str]) -> Tuple[List[List[str]], List[str], List[int]]:
    """Tokenize every line into raw per-column value lists.

    Returns ``(columns, kept_lines, line_numbers)`` where ``columns[i]``
    is the raw string list for ``_RAW_KEYS[i]``.  Raises line-numbered
    :class:`ULMError` exactly as :func:`parse_lines` would.
    """
    columns: List[List[str]] = [[] for _ in _RAW_KEYS]
    kept: List[str] = []
    numbers: List[int] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            if '"' in stripped:
                fields = parse_fields(stripped)
            else:
                try:
                    fields = _fast_fields(stripped)
                except _SlowPath:
                    fields = parse_fields(stripped)
        except ULMError as exc:
            raise ULMError(f"line {lineno}: {exc}") from None
        if not fields.keys() >= _REQUIRED_KEYS:
            # parse_record checks keys in its own order; let it pick which
            # missing key the canonical error names.
            try:
                parse_record(stripped)
            except ULMError as exc:
                raise ULMError(f"line {lineno}: {exc}") from None
            raise ULMError(f"line {lineno}: missing required key")
        for i, key in enumerate(_RAW_KEYS):
            columns[i].append(fields[key])
        kept.append(stripped)
        numbers.append(lineno)
    return columns, kept, numbers


def _reparse(kept: Sequence[str], numbers: Sequence[int]) -> TransferFrame:
    """Authoritative fallback: the per-record parser on every kept line.

    Either raises the canonical line-numbered error or resolves a
    conversion-semantics divergence in the per-record parser's favor.
    """
    records = []
    for stripped, lineno in zip(kept, numbers):
        try:
            records.append(parse_record(stripped))
        except ULMError as exc:
            raise ULMError(f"line {lineno}: {exc}") from None
    return TransferFrame.from_records(records)


def _op_codes(raw: Sequence[str]) -> np.ndarray:
    text = np.array(raw, dtype=np.str_)
    read, write = text == "read", text == "write"
    if not (read | write).all():
        # Padded or capitalised spellings, which Operation.parse accepts.
        text = np.char.lower(np.char.strip(text))
        read, write = text == "read", text == "write"
        if not (read | write).all():
            raise ValueError(
                f"unknown operation {raw[int(np.argmin(read | write))]!r}")
    return np.where(read, np.int8(OP_READ), np.int8(OP_WRITE))


def _build(columns: Sequence[Sequence[str]], kept: Sequence[str],
           numbers: Sequence[int]) -> TransferFrame:
    """Raw per-column strings -> typed, validated frame.

    Conversions are the per-record parser's own (``float``/``int`` per
    value), and the columns are judged by the record's own invariants
    (:data:`~repro.logs.record.INVARIANTS`); anything either rejects
    goes back through that parser, which owns the error message.
    """
    n = len(kept)
    if n == 0:
        return TransferFrame.empty()
    starts_r, ends_r, bws_r, sizes_r, ops_r, streams_r, bufs_r, srcs, files, vols = columns
    try:
        frame = TransferFrame(
            start_times=np.fromiter(map(float, starts_r), np.float64, n),
            end_times=np.fromiter(map(float, ends_r), np.float64, n),
            bandwidths=np.fromiter(map(float, bws_r), np.float64, n),
            sizes=np.fromiter(map(int, sizes_r), np.int64, n),
            ops=_op_codes(ops_r),
            streams=np.fromiter(map(int, streams_r), np.int64, n),
            buffers=np.fromiter(map(int, bufs_r), np.int64, n),
            sources=np.array(srcs, dtype=np.str_),
            files=np.array(files, dtype=np.str_),
            volumes=np.array(vols, dtype=np.str_),
        )
    except (ValueError, OverflowError):
        frame = None
    if frame is not None:
        columns = dict(
            source_ip=frame.sources, file_name=frame.files,
            file_size=frame.sizes, start_time=frame.start_times,
            end_time=frame.end_times, bandwidth=frame.bandwidths,
            streams=frame.streams, tcp_buffer=frame.buffers)
        if all(holds(columns).all() for _, holds in INVARIANTS):
            return frame
    _M_FALLBACK.inc()
    return _reparse(kept, numbers)


def parse_ulm_lines(lines: Iterable[str]) -> TransferFrame:
    """Parse ULM lines into a frame, skipping blanks and ``#`` comments.

    Frame-identical to ``TransferFrame.from_records(parse_lines(lines))``
    and raises the same errors on malformed input.
    """
    return _build(*_collect(lines))


#: A line exactly as :func:`repro.logs.ulm.format_record` lays it out when
#: no value needs quoting: the four preamble keys, then the ten transfer
#: keys in the writer's order, single spaces, bare values.
_BARE = r'[^\s"]+'
_WRITER_LINE = re.compile(
    "^" + " ".join(
        [f"{key}={_BARE}" for key in ("DATE", "HOST", "PROG", "LVL")]
        + [f"{re.escape(key)}=({_BARE})" for key, _ in _WRITER_KEYS]
    ) + "$", re.MULTILINE)
#: Regex group of each ``_RAW_KEYS`` column.
_GROUP_OF = tuple(
    [key for key, _ in _WRITER_KEYS].index(key) for key in _RAW_KEYS)


def parse_ulm_text(text: str) -> TransferFrame:
    """Parse a whole ULM document (see :func:`parse_ulm_lines`).

    A document in which *every* line is the writer's own layout is
    tokenized by one regex sweep; anything else — a quote, comment or
    blank line, a reordered, duplicate or extra key, ``\\r\\n``, a tab, a
    trailing space — takes the line-at-a-time path unchanged.
    """
    lines = text.splitlines()
    rows = _WRITER_LINE.findall(text)
    if not rows or len(rows) != len(lines):
        return parse_ulm_lines(lines)
    groups = list(zip(*rows))
    return _build([groups[g] for g in _GROUP_OF], lines,
                  range(1, len(lines) + 1))


def _decode(raw: bytes) -> str:
    """The log's text; undecodable bytes are a :class:`ULMError` naming
    the line they sit on."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ULMError(f"line {line}: not UTF-8 ({exc.reason} at byte "
                       f"{exc.start})") from None


def load_ulm(path: Union[str, Path]) -> TransferFrame:
    """Read and parse a ULM log as a frame (see :func:`parse_ulm_text`)."""
    path = Path(path)
    t0 = time.perf_counter()
    with _span("ingest.load_ulm", path=str(path)) as sp:
        raw = path.read_bytes()
        frame = parse_ulm_text(_decode(raw))
        elapsed = time.perf_counter() - t0
        _M_BYTES.inc(len(raw))
        _M_RECORDS.inc(len(frame))
        _H_LOAD.observe(elapsed)
        if elapsed > 0:
            _G_RATE.set(len(raw) / elapsed)
        sp.set_attribute("records", len(frame))
        get_event_bus().emit(
            "ingest.load_ulm", path=str(path), records=len(frame),
            bytes=len(raw),
        )
    return frame
