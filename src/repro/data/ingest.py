"""Vectorized ULM ingest with a content-addressed binary cache.

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
  columns in bulk, and record invariants (positive sizes, ordered
  timestamps, positive bandwidth) are checked as vectorized masks.

Any anomaly — a malformed line, a value the bulk cast rejects, a row
failing validation — re-parses through the canonical per-record path so
errors carry the exact message and line number :func:`parse_lines` would
raise.  The per-record parser stays the single source of truth; the
property tests assert frame-identical output on real and fuzzed logs.

**Binary cache.**  :func:`load_ulm` keys a sidecar (``x.ulm.col``, the
shared file envelope of :mod:`repro.envelope` around the ten frame
columns) on the SHA-256 of the log's bytes, carried in the sidecar's
verified header: the first load parses and writes the sidecar, every
later load of unchanged content is one read, one digest check and one
inflate straight into arrays (no string parsing at all), so a rewritten
or truncated log can never serve stale arrays.  Cache files are
best-effort — an unwritable directory degrades to a parse, and a
*corrupt* sidecar (truncated write, bit rot) is quarantined
(``*.col.quarantined``), counted, announced on the event bus, and
rebuilt from the log — it never raises out of :func:`load_ulm` and is
never consulted again (see docs/resilience.md).
"""

from __future__ import annotations

import hashlib
import re
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults as _faults
from repro.data.frame import (
    COLUMN_NAMES, NUMERIC_COLUMNS, OP_READ, OP_WRITE, TransferFrame)
from repro.envelope import Envelope, Verified, atomic_write, quarantine
from repro.logs.ulm import _KEYS as _WRITER_KEYS
from repro.logs.ulm import ULMError, parse_fields, parse_lines, parse_record
from repro.obs.config import enabled as _obs_enabled
from repro.obs.events import get_event_bus
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as _span

__all__ = [
    "parse_ulm_lines",
    "parse_ulm_text",
    "load_ulm",
    "cache_path",
    "write_cache",
    "read_cache_status",
]

#: Bump when the cache layout changes; readers reject other versions.
#: 1 was an ``.npz`` beside the log (``x.ulm.npz``), no longer looked at.
CACHE_VERSION = 2

# Process-wide ingest instrumentation (see docs/observability.md).
_REG = get_registry()
_M_RECORDS = _REG.counter(
    "ingest_records_parsed", "records parsed into frames by the columnar ingest")
_M_FALLBACK = _REG.counter(
    "ingest_fallback_reparses",
    "vectorized parses that fell back to the per-record path")
_M_CACHE_HITS = _REG.counter(
    "ingest_cache_hits", "log loads served from the binary sidecar")
_M_CACHE_MISSES = _REG.counter(
    "ingest_cache_misses", "log loads that parsed log text")
_M_BYTES = _REG.counter("ingest_bytes", "log bytes read by load_ulm")
_H_LOAD = _REG.histogram("ingest_seconds", "load_ulm wall-clock latency")
_G_RATE = _REG.gauge(
    "ingest_bytes_per_second", "throughput of the most recent load_ulm")
_M_QUARANTINED = _REG.counter(
    "ingest_cache_quarantined", "corrupt sidecars quarantined by load_ulm")

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
    value); anything they or the validity mask reject goes back through
    that parser, which owns the error message.
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
        if _obs_enabled():
            _M_FALLBACK.inc()
        return _reparse(kept, numbers)

    # Record invariants, vectorized (mirrors TransferRecord.__post_init__).
    valid = (
        (np.char.str_len(frame.sources) > 0)
        & (np.char.str_len(frame.files) > 0)
        & (frame.sizes > 0)
        & np.isfinite(frame.start_times)
        & np.isfinite(frame.end_times)
        & (frame.end_times > frame.start_times)
        & np.isfinite(frame.bandwidths)
        & (frame.bandwidths > 0)
        & (frame.streams > 0)
        & (frame.buffers > 0)
    )
    if not valid.all():
        if _obs_enabled():
            _M_FALLBACK.inc()
        return _reparse(kept, numbers)
    return frame


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


# ----------------------------------------------------------------------
# binary cache
# ----------------------------------------------------------------------
#: One section per frame column; the kind's own fields are the log's
#: content digest and the row count.
_FILE = Envelope(b"RSUL", CACHE_VERSION, "I" * len(COLUMN_NAMES), meta="32sI")
_NUMERIC_DTYPES = tuple(
    np.dtype(dtype).newbyteorder("<") for _, dtype in NUMERIC_COLUMNS)


def cache_path(path: Union[str, Path]) -> Path:
    """The sidecar for a log file (``x.ulm`` -> ``x.ulm.col``)."""
    path = Path(path)
    return path.with_name(path.name + ".col")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _frame_of(head: Verified) -> TransferFrame:
    """Inflate a verified sidecar; ``ValueError`` if a section is not a
    whole column of the declared row count."""
    rows = head.meta[1]
    sections = _FILE.inflate(head)
    dtypes = list(_NUMERIC_DTYPES) + [
        # Fixed-width UCS-4: the width is whatever fills the section.
        f"<U{len(section) // (4 * rows) if rows else 1}"
        for section in sections[len(_NUMERIC_DTYPES):]]
    columns = [np.frombuffer(section, dtype=dtype)
               for section, dtype in zip(sections, dtypes)]
    if any(len(column) != rows for column in columns):
        raise ValueError("column lengths disagree with the row count")
    return TransferFrame.from_arrays(dict(zip(COLUMN_NAMES, columns)))


def read_cache_status(sidecar: Path, digest: str) -> Tuple[Optional[TransferFrame], str]:
    """Read the sidecar, reporting *why* it missed.

    Returns ``(frame, status)`` where status is one of:

    * ``"hit"`` — the sidecar verified, is for this digest, and inflated;
    * ``"absent"`` — no sidecar file exists;
    * ``"stale"`` — the sidecar is intact but for other content (normal
      after a log rewrite); the next write replaces it;
    * ``"corrupt"`` — the sidecar exists but its bytes cannot be trusted
      (truncated write, bit rot, injected fault).  Callers should
      quarantine it: unlike ``stale`` it will never heal by itself.
    """
    want = bytes.fromhex(digest)
    try:
        _faults.check("ingest.cache", path=str(sidecar))
        raw = sidecar.read_bytes()
    except FileNotFoundError:
        return None, "absent"
    except OSError:
        return None, "corrupt"
    try:
        head = _FILE.verify(raw)
        if head.meta[0] != want:
            return None, "stale"
        return _frame_of(head), "hit"
    except ValueError:
        return None, "corrupt"


def write_cache(sidecar: Path, digest: str, frame: TransferFrame) -> bool:
    """Atomically write the sidecar; returns False when the directory
    refuses (read-only media is a supported deployment)."""
    sections = [
        np.ascontiguousarray(
            column, dtype=column.dtype.newbyteorder("<")).tobytes()
        for column in frame.to_arrays().values()]
    try:
        atomic_write(sidecar, _FILE.pack(
            sections, meta=(bytes.fromhex(digest), len(frame))))
    except (OSError, ValueError):  # refused, or too large for the header
        return False
    return True


def load_ulm(path: Union[str, Path], cache: bool = True) -> TransferFrame:
    """Load a ULM log as a frame, through the binary sidecar cache.

    The cache key is the content digest: editing the log in place, even
    without touching its mtime, invalidates the sidecar.  Pass
    ``cache=False`` to force a parse and skip sidecar reads and writes.
    """
    path = Path(path)
    obs = _obs_enabled()
    t0 = time.perf_counter()
    with _span("ingest.load_ulm", path=str(path)) as sp:
        raw = path.read_bytes()
        sidecar = cache_path(path)
        if cache:
            digest = _digest(raw)
            frame, status = read_cache_status(sidecar, digest)
        else:
            frame, status = None, "skipped"
        if status == "corrupt":
            # A sidecar that cannot even deserialize never heals on its
            # own — move it aside loudly and rebuild from the log.
            quarantined = quarantine(sidecar)
            if obs:
                _M_QUARANTINED.inc()
                get_event_bus().emit(
                    "ingest.cache_quarantine", path=str(path),
                    sidecar=str(sidecar),
                    quarantined=str(quarantined) if quarantined else None,
                )
        from_cache = frame is not None
        if frame is None:
            frame = parse_ulm_text(raw.decode("utf-8"))
            if cache:
                write_cache(sidecar, digest, frame)
        if obs:
            elapsed = time.perf_counter() - t0
            _M_BYTES.inc(len(raw))
            (_M_CACHE_HITS if from_cache else _M_CACHE_MISSES).inc()
            _M_RECORDS.inc(len(frame))
            _H_LOAD.observe(elapsed)
            if elapsed > 0:
                _G_RATE.set(len(raw) / elapsed)
            sp.set_attribute("records", len(frame))
            sp.set_attribute("cached", from_cache)
            get_event_bus().emit(
                "ingest.load_ulm", path=str(path), records=len(frame),
                cached=from_cache, bytes=len(raw),
            )
    return frame


def iter_records(path: Union[str, Path]):
    """Per-record iteration over a log file (the legacy row-wise path)."""
    return parse_lines(Path(path).read_text().splitlines())
