"""Universal Logging Format (ULM) serialization.

The paper logs entries in ULM ``Keyword=Value`` format (reference [40],
the NetLogger draft).  A line looks like::

    DATE=998988169 HOST=anl.example.org PROG=gridftp LVL=INFO \
    GFTP.SRC=140.221.65.69 GFTP.FILE="/home/ftp/vazhkuda/10 MB" ...

Rules implemented here:

* fields are space-separated ``KEY=value`` pairs;
* values containing spaces, quotes, or ``=`` are wrapped in double quotes
  with backslash escaping (the paper's own file names contain spaces:
  ``/home/ftp/vazhkuda/10 MB``);
* unknown keys are preserved by :func:`parse_fields` but rejected by
  :func:`parse_record` only if a *required* key is missing — forward
  compatibility for extended providers;
* floats are serialized with ``repr`` so parsing round-trips exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.logs.record import Operation, TransferRecord

__all__ = ["ULMError", "format_record", "parse_record", "parse_lines",
           "parse_raw_lines", "format_fields", "parse_fields"]


class ULMError(ValueError):
    """Raised on malformed ULM input."""


# Keys of the GridFTP transfer object, in canonical output order.
_KEYS: Tuple[Tuple[str, str], ...] = (
    ("GFTP.SRC", "source_ip"),
    ("GFTP.FILE", "file_name"),
    ("GFTP.NBYTES", "file_size"),
    ("GFTP.VOLUME", "volume"),
    ("GFTP.START", "start_time"),
    ("GFTP.END", "end_time"),
    ("GFTP.BW", "bandwidth"),
    ("GFTP.OP", "operation"),
    ("GFTP.STREAMS", "streams"),
    ("GFTP.BUFFER", "tcp_buffer"),
)

_NEEDS_QUOTING = set(' "=\\')


def _quote(value: str) -> str:
    if value and not any(c in _NEEDS_QUOTING for c in value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def format_fields(fields: Iterable[Tuple[str, str]]) -> str:
    """Render key/value pairs as one ULM line."""
    parts = []
    for key, value in fields:
        if not key or any(c in ' ="' for c in key):
            raise ULMError(f"invalid ULM key {key!r}")
        parts.append(f"{key}={_quote(value)}")
    return " ".join(parts)


def parse_fields(line: str) -> Dict[str, str]:
    """Parse one ULM line into an ordered key->value dict.

    Raises :class:`ULMError` on unbalanced quotes, bad escapes, or a token
    without ``=``.
    """
    fields: Dict[str, str] = {}
    i, n = 0, len(line)
    while i < n:
        while i < n and line[i] == " ":
            i += 1
        if i >= n:
            break
        eq = line.find("=", i)
        if eq < 0:
            raise ULMError(f"token without '=' at column {i}: {line[i:i+30]!r}")
        key = line[i:eq]
        if not key or " " in key:
            raise ULMError(f"invalid key {key!r} at column {i}")
        i = eq + 1
        if i < n and line[i] == '"':
            i += 1
            out: List[str] = []
            while True:
                if i >= n:
                    raise ULMError(f"unterminated quoted value for {key!r}")
                c = line[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise ULMError(f"dangling escape in value for {key!r}")
                    out.append(line[i + 1])
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    out.append(c)
                    i += 1
            value = "".join(out)
        else:
            end = line.find(" ", i)
            if end < 0:
                end = n
            value = line[i:end]
            i = end
        if key in fields:
            raise ULMError(f"duplicate key {key!r}")
        fields[key] = value
    return fields


def format_record(record: TransferRecord, host: str = "") -> str:
    """Serialize a :class:`TransferRecord` to one ULM line."""
    fields: List[Tuple[str, str]] = [
        ("DATE", repr(record.end_time)),
        ("HOST", host or "localhost"),
        ("PROG", "gridftp"),
        ("LVL", "INFO"),
    ]
    for key, attr in _KEYS:
        value = getattr(record, attr)
        if attr == "operation":
            fields.append((key, value.value))
        elif isinstance(value, float):
            fields.append((key, repr(value)))
        else:
            fields.append((key, str(value)))
    return format_fields(fields)


def parse_record(line: str) -> TransferRecord:
    """Parse one ULM line back into a :class:`TransferRecord`.

    Extra keys are ignored; missing required keys raise :class:`ULMError`.
    """
    fields = parse_fields(line)
    kwargs = {}
    for key, attr in _KEYS:
        if key not in fields:
            raise ULMError(f"missing required key {key}")
        raw = fields[key]
        try:
            if attr in ("file_size", "streams", "tcp_buffer"):
                kwargs[attr] = int(raw)
            elif attr in ("start_time", "end_time", "bandwidth"):
                kwargs[attr] = float(raw)
            elif attr == "operation":
                kwargs[attr] = Operation.parse(raw)
            else:
                kwargs[attr] = raw
        except ValueError as exc:
            raise ULMError(f"bad value for {key}: {raw!r} ({exc})") from None
    try:
        return TransferRecord(**kwargs)
    except ValueError as exc:
        raise ULMError(f"inconsistent record: {exc}") from None


def parse_lines(lines: Iterable[str]) -> Iterator[TransferRecord]:
    """Parse an iterable of ULM lines, skipping blanks and ``#`` comments."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            yield parse_record(stripped)
        except ULMError as exc:
            raise ULMError(f"line {lineno}: {exc}") from None


def parse_raw_lines(
    lines: Iterable[bytes], start: int = 0,
) -> Iterator[Tuple[Optional[TransferRecord], int]]:
    """Parse a log's raw lines (bytes, ``\\n`` split off), the first of
    them at byte ``start`` of the file, skipping blanks and ``#``
    comments.

    Yields ``(record, end)`` per other line: ``record`` is None for a
    malformed one, and ``end`` is the byte offset one past the line's
    ``\\n`` — the resume point a durable store stamps on the row.  The
    caller decides what an unterminated last line is.  A line that is
    not UTF-8 is malformed, as :func:`repro.data.ingest.load_ulm` judges
    it, so a line never raises.
    """
    end = start
    for raw in lines:
        end += len(raw) + 1
        try:
            stripped = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            yield None, end
            continue
        if not stripped or stripped.startswith("#"):
            continue
        try:
            record: Optional[TransferRecord] = parse_record(stripped)
        except ULMError:
            record = None
        yield record, end
