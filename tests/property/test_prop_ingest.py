"""Property tests: the vectorized ULM ingest is frame-identical to the
per-record parser — on the shipped campaign logs and on fuzzed records
exercising the quoting/escaping edge cases the fast path must hand off.
"""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import TransferFrame, ingest, parse_ulm_lines, parse_ulm_text
from repro.logs import Operation, TransferRecord, format_record
from repro.logs.ulm import ULMError, parse_lines

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
SHIPPED_LOGS = sorted(DATA_DIR.glob("*.ulm"))

# File names biased toward the characters that trigger quoting and
# escaping in ULM: spaces, '=', double quotes, backslashes.
tricky_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())
spicy_names = st.builds(
    lambda parts: " ".join(parts).strip() or "x",
    st.lists(
        st.sampled_from(['a', 'data', '=', '"', '\\', 'file="v"', '\\"', 'b=c']),
        min_size=1,
        max_size=6,
    ),
)
file_names = st.one_of(tricky_names, spicy_names).filter(lambda s: s.strip())

records = st.builds(
    lambda name, volume, size, start, duration, bw, op, streams, buffer: TransferRecord(
        source_ip="140.221.65.69",
        file_name=name,
        file_size=size,
        volume=volume,
        start_time=start,
        end_time=start + duration,
        bandwidth=bw,
        operation=op,
        streams=streams,
        tcp_buffer=buffer,
    ),
    name=file_names,
    volume=st.sampled_from(["/home/ftp", "/vol with space", '/q"uote']),
    size=st.integers(min_value=1, max_value=10**12),
    start=st.floats(min_value=0, max_value=2e9, allow_nan=False),
    duration=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    bw=st.floats(min_value=1e-3, max_value=1e12, allow_nan=False),
    op=st.sampled_from([Operation.READ, Operation.WRITE]),
    streams=st.integers(min_value=1, max_value=64),
    buffer=st.integers(min_value=1, max_value=10**8),
)


@pytest.mark.parametrize("path", SHIPPED_LOGS, ids=lambda p: p.name)
def test_shipped_logs_parse_identically(path):
    text = path.read_text()
    vectorized = parse_ulm_text(text)
    per_record = TransferFrame.from_records(parse_lines(text.splitlines()))
    assert len(vectorized) > 0
    assert vectorized.equals(per_record)


@settings(max_examples=150, deadline=None)
@given(st.lists(records, min_size=0, max_size=12))
def test_fuzzed_records_parse_identically(batch):
    lines = [format_record(r) for r in batch]
    vectorized = parse_ulm_lines(lines)
    per_record = TransferFrame.from_records(parse_lines(lines))
    assert vectorized.equals(per_record)
    assert vectorized.to_records() == batch


@settings(max_examples=60, deadline=None)
@given(
    st.lists(records, min_size=1, max_size=6),
    st.sampled_from(["# comment", "", "   ", "\t"]),
)
def test_noise_lines_ignored_identically(batch, noise):
    lines = []
    for record in batch:
        lines.append(noise)
        lines.append(format_record(record))
    vectorized = parse_ulm_lines(lines)
    per_record = TransferFrame.from_records(parse_lines(lines))
    assert vectorized.equals(per_record)


# ----------------------------------------------------------------------
# the whole-document regex path and everything that must not take it
# ----------------------------------------------------------------------
plain_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           blacklist_characters='"=\\'),
    min_size=1, max_size=30,
)
plain_records = st.builds(
    lambda record, name, volume: dataclasses.replace(
        record, file_name=name, volume=volume),
    records, plain_names, st.sampled_from(["/home/ftp", "/v", "vol-2"]),
)


def _swap_two_keys(line):
    fields = line.split(" ")
    fields[5], fields[9] = fields[9], fields[5]
    return " ".join(fields)


def _quoted_name(line):
    fields = line.split(" ")
    fields[5] = 'GFTP.FILE="/tmp/a b"'
    return " ".join(fields)


#: name -> (edit of one line, whether the document can still take the
#: regex path).  Lines are ``format_record`` output with nothing quoted.
DEVIATIONS = {
    "quote": (_quoted_name, False),
    "comment": (lambda line: "# " + line, False),
    "blank": (lambda line: "\n" + line, False),
    "blank-spaces": (lambda line: "   \n" + line, False),
    "reordered": (_swap_two_keys, False),
    "duplicate": (lambda line: line + " GFTP.OP=read", False),
    "extra": (lambda line: line + " GFTP.EXTRA=1", False),
    "extra-first": (lambda line: "X=1 " + line, False),
    "missing": (lambda line: line.rsplit(" ", 1)[0], False),
    "crlf": (lambda line: line + "\r", False),
    "tab": (lambda line: line.replace(" GFTP.BW=", "\tGFTP.BW="), False),
    "leading-tab": (lambda line: "\t" + line, False),
    "trailing-space": (lambda line: line + " ", False),
    "double-space": (lambda line: line.replace(" HOST=", "  HOST="), False),
    "form-feed": (lambda line: line + "\x0c" + line, False),
    "mid-quote": (lambda line: line.replace("GFTP.VOLUME=", 'GFTP.VOLUME=a"'),
                  False),
    # Still the writer's layout, so the regex tokenizes them; the values
    # are the per-record parser's to judge.
    "capitalised-op": (lambda line: re.sub(r"GFTP\.OP=\w+", "GFTP.OP=READ", line),
                       True),
    "unknown-op": (lambda line: re.sub(r"GFTP\.OP=\w+", "GFTP.OP=append", line),
                   True),
    "zero-size": (lambda line: re.sub(r"GFTP\.NBYTES=\d+", "GFTP.NBYTES=0", line),
                  True),
    "float-size": (lambda line: re.sub(r"GFTP\.NBYTES=\d+", "GFTP.NBYTES=1.5", line),
                   True),
    "nan-bandwidth": (lambda line: re.sub(r"GFTP\.BW=\S+", "GFTP.BW=nan", line),
                      True),
    "underscored": (lambda line: re.sub(r"GFTP\.STREAMS=(\d)", r"GFTP.STREAMS=\g<1>_0", line),
                    True),
    "huge-int": (lambda line: re.sub(r"GFTP\.BUFFER=\d+", "GFTP.BUFFER=" + "9" * 30, line),
                 True),
}


def _outcome(parse):
    """A parse's frame, or the text of the error it raised (a value no
    int64 column can hold is an OverflowError from the frame itself, on
    either path)."""
    try:
        return parse()
    except (ULMError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_as_parse_lines(text):
    got = _outcome(lambda: parse_ulm_text(text))
    want = _outcome(
        lambda: TransferFrame.from_records(parse_lines(text.splitlines())))
    if isinstance(want, str):
        assert got == want
        assert want.startswith(("ULMError: line ", "OverflowError: "))
    else:
        assert not isinstance(got, str), got
        assert got.equals(want)
        for name in ("sources", "files", "volumes", "sizes", "ops"):
            assert getattr(got, name).dtype == getattr(want, name).dtype


@pytest.fixture
def collect_calls(monkeypatch):
    """How many times the line-at-a-time tokenizer ran."""
    calls = []
    collect = ingest._collect

    def spy(lines):
        calls.append(1)
        return collect(lines)

    monkeypatch.setattr(ingest, "_collect", spy)
    return calls


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(plain_records, min_size=1, max_size=8),
       newline=st.booleans())
def test_writer_layout_takes_the_regex_path(collect_calls, batch, newline):
    del collect_calls[:]
    text = "\n".join(format_record(r) for r in batch) + "\n" * newline
    frame = parse_ulm_text(text)
    assert collect_calls == []
    assert frame.to_records() == batch
    _assert_same_as_parse_lines(text)


@pytest.mark.parametrize("name", sorted(DEVIATIONS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(plain_records, min_size=1, max_size=6), data=st.data())
def test_each_deviation_parses_as_parse_lines_does(
        collect_calls, name, batch, data):
    del collect_calls[:]
    edit, regex_path = DEVIATIONS[name]
    lines = [format_record(r) for r in batch]
    at = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    lines[at] = edit(lines[at])
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
    _assert_same_as_parse_lines(text)
    # ... and by the path the issue says: the regex only for documents
    # that are the writer's layout throughout.
    assert (collect_calls == []) == regex_path


@pytest.mark.parametrize("path", SHIPPED_LOGS, ids=lambda p: p.name)
def test_shipped_logs_take_the_regex_path(path, collect_calls):
    text = path.read_text()
    frame = parse_ulm_text(text)
    assert collect_calls == []
    assert frame.equals(
        TransferFrame.from_records(parse_lines(text.splitlines())))
