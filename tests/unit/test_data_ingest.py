"""Vectorized ULM ingest."""

import pytest

from repro.data import TransferFrame, load_ulm, parse_ulm_text
from repro.logs.ulm import ULMError, format_record, parse_lines

from tests.conftest import make_record


@pytest.fixture
def ulm_text(sample_records):
    return "\n".join(format_record(r) for r in sample_records) + "\n"


@pytest.fixture
def log_path(tmp_path, ulm_text):
    path = tmp_path / "link.ulm"
    path.write_text(ulm_text)
    return path


class TestParse:
    def test_matches_per_record_parser(self, ulm_text):
        frame = parse_ulm_text(ulm_text)
        expected = TransferFrame.from_records(parse_lines(ulm_text.splitlines()))
        assert frame.equals(expected)

    def test_blank_lines_and_comments_skipped(self, ulm_text):
        noisy = "# header\n\n" + ulm_text + "\n  \n# trailer\n"
        assert parse_ulm_text(noisy).equals(parse_ulm_text(ulm_text))

    def test_empty_document(self):
        assert len(parse_ulm_text("")) == 0

    def test_quoted_file_names(self):
        record = make_record(file_name='/data/odd name with "quote" and \\slash')
        text = format_record(record)
        frame = parse_ulm_text(text)
        assert frame.to_records() == [record]

    def test_error_carries_line_number(self, ulm_text):
        bad = ulm_text + "GFTP.START=nonsense\n"
        lineno = len(ulm_text.splitlines()) + 1
        with pytest.raises(ULMError, match=f"line {lineno}"):
            parse_ulm_text(bad)

    def test_missing_key_error_matches_per_record_path(self):
        # parse_record names the first missing key in *its* check order
        # (GFTP.SRC first), not the frame's column order; the vectorized
        # path must raise the same message.
        with pytest.raises(ULMError) as vectorized:
            parse_ulm_text("GFTP.START=1.0 GFTP.END=2.0\n")
        with pytest.raises(ULMError) as per_record:
            list(parse_lines(["GFTP.START=1.0 GFTP.END=2.0"]))
        assert str(vectorized.value) == str(per_record.value)
        assert "GFTP.SRC" in str(vectorized.value)

    def test_invalid_value_raises_like_per_record_path(self, sample_records):
        # A parseable line whose values violate record invariants must
        # raise the canonical per-record error, not pass the bulk cast.
        text = format_record(sample_records[0]).replace(
            f"GFTP.NBYTES={sample_records[0].file_size}", "GFTP.NBYTES=0"
        )
        with pytest.raises(ULMError, match="line 1"):
            parse_ulm_text(text)

    def test_bandwidth_ceiling_matches_per_record_path(self, sample_records):
        # Both parsers refuse the same rows by the record's one rule: the
        # largest float under 2**63 B/s is a bandwidth, 2**63 is not; an
        # int64 field holds 2**63 - 1, not 2**63 (which the columnar path
        # used to raise as a bare OverflowError, with no line number).
        record = sample_records[0]
        line = format_record(record)
        for key, attr, under, beyond in (
                ("GFTP.BW", "bandwidth", 2.0 ** 63 - 1024, (2.0 ** 63, 1.6e308)),
                ("GFTP.NBYTES", "file_size", 2**63 - 1, (2**63,)),
                ("GFTP.STREAMS", "streams", 2**63 - 1, (2**63,)),
                ("GFTP.BUFFER", "tcp_buffer", 2**63 - 1, (2**63,))):
            old = f"{key}={getattr(record, attr)!r}"
            ceiling = line.replace(old, f"{key}={under!r}")
            assert ceiling != line
            assert parse_ulm_text(ceiling).equals(
                TransferFrame.from_records(parse_lines([ceiling])))
            for bad in beyond:
                text = line + "\n" + line.replace(old, f"{key}={bad!r}")
                with pytest.raises(ULMError, match=f"line 2.*{attr}") as columnar:
                    parse_ulm_text(text)
                with pytest.raises(ULMError) as per_record:
                    list(parse_lines(text.splitlines()))
                assert str(columnar.value) == str(per_record.value)

    def test_operation_spellings_match_per_record_path(self, sample_records):
        # Operation.parse strips and lowercases; the vectorized comparison
        # must accept the same spellings and reject the same strangers.
        lines = [format_record(r) for r in sample_records[:4]]
        for i, spelling in enumerate(("Read", "WRITE", '" write "', "read")):
            lines[i] = lines[i].replace("GFTP.OP=read", f"GFTP.OP={spelling}")
        frame = parse_ulm_text("\n".join(lines))
        assert frame.equals(TransferFrame.from_records(parse_lines(lines)))
        assert frame.ops.tolist() == [0, 1, 1, 0]

        lines[2] = lines[2].replace('GFTP.OP=" write "', "GFTP.OP=append")
        with pytest.raises(ULMError) as vectorized:
            parse_ulm_text("\n".join(lines))
        with pytest.raises(ULMError) as per_record:
            list(parse_lines(lines))
        assert str(vectorized.value) == str(per_record.value)
        assert "line 3" in str(vectorized.value)


class TestLoad:
    def test_loads_what_the_text_parses_to(self, log_path, ulm_text):
        assert load_ulm(log_path).equals(parse_ulm_text(ulm_text))

    def test_undecodable_byte_is_a_line_numbered_error(self, log_path):
        lines = log_path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"/", b"/\xff", 1)
        log_path.write_bytes(b"".join(lines))
        with pytest.raises(ULMError, match=r"^line 3: not UTF-8"):
            load_ulm(log_path)
