"""Vectorized ULM ingest and the binary sidecar cache."""

import hashlib

import pytest

from repro.data import TransferFrame, cache_path, load_ulm, parse_ulm_text
from repro.data.ingest import CACHE_VERSION, read_cache_status, write_cache
from repro.data.ingest import _digest as key  # the sidecar's own key
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


class TestCache:
    def test_first_load_writes_sidecar(self, log_path):
        frame = load_ulm(log_path)
        sidecar = cache_path(log_path)
        assert sidecar.exists()
        assert load_ulm(log_path).equals(frame)

    def test_cache_false_never_touches_disk(self, log_path, monkeypatch):
        # ... nor hashes the log: the digest is the sidecar's key only.
        monkeypatch.setattr(
            "repro.data.ingest._digest",
            lambda raw: pytest.fail("hashed a log whose digest nobody reads"))
        load_ulm(log_path, cache=False)
        assert not cache_path(log_path).exists()

    def test_content_change_invalidates(self, log_path, sample_records):
        load_ulm(log_path)
        extra = make_record(start=9_999_999.0)
        log_path.write_text(
            log_path.read_text() + format_record(extra) + "\n"
        )
        frame = load_ulm(log_path)
        assert len(frame) == len(sample_records) + 1
        assert frame.to_records()[-1] == extra

    def test_corrupt_sidecar_degrades_to_parse(self, log_path):
        frame = load_ulm(log_path)
        cache_path(log_path).write_bytes(b"not a sidecar")
        assert load_ulm(log_path).equals(frame)

    def test_version_mismatch_rejected(self, log_path, monkeypatch):
        from repro.data import ingest
        from repro.envelope import Envelope

        frame = load_ulm(log_path)
        sidecar = cache_path(log_path)
        raw = log_path.read_bytes()
        digest = key(raw)
        assert read_cache_status(sidecar, digest)[0].equals(frame)
        quarantined = sidecar.with_name(sidecar.name + ".quarantined")

        def written_by(version, log_key):
            monkeypatch.setattr(ingest, "_FILE", Envelope(
                b"RSUL", version, "I" * 10, meta="32sI"))
            assert write_cache(sidecar, log_key, frame)
            monkeypatch.undo()

        # The same file as the build before wrote it, keyed on the log's
        # SHA-256: intact, so stale, and overwritten in place.
        written_by(2, hashlib.sha256(raw).hexdigest())
        assert read_cache_status(sidecar, digest) == (None, "stale")
        assert load_ulm(log_path).equals(frame)
        assert not quarantined.exists()
        assert sidecar.read_bytes()[4:6] == bytes([CACHE_VERSION, 0])
        assert read_cache_status(sidecar, digest)[0].equals(frame)
        # ... and as a build with another cache layout wrote it: stale
        # too, whatever its body, and overwritten in place.
        written_by(999, digest)
        assert read_cache_status(sidecar, digest) == (None, "stale")
        assert load_ulm(log_path).equals(frame)
        assert not quarantined.exists()
        # This build's file with a flipped format field: corrupt.
        current = sidecar.read_bytes()
        sidecar.write_bytes(current[:4] + bytes([CACHE_VERSION ^ 4, 0])
                            + current[6:])
        assert read_cache_status(sidecar, digest) == (None, "corrupt")
        assert load_ulm(log_path).equals(frame)  # reparses and rewrites
        assert quarantined.exists()
        assert read_cache_status(sidecar, digest)[0].equals(frame)

    def test_version_1_npz_sidecar_is_not_looked_at(self, log_path):
        # What an earlier build left beside the log: never opened,
        # never quarantined, never rewritten.
        old = log_path.with_name(log_path.name + ".npz")
        old.write_bytes(b"PK\x03\x04 whatever an old build wrote")
        frame = load_ulm(log_path)
        assert load_ulm(log_path).equals(frame)
        assert old.read_bytes().startswith(b"PK")
        assert sorted(p.name for p in log_path.parent.iterdir()) == [
            "link.ulm", "link.ulm.col", "link.ulm.npz"]

    def test_digest_mismatch_rejected(self, log_path):
        load_ulm(log_path)
        assert read_cache_status(cache_path(log_path), "0" * 64) == (None, "stale")

    def test_write_cache_unwritable_destination(self, log_path, tmp_path):
        # Best-effort contract: an unwritable sidecar location (here a
        # missing parent directory) reports False instead of raising.
        frame = load_ulm(log_path, cache=False)
        ok = write_cache(tmp_path / "missing" / "x.ulm.col", "0" * 64, frame)
        assert ok is False

    def test_round_trip_preserves_every_column(self, log_path):
        parsed = load_ulm(log_path)          # writes sidecar
        cached = load_ulm(log_path)          # reads it back
        assert cached.equals(parsed)
        assert CACHE_VERSION == 3
        for name in ("sources", "files", "volumes"):
            assert getattr(cached, name).dtype == getattr(parsed, name).dtype

    def test_empty_log_round_trips(self, tmp_path):
        path = tmp_path / "empty.ulm"
        path.write_text("# nothing yet\n")
        assert len(load_ulm(path)) == 0
        frame, status = read_cache_status(
            cache_path(path), key(path.read_bytes()))
        assert status == "hit" and len(frame) == 0


class TestCacheQuarantine:
    def test_corrupt_sidecar_is_quarantined_and_rebuilt(self, log_path):
        baseline = load_ulm(log_path, cache=False)
        sidecar = cache_path(log_path)
        sidecar.write_bytes(b"definitely not a sidecar")

        frame = load_ulm(log_path)           # must not raise
        assert frame.equals(baseline)
        quarantined = sidecar.with_name(sidecar.name + ".quarantined")
        assert quarantined.exists()          # corrupt file moved aside
        assert sidecar.exists()              # fresh cache rewritten
        frame2, status = read_cache_status(
            sidecar, key(log_path.read_bytes()))
        assert status == "hit" and frame2.equals(baseline)

    def test_truncated_sidecar_is_treated_as_corrupt(self, log_path):
        load_ulm(log_path)                    # write a real sidecar
        sidecar = cache_path(log_path)
        sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
        frame = load_ulm(log_path)            # must not raise
        assert frame.equals(load_ulm(log_path, cache=False))
        assert sidecar.with_name(sidecar.name + ".quarantined").exists()

    def test_stale_format_falls_back_without_quarantine(self, log_path):
        from repro.obs import get_registry

        frame = load_ulm(log_path, cache=False)
        sidecar = cache_path(log_path)
        digest = key(log_path.read_bytes())
        other = key(b"what the log used to say")
        assert write_cache(sidecar, other, frame.prefix(2))
        assert read_cache_status(sidecar, digest) == (None, "stale")
        counter = get_registry().counter("ingest_cache_quarantined", "")
        before = counter.value
        assert load_ulm(log_path).equals(frame)
        # An intact sidecar for other content is stale, not corrupt: it
        # is overwritten in place, never quarantined.
        assert counter.value == before
        assert not sidecar.with_name(sidecar.name + ".quarantined").exists()
        assert read_cache_status(sidecar, digest)[1] == "hit"

    def test_quarantine_is_counted_and_announced(self, log_path):
        from repro.obs import get_event_bus, get_registry

        before = get_registry().counter("ingest_cache_quarantined", "").value
        cache_path(log_path).write_bytes(b"garbage")
        load_ulm(log_path)
        assert (
            get_registry().counter("ingest_cache_quarantined", "").value
            == before + 1
        )
        events = get_event_bus().events(kind="ingest.cache_quarantine")
        assert any(e.fields.get("path") == str(log_path) for e in events)

    def test_injected_cache_fault_degrades_to_reparse(self, log_path):
        from repro import faults
        from repro.faults import FaultInjector

        baseline = load_ulm(log_path, cache=False)
        load_ulm(log_path)                    # warm, valid sidecar
        injector = FaultInjector().inject("ingest.cache", error=IOError, times=1)
        with faults.injected(injector):
            assert load_ulm(log_path).equals(baseline)   # reparse, no raise
        assert injector.fired["ingest.cache"] == 1
        assert load_ulm(log_path).equals(baseline)       # cache healed
