"""LogFollower: incremental tailing, partial lines, rotation, bad lines."""

from repro.logs.ulm import format_record
from repro.service import LogFollower, PredictionService
from tests.conftest import make_record


def collect(path, **kwargs):
    seen = []
    follower = LogFollower(
        path, lambda batch: seen.extend((link, r) for link, r, _ in batch),
        **kwargs)
    return follower, seen


def test_poll_delivers_only_new_records(tmp_path):
    path = tmp_path / "LBL-ANL.ulm"
    r1 = make_record(start=1000.0)
    r2 = make_record(start=2000.0)
    path.write_text(format_record(r1) + "\n")

    follower, seen = collect(path)
    assert follower.poll() == 1
    with path.open("a") as fh:
        fh.write(format_record(r2) + "\n")
    assert follower.poll() == 1
    assert follower.poll() == 0
    assert [r.start_time for _, r in seen] == [1000.0, 2000.0]
    assert seen[0][0] == "LBL-ANL"  # link defaults to the file stem


def test_each_poll_is_one_call_carrying_every_resume_offset(tmp_path):
    path = tmp_path / "log.ulm"
    lines = [format_record(make_record(start=1000.0 * i)) + "\n"
             for i in (1, 2, 3)]
    path.write_text(lines[0] + "# a comment\n" + lines[1])
    calls = []
    follower = LogFollower(path, calls.append, link="L")
    assert follower.poll() == 2
    assert follower.poll() == 0          # nothing new: the sink is not called
    with path.open("a") as fh:
        fh.write(lines[2])
    assert follower.poll() == 1
    assert [[(link, r.start_time) for link, r, _ in batch] for batch in calls] \
        == [[("L", 1000.0), ("L", 2000.0)], [("L", 3000.0)]]
    # Each offset is the file position just past that record's line.
    after_second = len(lines[0]) + len("# a comment\n") + len(lines[1])
    assert [[offset for _, _, offset in batch] for batch in calls] == [
        [len(lines[0]), after_second], [after_second + len(lines[2])]]


def test_partial_line_is_held_until_complete(tmp_path):
    path = tmp_path / "log.ulm"
    line = format_record(make_record(start=1000.0))
    path.write_text(line[:40])  # server mid-write

    follower, seen = collect(path)
    assert follower.poll() == 0
    with path.open("a") as fh:
        fh.write(line[40:] + "\n")
    assert follower.poll() == 1
    assert seen[0][1].start_time == 1000.0


def test_malformed_lines_are_counted_and_skipped(tmp_path):
    path = tmp_path / "log.ulm"
    good = format_record(make_record(start=1000.0))
    path.write_text("THIS IS NOT ULM\n" + good + "\n# a comment\n\n")

    follower, seen = collect(path)
    assert follower.poll() == 1
    assert follower.errors == 1
    assert len(seen) == 1


def test_a_bandwidth_past_the_ceiling_is_a_bad_line(tmp_path):
    # And so is an int64 field at 2**63: the record used to take it, the
    # sink's int64 columns raised OverflowError out of poll (its offset
    # already advanced), and the poll's good rows were lost.
    record = make_record(start=1000.0)
    good = format_record(record)
    for key, value, huge in (("GFTP.BW", record.bandwidth, 1.6e308),
                             ("GFTP.NBYTES", record.file_size, 2**63),
                             ("GFTP.STREAMS", record.streams, 2**63),
                             ("GFTP.BUFFER", record.tcp_buffer, 2**63)):
        bad = good.replace(f"{key}={value!r}", f"{key}={huge!r}")
        assert bad != good
        path = tmp_path / f"{key}.ulm"
        path.write_text(bad + "\n" + good + "\n")

        service, delivered = PredictionService(), []

        def sink(batch, service=service, delivered=delivered):
            delivered.extend(r for _, r, _ in batch)
            return service.observe_batch(batch)

        follower = LogFollower(path, sink, link="L")
        assert follower.poll() == 1, key
        assert follower.errors == 1
        assert delivered == [record]
        assert service.history("L").values.tolist() == [record.bandwidth]


def test_truncation_restarts_from_zero(tmp_path):
    path = tmp_path / "log.ulm"
    r1 = make_record(start=1000.0)
    r2 = make_record(start=2000.0)
    path.write_text(format_record(r1) + "\n" + format_record(r1) + "\n")

    follower, seen = collect(path)
    assert follower.poll() == 2
    path.write_text(format_record(r2) + "\n")  # rotation: shorter file
    assert follower.poll() == 1
    assert follower.truncations == 1
    assert seen[-1][1].start_time == 2000.0


def test_missing_file_waits(tmp_path):
    path = tmp_path / "absent.ulm"
    follower, seen = collect(path)
    assert follower.poll() == 0
    path.write_text(format_record(make_record(start=1000.0)) + "\n")
    assert follower.poll() == 1


def test_seek_to_end_skips_existing_content(tmp_path):
    # `serve --follow` bulk-ingests first; the follower must not
    # deliver the historical records a second time.
    path = tmp_path / "LBL-ANL.ulm"
    r1 = make_record(start=1000.0)
    r2 = make_record(start=2000.0)
    path.write_text(format_record(r1) + "\n")

    follower, seen = collect(path)
    follower.seek_to_end()
    assert follower.poll() == 0          # nothing new yet
    with path.open("a") as fh:
        fh.write(format_record(r2) + "\n")
    assert follower.poll() == 1
    assert [r.start_time for _, r in seen] == [2000.0]


def test_seek_to_end_on_missing_file(tmp_path):
    path = tmp_path / "absent.ulm"
    follower, seen = collect(path)
    follower.seek_to_end()
    path.write_text(format_record(make_record(start=1000.0)) + "\n")
    assert follower.poll() == 1


def test_follower_feeds_the_service_observe(tmp_path):
    path = tmp_path / "LBL-ANL.ulm"
    records = [make_record(start=1000.0 + 100 * i) for i in range(5)]
    path.write_text("".join(format_record(r) + "\n" for r in records))

    service = PredictionService()
    follower = LogFollower(path, service.observe_batch)
    assert follower.poll() == 5
    assert service.version("LBL-ANL") == 5
    assert len(service.history("LBL-ANL")) == 5


# ----------------------------------------------------------------------
# resilience: I/O errors, torn writes, same-size rotation
# ----------------------------------------------------------------------
def test_transient_os_error_is_counted_and_retried(tmp_path):
    from repro import faults
    from repro.faults import FaultInjector

    path = tmp_path / "log.ulm"
    r1 = make_record(start=1000.0)
    r2 = make_record(start=2000.0)
    path.write_text(format_record(r1) + "\n")

    follower, seen = collect(path)
    injector = FaultInjector().inject(
        "tail.read", error=OSError, message="EIO", times=2)
    with faults.injected(injector):
        assert follower.poll() == 0      # injected failure, no raise
        assert follower.poll() == 0
        assert follower.io_errors == 2
        assert follower.poll() == 1      # fault exhausted: reads catch up
    with path.open("a") as fh:
        fh.write(format_record(r2) + "\n")
    assert follower.poll() == 1
    assert [r.start_time for _, r in seen] == [1000.0, 2000.0]


def test_torn_multibyte_write_never_raises(tmp_path):
    # A UTF-8 sequence split across polls used to raise UnicodeDecodeError
    # out of poll(); buffering raw bytes makes the tear invisible.
    path = tmp_path / "log.ulm"
    line = format_record(
        make_record(start=1000.0, file_name="/home/ftp/données")
    ).encode("utf-8")
    split = line.index("données".encode("utf-8")) + 1  # mid-sequence
    path.write_bytes(line[:split])

    follower, seen = collect(path)
    assert follower.poll() == 0          # torn tail held back, no error
    with path.open("ab") as fh:
        fh.write(line[split:] + b"\n")
    assert follower.poll() == 1
    assert seen[0][1].file_name == "/home/ftp/données"


def test_undecodable_complete_line_is_a_counted_parse_error(tmp_path):
    path = tmp_path / "log.ulm"
    good = format_record(make_record(start=1000.0)).encode("utf-8")
    path.write_bytes(b"\xff\xfe garbage \xff\n" + good + b"\n")

    follower, seen = collect(path)
    assert follower.poll() == 1
    assert follower.errors == 1
    assert len(seen) == 1


def test_a_record_with_an_undecodable_byte_is_a_parse_error(tmp_path):
    # The bulk load refuses the same line (tests/integration/test_log_inputs.py).
    path = tmp_path / "log.ulm"
    good = format_record(make_record(start=1000.0)).encode("utf-8")
    path.write_bytes(good.replace(b"=/", b"=/\xff", 1) + b"\n" + good + b"\n")

    follower, seen = collect(path)
    assert follower.poll() == 1
    assert follower.errors == 1
    assert len(seen) == 1


def test_rotation_to_same_size_is_detected_via_inode(tmp_path):
    path = tmp_path / "log.ulm"
    line = format_record(make_record(start=1000.0)) + "\n"
    path.write_text(line + line)

    follower, seen = collect(path)
    assert follower.poll() == 2

    # Rotate: replace the file with a *same-size* fresh one.
    replacement = tmp_path / "log.ulm.new"
    new_line = format_record(make_record(start=2000.0)) + "\n"
    replacement.write_text(new_line + new_line)
    assert replacement.stat().st_size == path.stat().st_size
    replacement.rename(path)

    assert follower.poll() == 2          # offset-only tracking would miss this
    assert follower.truncations == 1
    assert [r.start_time for _, r in seen] == [1000.0, 1000.0, 2000.0, 2000.0]


def test_poll_mirrors_into_process_wide_counters(tmp_path):
    from repro.obs import get_registry

    reg = get_registry()
    delivered_before = reg.counter("tail_records_delivered", "").value
    errors_before = reg.counter("tail_parse_errors", "").value

    path = tmp_path / "log.ulm"
    path.write_text("NOT ULM\n" + format_record(make_record(start=1000.0)) + "\n")
    follower, _ = collect(path)
    assert follower.poll() == 1
    assert reg.counter("tail_records_delivered", "").value == delivered_before + 1
    assert reg.counter("tail_parse_errors", "").value == errors_before + 1
