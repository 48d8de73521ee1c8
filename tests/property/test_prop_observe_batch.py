"""Property tests: batched observe is indistinguishable from sequential.

``observe_batch`` must be a pure performance optimization: for ANY
stream of observations — out-of-order end times, duplicate timestamps,
many links interleaved, any batch-boundary placement — the batched path
must leave identical versions, identical predictions, identical
quality-tracker state, and (with a durable store) identical WAL bytes
and sealed columns, compared to feeding the same stream through
per-record ``observe``.  The WAL codec's vectorized scan/encode must
likewise match the per-record struct reference byte for byte.
"""

import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.record import Operation, TransferRecord
from repro.service.service import PredictionService
from repro.store import LinkStore
from repro.store import wal

# Small time grid → plenty of duplicate timestamps and regressions.
observations = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C"]),
        st.integers(min_value=0, max_value=30),          # end time grid
        st.floats(min_value=0.1, max_value=1e4,
                  allow_nan=False, allow_infinity=False),  # bandwidth
        st.integers(min_value=1, max_value=10**9),       # size
        st.sampled_from(["read", "write"]),
    ),
    min_size=1, max_size=60,
)
# Batch boundaries: split the stream at arbitrary points.
splits = st.lists(st.integers(min_value=1, max_value=7),
                  min_size=1, max_size=20)


def _record(end, bandwidth, size, op):
    end = float(end)
    return TransferRecord(
        source_ip="0.0.0.0", file_name="/f", file_size=size, volume="/",
        start_time=end - 1.0, end_time=end, bandwidth=bandwidth,
        operation=Operation(op), streams=1, tcp_buffer=65536,
    )


def _items(stream):
    return [(link, _record(end, bw, size, op))
            for link, end, bw, size, op in stream]


def _batches(items, sizes):
    out, lo, step = [], 0, 0
    while lo < len(items):
        hi = min(lo + sizes[step % len(sizes)], len(items))
        out.append(items[lo:hi])
        lo, step = hi, step + 1
    return out


def _predictions(service, links):
    return [
        (link, spec, repr(service.predict(link, size, spec=spec,
                                          now=1e6).value))
        for link in links
        for spec in ("C-AVG15", "AVG", "MED")
        for size in (10**6, 5 * 10**8)
    ]


@given(stream=observations, sizes=splits)
@settings(max_examples=40, deadline=None)
def test_batched_observe_matches_sequential(stream, sizes):
    seq = PredictionService(clock=lambda: 1e6)
    bat = PredictionService(clock=lambda: 1e6)
    items = _items(stream)
    expected = [seq.observe(link, record) for link, record in items]
    got = []
    for batch in _batches(items, sizes):
        got.extend(bat.observe_batch(batch))
    assert got == expected  # version per record, in request order
    links = sorted({link for link, _ in items})
    assert _predictions(bat, links) == _predictions(seq, links)
    assert bat.quality.status() == seq.quality.status()


@given(stream=observations, sizes=splits)
@settings(max_examples=12, deadline=None)
def test_batched_observe_leaves_identical_wal_bytes(stream, sizes):
    items = _items(stream)
    links = sorted({link for link, _ in items})
    with tempfile.TemporaryDirectory() as d1, \
            tempfile.TemporaryDirectory() as d2:
        seq = PredictionService(store=LinkStore(d1), clock=lambda: 1e6)
        bat = PredictionService(store=LinkStore(d2), clock=lambda: 1e6)
        for link, record in items:
            seq.observe(link, record)
        for batch in _batches(items, sizes):
            bat.observe_batch(batch)

        def tails(root):
            return {p.parent.name: p.read_bytes()
                    for p in sorted(Path(root).glob("links/*/tail.wal"))}

        assert tails(d2) == tails(d1)  # identical WAL bytes, pre-seal
        for link in links:
            seq.store.seal(link)
            bat.store.seal(link)
        assert tails(d2) == tails(d1)  # both truncated identically
        for link in links:
            a = seq.store.load_columns(link)
            b = bat.store.load_columns(link)
            for col_a, col_b in zip(a, b):
                assert col_a.tobytes() == col_b.tobytes()


# ----------------------------------------------------------------------
# WAL codec: vectorized scan/encode vs the struct reference
# ----------------------------------------------------------------------
_PAYLOAD = struct.Struct("<Qddqbq")

wal_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False),  # time
        st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False),  # value
        st.integers(min_value=0, max_value=2**40),         # size
        st.integers(min_value=-1, max_value=1),            # op
        st.integers(min_value=0, max_value=2**40),         # offset
    ),
    min_size=0, max_size=40,
)


def _reference_encode(seq0, rows):
    parts = []
    for i, (time, value, size, op, offset) in enumerate(rows):
        payload = _PAYLOAD.pack(seq0 + i, time, value, size, op, offset)
        parts.append(struct.pack("<I", zlib.crc32(payload)))
        parts.append(payload)
    return b"".join(parts)


@given(rows=wal_rows, seq0=st.integers(min_value=0, max_value=2**48))
@settings(max_examples=100, deadline=None)
def test_encode_columns_matches_struct_reference(rows, seq0):
    blob = wal.encode_columns(
        seq0,
        [r[0] for r in rows], [r[1] for r in rows],
        [r[2] for r in rows], [r[3] for r in rows],
        [r[4] for r in rows],
    )
    assert blob == _reference_encode(seq0, rows)


@pytest.mark.parametrize("n", [1, 16, 4096])  # an observe, a batch, a full tail
def test_encode_columns_matches_encode_at_tail_sizes(n):
    rows = [(7 + i, 1e9 + 0.25 * i, 1e6 / (i + 1), 10_000 + i, i % 2, 131 * i)
            for i in range(n)]
    blob = wal.encode_columns(7, *([r[k] for r in rows] for k in range(1, 6)))
    assert blob == wal.encode(rows) == _reference_encode(
        7, [r[1:] for r in rows])
    assert wal.scan(blob).seqs == [r[0] for r in rows]

    torn = wal.scan(blob[:-1])  # the last record is short
    assert len(torn) == n - 1
    assert torn.valid_bytes == (n - 1) * wal.RECORD_SIZE
    assert torn.torn_bytes == wal.RECORD_SIZE - 1

    for bad in sorted({0, n // 2, n - 1}):
        flipped = bytearray(blob)
        flipped[bad * wal.RECORD_SIZE + 20] ^= 0x10  # one payload bit
        scan = wal.scan(bytes(flipped))
        assert scan.seqs == [r[0] for r in rows[:bad]]
        assert scan.torn_bytes == (n - bad) * wal.RECORD_SIZE


@given(
    rows=wal_rows,
    corrupt_at=st.one_of(st.none(), st.integers(min_value=0, max_value=39)),
    flip_bit=st.integers(min_value=0, max_value=7),
    trailing=st.binary(max_size=wal.RECORD_SIZE - 1),
)
@settings(max_examples=100, deadline=None)
def test_vectorized_scan_matches_per_record_semantics(
    rows, corrupt_at, flip_bit, trailing
):
    blob = bytearray(_reference_encode(0, rows))
    if corrupt_at is not None and rows:
        pos = (corrupt_at % len(rows)) * wal.RECORD_SIZE
        blob[pos + 5] ^= 1 << flip_bit  # flip one payload bit
    blob += trailing
    scan = wal.scan(bytes(blob))
    # Reference: decode forward, stop at the first bad checksum.
    expect, pos = [], 0
    while pos + wal.RECORD_SIZE <= len(blob):
        (crc,) = struct.unpack_from("<I", blob, pos)
        payload = bytes(blob[pos + 4: pos + wal.RECORD_SIZE])
        if zlib.crc32(payload) != crc:
            break
        expect.append(_PAYLOAD.unpack(payload))
        pos += wal.RECORD_SIZE
    assert scan.valid_bytes == pos
    assert scan.torn_bytes == len(blob) - pos
    assert list(zip(scan.seqs, scan.times, scan.values, scan.sizes,
                    scan.ops, scan.offsets)) == expect
