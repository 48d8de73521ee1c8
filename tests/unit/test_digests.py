"""``repro.digests``: the interpreter's own SHA-256 and BLAKE2b give
``hashlib``'s bytes, and a build without them falls back to ``hashlib``.

Every file header, checkpoint, legacy segment, row digest and shard
placement is one of these digests, so each is pinned against
``hashlib`` at every size the tree asks for.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import digests
from repro.envelope import Envelope
from repro.service.state import row_digest
from repro.store import checkpoint as ck
from tests.unit.test_store import small_bank

REPO = Path(__file__).resolve().parents[2]
INPUTS = (b"", b"abc", bytes(range(256)) * 5)   # up to a header's kilobyte
IDS = ("empty", "abc", "1280B")


def test_both_names_are_the_interpreters_own():
    # Bound at import, never through hashlib's (OpenSSL's) constructors.
    assert {"sha256", "blake2b"} <= vars(digests).keys()
    assert digests.sha256.__module__ in ("_sha2", "_sha256")
    assert digests.blake2b.__module__ == "_blake2"
    with pytest.raises(AttributeError, match="md5"):
        digests.md5


@pytest.mark.parametrize("data", INPUTS, ids=IDS)
def test_sha256_gives_hashlibs_bytes(data):
    ours, theirs = digests.sha256(data), hashlib.sha256(data)
    assert ours.digest() == theirs.digest()
    assert ours.hexdigest() == theirs.hexdigest()
    assert ours.digest_size == 32


@pytest.mark.parametrize("size", [8, 16, 32])   # shard hash, rows, default
@pytest.mark.parametrize("data", INPUTS, ids=IDS)
def test_blake2b_gives_hashlibs_bytes(data, size):
    ours = digests.blake2b(data, digest_size=size)
    assert ours.digest() == hashlib.blake2b(data, digest_size=size).digest()
    assert ours.digest_size == size


def test_a_running_digest_stays_hashlibs_across_updates():
    # sha256 over a memoryview, as Envelope.verify feeds it ...
    blob = memoryview(bytes(range(256)) * 4)
    ours = digests.sha256(blob[:100])
    ours.update(blob[100:])
    assert ours.digest() == hashlib.sha256(bytes(blob)).digest()
    # ... and the row digest, continued with into= run by run.
    i = np.arange(40)
    times, values, sizes = 1e6 + 60.0 * i, 1e5 + 7.0 * i, 10 ** 6 * (i + 1)
    running = row_digest()
    for start in range(0, 40, 16):
        end = start + 16
        row_digest(times[start:end], values[start:end], sizes[start:end],
                   into=running)
    expected = hashlib.blake2b(digest_size=16)
    for row in zip(times.tolist(), values.tolist(), sizes.tolist()):
        expected.update(struct.pack("<ddq", *row))
    assert running.digest() == expected.digest()
    assert row_digest(times, values, sizes).digest() == expected.digest()


_WITHOUT_BUILT_INS = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = sys.modules["_blake2"] = None

from repro import digests
from repro.envelope import Envelope
from repro.store import checkpoint as ck
from tests.unit.test_store import small_bank

FILE = Envelope(b"TEST", 1, "II", meta="Q")
blob = FILE.pack((b"abc", b"de"), meta=(7,), aux=3)
head = FILE.verify(blob)
assert [bytes(s) for s in FILE.inflate(head)] == [b"abc", b"de"]
checkpoint = ck.dumps({"meta": {"classification": b"x" * 16, "n": 3},
                       "bank": small_bank(rows=3).state()})
state = ck.loads(checkpoint)
print(json.dumps({
    "sha256": digests.sha256.__module__,
    "envelope": blob.hex(), "checkpoint": checkpoint.hex(),
    "meta": [state["meta"]["classification"].decode(), state["meta"]["n"]],
}))
"""


def test_a_build_without_the_built_ins_falls_back_to_hashlib():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), str(REPO)]))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_BUILT_INS], env=env, cwd=str(REPO),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["sha256"] not in ("_sha2", "_sha256")   # hashlib's own
    # The same bytes as the built-ins write here, and they read back.
    blob = Envelope(b"TEST", 1, "II", meta="Q").pack(
        (b"abc", b"de"), meta=(7,), aux=3)
    assert seen["envelope"] == blob.hex()
    assert seen["checkpoint"] == ck.dumps(
        {"meta": {"classification": b"x" * 16, "n": 3},
         "bank": small_bank(rows=3).state()}).hex()
    assert seen["meta"] == ["x" * 16, 3]
