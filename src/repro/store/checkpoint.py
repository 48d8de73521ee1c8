"""Packed binary checkpoints for streaming-bank state.

A checkpoint is what makes cold-link revival O(1): restore the bank's
sufficient statistics and answer, instead of replaying history.  Two
requirements shape the format:

* **Exactness.**  The evict→revive parity gate demands bit-identical
  answers, and bank state mixes python scalars, float64 arrays (each
  series' ``(times, values)`` column, once), float lists (heaps) and
  ``np.longdouble`` accumulators.  JSON cannot represent the 80-bit
  sums, so values are split: structure and scalars go in a JSON
  *layout*, while arrays, float lists and longdouble scalars live in
  raw typed pools the layout points into (``tobytes``/``frombuffer``
  round-trips are exact by construction).  Arrays enter the pool as
  bytes and come back as arrays; lists come back as lists.
* **Speed.**  Revival must stay sub-millisecond, so the whole file is
  one read: a fixed header, the layout, and the two pools, with a
  SHA-256 over all three.  No zip container, no pickle.

Corruption (torn write, bit rot, injected fault at the
``store.checkpoint`` site) surfaces as :class:`CorruptCheckpoint`; the
store quarantines the file and the link rebuilds from its segments —
slower, never wrong.  An intact file in another format version is
:class:`StaleCheckpoint`: same rebuild, but nothing is wrong with the
file, so it stays where it is until the next checkpoint replaces it.

Longdouble width is platform-dependent; a checkpoint written on a
different ABI fails the pool-length check and is treated as corrupt,
which degrades to a rebuild.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = ["CorruptCheckpoint", "StaleCheckpoint", "dumps", "loads"]

_MAGIC = b"RSCK"
_FORMAT = 2  # 1 held every window's (t, v) entries as separate float lists
# magic | format u16 | ld itemsize u16 | layout len u32 | f8 len u64 | ld len u64 | sha256
_HEADER = struct.Struct("<4sHHIQQ32s")

# Layout markers: a list whose first element is one of these denotes a
# pool reference, not a literal.  The NUL prefix cannot appear in real
# state keys or labels.
_F8 = "\x00f8"  # float list
_A8 = "\x00a8"  # float64 ndarray
_LD = "\x00ld"

_NUMBERS = (int, float, np.integer, np.floating)


class CorruptCheckpoint(Exception):
    """The checkpoint bytes cannot be trusted."""


class StaleCheckpoint(Exception):
    """An intact checkpoint in a format this build does not read."""


def _pack(node: Any, f8: List[bytes], ld: List[np.longdouble]) -> Any:
    if isinstance(node, dict):
        return {str(key): _pack(node[key], f8, ld) for key in sorted(node)}
    if isinstance(node, np.ndarray):
        if node.dtype != np.float64 or node.ndim != 1:
            raise TypeError(f"unsupported array: {node.dtype} {node.shape}")
        f8.append(node.astype("<f8", copy=False).tobytes())
        return [_A8, len(node)]
    if isinstance(node, (list, tuple)):
        items = list(node)
        kinds = set(map(type, items))
        if all(issubclass(k, _NUMBERS) and k is not bool for k in kinds):
            f8.append(np.array(items, dtype="<f8").tobytes())
            return [_F8, len(items)]
        if kinds == {str}:
            if any(x.startswith("\x00") for x in items):
                raise TypeError("string values may not start with NUL")
            return items
        raise TypeError(f"unsupported list content: {items!r}")
    if isinstance(node, np.longdouble):
        ld.append(node)
        return [_LD]
    if node is None or isinstance(node, (bool, str)):
        return node
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, (float, np.floating)):
        return float(node)
    raise TypeError(f"unsupported checkpoint value: {node!r}")


def _unpack(node: Any, f8: np.ndarray, ld: np.ndarray,
            cursor: List[int]) -> Any:
    if isinstance(node, dict):
        return {key: _unpack(value, f8, ld, cursor) for key, value in node.items()}
    if isinstance(node, list):
        if node and node[0] in (_F8, _A8):
            count = int(node[1])
            start = cursor[0]
            cursor[0] = start + count
            if cursor[0] > len(f8):
                raise CorruptCheckpoint("float pool exhausted")
            chunk = f8[start:cursor[0]]
            return chunk.tolist() if node[0] == _F8 else chunk
        if node and node[0] == _LD:
            index = cursor[1]
            cursor[1] = index + 1
            if cursor[1] > len(ld):
                raise CorruptCheckpoint("longdouble pool exhausted")
            return ld[index]
        return node
    return node


def dumps(state: Dict[str, Any]) -> bytes:
    """Serialize a nested state dict (see module docstring for types)."""
    f8: List[bytes] = []
    ld: List[np.longdouble] = []
    layout = json.dumps(_pack(state, f8, ld), separators=(",", ":")).encode()
    f8_bytes = b"".join(f8)
    ld_bytes = np.asarray(ld, dtype=np.longdouble).tobytes()
    digest = hashlib.sha256(layout + f8_bytes + ld_bytes).digest()
    header = _HEADER.pack(
        _MAGIC, _FORMAT, np.dtype(np.longdouble).itemsize,
        len(layout), len(f8_bytes), len(ld_bytes), digest,
    )
    return b"".join((header, layout, f8_bytes, ld_bytes))


def _split(data: bytes) -> Tuple[bytes, bytes, bytes]:
    if len(data) < _HEADER.size:
        raise CorruptCheckpoint("short header")
    magic, version, ld_size, layout_len, f8_len, ld_len, digest = \
        _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CorruptCheckpoint("bad magic")
    if ld_size != np.dtype(np.longdouble).itemsize:
        raise CorruptCheckpoint("longdouble width mismatch (foreign ABI)")
    end = _HEADER.size + layout_len + f8_len + ld_len
    if len(data) != end:
        raise CorruptCheckpoint(f"length mismatch: {len(data)} != {end}")
    body = data[_HEADER.size:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpoint("digest mismatch")
    if version != _FORMAT:
        raise StaleCheckpoint(f"format {version}, this build reads {_FORMAT}")
    layout = body[:layout_len]
    f8_bytes = body[layout_len:layout_len + f8_len]
    ld_bytes = body[layout_len + f8_len:]
    return layout, f8_bytes, ld_bytes


def loads(data: bytes) -> Dict[str, Any]:
    """Deserialize; raises :class:`CorruptCheckpoint` on anything off
    and :class:`StaleCheckpoint` for an intact file of another format."""
    layout_bytes, f8_bytes, ld_bytes = _split(data)
    try:
        layout = json.loads(layout_bytes)
    except ValueError as exc:
        raise CorruptCheckpoint(f"undecodable layout: {exc}") from None
    f8 = np.frombuffer(f8_bytes, dtype="<f8")
    ld = np.frombuffer(ld_bytes, dtype=np.longdouble)
    cursor = [0, 0]
    state = _unpack(layout, f8, ld, cursor)
    if cursor[0] != len(f8) or cursor[1] != len(ld):
        raise CorruptCheckpoint("pool not fully consumed")
    if not isinstance(state, dict):
        raise CorruptCheckpoint("layout root is not an object")
    return state
