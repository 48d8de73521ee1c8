"""Packed binary checkpoints for streaming-bank state.

A checkpoint is what makes cold-link revival O(1): restore the bank's
sufficient statistics and answer, instead of replaying history.  Three
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
* **Size.**  A link's checkpoint is most of what it costs on disk, and
  the raw body repeats itself: the layout writes the same ~40 key names
  once per series, the f8 pool holds every value three times (link
  series, class series, median heaps) and a longdouble is 6/16 padding.
  The three sections (layout, f8 pool, ld pool) are deflated as one
  stream; deflate finds all three.
* **Speed.**  Revival must stay sub-millisecond, so the whole file is
  one read, one digest check and one bounded inflate: the shared file
  envelope (:mod:`repro.envelope`), whose ``aux`` field carries the
  long-double width here.  No zip container, no pickle.

Corruption (torn write, bit rot, injected fault at the
``store.checkpoint`` site) surfaces as :class:`CorruptCheckpoint`; the
store quarantines the file and the link rebuilds from its segments —
slower, never wrong.  An intact file of an earlier format is
:class:`StaleCheckpoint`: same rebuild, but nothing is wrong with the
file, so it stays where it is until the next checkpoint replaces it.
Earlier formats are read only that far.

Longdouble width is platform-dependent; a checkpoint written on a
different ABI fails the width check and is treated as corrupt, which
degrades to a rebuild.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Callable, Dict, List, NoReturn

import numpy as np

from repro.envelope import Envelope

__all__ = ["CorruptCheckpoint", "StaleCheckpoint", "dumps", "loads"]

_MAGIC = b"RSCK"
_FORMAT = 3  # 2 stored the body raw; 1 also kept every window's entries
# Formats 1 and 2: raw body, the digest over the body alone.
_RAW_HEADER = struct.Struct("<4sHHIQQ32s")

# Layout markers: a list whose first element is one of these denotes a
# pool reference, not a literal.  The NUL prefix cannot appear in real
# state keys or labels.
_F8 = "\x00f8"  # float list
_A8 = "\x00a8"  # float64 ndarray
_LD = "\x00ld"

_NUMBERS = (int, float, np.integer, np.floating)

_LD_SIZE = np.dtype(np.longdouble).itemsize
#: Leading bytes of a longdouble that hold its value.  x87 extended
#: precision (63-bit mantissa) fills 10 of its 12 or 16; the rest is
#: whatever was in memory, and left alone it would give the same state a
#: different stored length from one write to the next.
_LD_VALUE_BYTES = 10 if np.finfo(np.longdouble).nmant == 63 else _LD_SIZE


class CorruptCheckpoint(Exception):
    """The checkpoint bytes cannot be trusted."""


class StaleCheckpoint(Exception):
    """An intact checkpoint in a format this build does not read."""


# Sections: layout (u32 length), f8 pool and ld pool (u64 lengths).
_FILE = Envelope(_MAGIC, _FORMAT, "IQQ", error=CorruptCheckpoint)


# ----------------------------------------------------------------------
# state tree -> layout + pools
# ----------------------------------------------------------------------
def _pack_dict(node, f8, ld):
    out = {}
    for key in sorted(node):
        value = node[key]
        kind = type(value)
        if kind in _LITERALS:
            out[str(key)] = value
        else:
            pack = _PACKERS.get(kind) or _packer_for(value)
            out[str(key)] = pack(value, f8, ld)
    return out


def _pack_array(node, f8, ld):
    if node.dtype != np.float64 or node.ndim != 1:
        raise TypeError(f"unsupported array: {node.dtype} {node.shape}")
    f8.append(node.astype("<f8", copy=False).tobytes())
    return [_A8, len(node)]


def _pack_sequence(node, f8, ld):
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


def _pack_longdouble(node, f8, ld):
    ld.append(node)
    return [_LD]


def _pack_literal(node, f8, ld):
    return node


def _pack_int(node, f8, ld):
    return int(node)


def _pack_float(node, f8, ld):
    return float(node)


#: Exact types the layout carries as they are.
_LITERALS = frozenset((type(None), bool, str, int, float))

#: One handler per exact node type; anything else (a subclass, another
#: numpy width) resolves through :func:`_packer_for`.  ``np.longdouble``
#: comes last so it wins where it aliases ``np.float64``.
_PACKERS: Dict[type, Callable[[Any, List[bytes], List[np.longdouble]], Any]] = {
    dict: _pack_dict,
    np.ndarray: _pack_array,
    list: _pack_sequence,
    tuple: _pack_sequence,
    np.int64: _pack_int,
    np.float64: _pack_float,
    np.longdouble: _pack_longdouble,
}


def _packer_for(node: Any):
    """The handler for a node whose exact type is not in the table."""
    for kinds, pack in (
        (dict, _pack_dict), (np.ndarray, _pack_array),
        ((list, tuple), _pack_sequence), (np.longdouble, _pack_longdouble),
        ((bool, str), _pack_literal), ((int, np.integer), _pack_int),
        ((float, np.floating), _pack_float),
    ):
        if isinstance(node, kinds):
            return pack
    raise TypeError(f"unsupported checkpoint value: {node!r}")


def dumps(state: Dict[str, Any]) -> bytes:
    """Serialize a nested state dict (see module docstring for types)."""
    f8: List[bytes] = []
    ld: List[np.longdouble] = []
    layout = json.dumps(_pack_dict(state, f8, ld),
                        separators=(",", ":")).encode()
    f8_bytes = b"".join(f8)
    ld_pool = np.array(ld, dtype=np.longdouble)
    if _LD_VALUE_BYTES < _LD_SIZE:
        ld_pool.view(np.uint8).reshape(-1, _LD_SIZE)[:, _LD_VALUE_BYTES:] = 0
    return _FILE.pack((layout, f8_bytes, ld_pool.tobytes()), aux=_LD_SIZE)


# ----------------------------------------------------------------------
# bytes -> verified sections -> state tree
# ----------------------------------------------------------------------
def _reject_raw_format(data: bytes, version: int) -> NoReturn:
    """An intact format-1/2 file is stale; anything else is corrupt."""
    if len(data) >= _RAW_HEADER.size:
        _, _, _, layout_len, f8_len, ld_len, digest = \
            _RAW_HEADER.unpack_from(data)
        body = memoryview(data)[_RAW_HEADER.size:]
        if (len(body) == layout_len + f8_len + ld_len
                and hashlib.sha256(body).digest() == digest):
            raise StaleCheckpoint(
                f"format {version}, this build reads {_FORMAT}")
    raise CorruptCheckpoint(f"unreadable as format {version}")


def _unpack_dict(node, f8, ld, cursor):
    out = {}
    for key, value in node.items():
        unpack = _UNPACKERS.get(type(value))
        out[key] = unpack(value, f8, ld, cursor) if unpack else value
    return out


def _unpack_list(node, f8, ld, cursor):
    marker = node[0] if node else None
    if marker == _LD:
        index = cursor[1]
        cursor[1] = index + 1
        if cursor[1] > len(ld):
            raise CorruptCheckpoint("longdouble pool exhausted")
        return ld[index]
    if marker == _F8 or marker == _A8:
        count = int(node[1])
        start = cursor[0]
        cursor[0] = start + count
        if cursor[0] > len(f8):
            raise CorruptCheckpoint("float pool exhausted")
        chunk = f8[start:cursor[0]]
        return chunk.tolist() if marker == _F8 else chunk
    return node


#: JSON yields dicts, lists and scalars; scalars pass through.
_UNPACKERS = {dict: _unpack_dict, list: _unpack_list}


def loads(data: bytes) -> Dict[str, Any]:
    """Deserialize; raises :class:`CorruptCheckpoint` on anything off
    and :class:`StaleCheckpoint` for an intact file of an earlier format."""
    if data[:4] == _MAGIC and data[4:6] in (b"\1\0", b"\2\0"):
        _reject_raw_format(data, data[4])
    head = _FILE.verify(data)
    layout_len, f8_len, ld_len = head.lengths
    if head.aux != _LD_SIZE:
        raise CorruptCheckpoint("longdouble width mismatch (foreign ABI)")
    if f8_len % 8 or ld_len % _LD_SIZE:
        raise CorruptCheckpoint("pool length is not a whole number of items")
    layout_bytes, f8_bytes, ld_bytes = _FILE.inflate(head)
    try:
        layout = json.loads(bytes(layout_bytes))
    except ValueError as exc:
        raise CorruptCheckpoint(f"undecodable layout: {exc}") from None
    if not isinstance(layout, dict):
        raise CorruptCheckpoint("layout root is not an object")
    f8 = np.frombuffer(f8_bytes, dtype="<f8")
    ld = np.frombuffer(ld_bytes, dtype=np.longdouble)
    cursor = [0, 0]
    try:
        state = _unpack_dict(layout, f8, ld, cursor)
    except (LookupError, TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"malformed pool reference: {exc!r}") from None
    if cursor[0] != len(f8) or cursor[1] != len(ld):
        raise CorruptCheckpoint("pool not fully consumed")
    return state
