"""The one file envelope: a verified header around one deflated body.

Checkpoints and sealed segments are each *sections of raw bytes plus a
few integers*, written once and read whole.  They share this container
instead of each rolling their own::

    magic 4s | format u16 | aux u16 | stored length u32
    | one raw length per section | the kind's own fields      <- "fields"
    the first 16 bytes of SHA-256 over the fields and stored  <- digest
    one raw deflate stream of the sections, concatenated      <- "stored"

The digest is the integrity check, so the stream carries none of its
own: no zlib header, no Adler-32.  Reading is two steps so a caller can
stop after the first: :meth:`Envelope.verify` checks magic, format,
total length and the digest *before* anything is inflated or parsed and
hands back the header's integers; :meth:`Envelope.inflate` inflates no
further than the header declared and requires the stream to end exactly
there.  Any disagreement raises the kind's ``error``; nothing else
escapes.  :class:`LegacyEnvelope` reads the formats earlier builds wrote
(a 32-byte SHA-256, a zlib stream) and writes none.
:func:`atomic_write` and :func:`quarantine` are how such a file arrives
and how one that failed verification leaves; :func:`foreign_format`
tells a file of a format the caller does not read from a damaged one of
a format it does.  No numpy here.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from contextlib import suppress
from itertools import accumulate
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Type

from repro.digests import sha256

__all__ = ["CorruptFile", "Envelope", "LegacyEnvelope", "Verified",
           "atomic_write", "foreign_format", "quarantine"]

#: The deflate level every stream is written at (zlib's own default;
#: inflating does not need it).  Checkpoints store about 9 % less than
#: at level 1 for some 15 us a write, segments 3-4 % less; 7-9 store
#: 0.2 % less again for up to twice the time.
_LEVEL = 6
_FORMAT_FIELD = struct.Struct("<H")


class CorruptFile(ValueError):
    """The bytes cannot be trusted (the default ``error`` of a kind)."""


class Verified(NamedTuple):
    """A header whose digest matched; the stream is still deflated."""

    aux: int
    lengths: Tuple[int, ...]
    meta: tuple
    stream: memoryview


class Envelope:
    """One kind of file: its magic, format and header layout.

    ``lengths`` is one ``struct`` code per section (the width its raw
    length is stored in), ``meta`` the codes of the kind's own fields.
    """

    #: Leading bytes of the SHA-256 the header keeps, and the stream's
    #: window bits (negative: raw deflate, no wrapper).
    digest_size, wbits = 16, -zlib.MAX_WBITS

    def __init__(self, magic: bytes, version: int, lengths: str,
                 meta: str = "", error: Type[Exception] = CorruptFile) -> None:
        self.magic, self.version, self.error = magic, version, error
        self._sections = len(lengths)
        self._fields = struct.Struct("<4sHHI" + lengths + meta)
        self._size = self._fields.size + self.digest_size

    def _digest(self, fields, stored) -> bytes:
        digest = sha256(fields)
        digest.update(stored)
        return digest.digest()[:self.digest_size]

    def pack(self, sections: Sequence[bytes], meta: Sequence = (),
             aux: int = 0) -> bytes:
        deflater = zlib.compressobj(_LEVEL, zlib.DEFLATED, self.wbits)
        stored = deflater.compress(b"".join(sections)) + deflater.flush()
        try:
            fields = self._fields.pack(
                self.magic, self.version, aux, len(stored),
                *map(len, sections), *meta)
        except struct.error as exc:
            raise ValueError(f"does not fit the header: {exc}") from None
        return b"".join((fields, self._digest(fields, stored), stored))

    def verify(self, data: bytes) -> Verified:
        """Check everything that can be checked without inflating."""
        fields, size = self._fields, self._size
        if len(data) < fields.size:
            raise self.error("short header")
        magic, version, aux, stored_len, *rest = fields.unpack_from(data)
        if magic != self.magic:
            raise self.error("bad magic")
        if version != self.version:
            raise self.error(
                f"format {version}, this build reads {self.version}")
        if len(data) != size + stored_len:
            raise self.error(
                f"length mismatch: {len(data)} != {size + stored_len}")
        view = memoryview(data)
        if self._digest(view[:fields.size], view[size:]) != view[fields.size:size]:
            raise self.error("digest mismatch")
        return Verified(aux, tuple(rest[:self._sections]),
                        tuple(rest[self._sections:]), view[size:])

    def inflate(self, verified: Verified) -> List[memoryview]:
        """The sections, inflated no further than the header declared."""
        lengths = verified.lengths
        inflater = zlib.decompressobj(self.wbits)
        try:
            # One byte of slack lets the stream reach its end marker; a
            # stream that fills it inflates to more than it declared.
            body = inflater.decompress(verified.stream, sum(lengths) + 1)
        except (zlib.error, OverflowError) as exc:
            raise self.error(f"undecodable stream: {exc}") from None
        if len(body) != sum(lengths) or not inflater.eof or inflater.unused_data:
            raise self.error("stream disagrees with its declared lengths")
        view = memoryview(body)
        return [view[end - length:end]
                for end, length in zip(accumulate(lengths), lengths)]


class LegacyEnvelope(Envelope):
    """A format earlier builds wrote and this one reads, never writes:
    the whole 32-byte SHA-256 and a zlib stream, whose Adler-32 repeats
    what the digest covers."""

    digest_size, wbits = 32, zlib.MAX_WBITS

    def pack(self, sections: Sequence[bytes], meta: Sequence = (),
             aux: int = 0) -> bytes:
        raise TypeError(
            f"{self.magic!r} format {self.version} is read, never written")


def foreign_format(data: bytes, readable: Sequence[Envelope]) -> Optional[int]:
    """The format ``data`` names when it is none of ``readable``'s (one
    kind, one magic), else None.

    A file of a foreign format is another build's, older or newer, and
    not this one's to judge, so the caller leaves it where it lies: a
    derived file (a checkpoint) is stale and rebuilt from what it
    was derived from, and primary data (a segment) waits for a build
    that reads it.  The exception is a file of a ``readable`` format
    whose format field flipped: put back, the field makes it verify, and
    it is corrupt (None here; the caller's ``verify`` then says so).
    """
    if len(data) < 6 or data[:4] != readable[0].magic:
        return None
    version = _FORMAT_FIELD.unpack_from(data, 4)[0]
    if version in [envelope.version for envelope in readable]:
        return None
    for envelope in readable:
        try:
            envelope.verify(b"".join(
                (data[:4], _FORMAT_FIELD.pack(envelope.version), data[6:])))
        except envelope.error:
            continue
        return None
    return version


def atomic_write(path: Path, data: bytes, fsync: bool = False) -> None:
    """Temp file beside ``path``, optional fsync of file and directory,
    ``os.replace``.  Raises ``OSError`` on refusal, leaving nothing
    behind; a ``*.tmp`` only a SIGKILL can strand is never the only copy
    of anything (:class:`repro.store.LinkStore` removes those it finds).
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise
    if fsync:  # make the rename durable; not every filesystem allows it
        with suppress(OSError):
            fd = os.open(str(path.parent), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def quarantine(path: Path) -> Optional[Path]:
    """Rename ``x`` to ``x.quarantined`` (replacing any earlier one);
    fall back to deletion, and return ``None`` when the filesystem
    refuses both (read-only media: the file just keeps failing)."""
    target = path.with_name(path.name + ".quarantined")
    try:
        os.replace(path, target)
        return target
    except OSError:
        with suppress(OSError):
            path.unlink(missing_ok=True)
        return None
