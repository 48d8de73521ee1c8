"""SHA-256 and BLAKE2b from the interpreter's own modules.

``hashlib`` takes SHA-256 from OpenSSL, and importing it maps
``libcrypto`` (3.3 MB resident) into the process.  The digests here run
over file headers of a kilobyte or less, short row runs and link names,
so CPython's built-in SHA-256 (``_sha2`` from 3.12, ``_sha256`` before)
does as well, and gives the same bytes.  BLAKE2b is ``_blake2`` in every
build; ``hashlib`` hands out that very constructor.  A name this
interpreter was built without is looked up on ``hashlib`` on first use,
so a process that never asks for it never loads OpenSSL either.  No
numpy here.
"""

from __future__ import annotations

__all__ = ["blake2b", "sha256"]

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        pass
try:
    from _blake2 import blake2b
except ImportError:
    pass


def __getattr__(name: str):
    """The fallback: ``hashlib``'s constructor for a built-in this
    interpreter lacks (OpenSSL's SHA-256; no BLAKE2b at all)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import hashlib
    return getattr(hashlib, name)
