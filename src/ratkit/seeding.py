"""Deterministic, platform-independent derivation of per-item RNG streams.

Sampling decisions are keyed by (master seed, item identity) instead of one
sequential stream, so results do not depend on iteration order or on how work
is split across workers. Python's built-in ``hash`` is salted per process and
must not be used here; we hash with BLAKE2b instead.

BLAKE2b comes from the interpreter's own ``_blake2`` module. That is the
object ``hashlib.blake2b`` names on every CPython this package supports,
since hashlib never takes BLAKE2 from OpenSSL, so the seeds are the same
bits; importing hashlib itself would map OpenSSL's libcrypto into every
ratkit process (about 3.6 MB of RSS) for nothing. CPython's ``random``
takes its ``sha512`` the same way.
"""

from __future__ import annotations

import random
import struct

from _blake2 import blake2b

_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(seed: int, *parts: str | int) -> int:
    """Mix a 64-bit master seed with identifying parts into a new 64-bit seed."""
    h = blake2b(digest_size=8)
    h.update(struct.pack("<Q", seed & _MASK64))
    for part in parts:
        data = str(part).encode("utf-8")
        h.update(struct.pack("<I", len(data)))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def derived_rng(seed: int, *parts: str | int) -> random.Random:
    """A fresh ``random.Random`` seeded from ``derive_seed(seed, *parts)``."""
    return random.Random(derive_seed(seed, *parts))
