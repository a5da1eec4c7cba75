"""Keyed random streams.

Every consumer of randomness asks for a stream keyed by
(master seed, purpose tag, replicate index).  Streams are SFC64
generators seeded through a SeedSequence over that triple, so results never
depend on scheduling, thread count, or call order.  A stream is only ever
read from its start, so no counter-based random access is needed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .model import _whole

__all__ = ["stream", "purpose_code"]

_MASK64 = (1 << 64) - 1


def purpose_code(tag: str) -> int:
    """Stable 64-bit code for a purpose tag."""
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, purpose: str, replicate: int = 0) -> np.random.Generator:
    """The stream keyed by (seed, purpose, replicate); seed and replicate, whole numbers, are taken mod 2**64."""
    ss = np.random.SeedSequence(
        entropy=(_whole(seed, "seed") & _MASK64, purpose_code(purpose), _whole(replicate, "replicate") & _MASK64)
    )
    return np.random.Generator(np.random.SFC64(ss))
