"""Seed plumbing: every component draws from a named substream of one seed."""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError


def named_rng(seed: int, label: str) -> np.random.Generator:
    """Generator for the substream of ``seed`` identified by ``label``.

    The same (seed, label) pair always yields the same stream, and distinct
    labels yield independent streams, so components seeded from one CLI-level
    seed cannot perturb each other's draws. A seed outside ``[0, 2**64)``
    raises ConfigError: no two seeds share a stream.
    """
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    entropy = [seed, *words]
    return np.random.default_rng(np.random.SeedSequence(entropy))
