"""Seed plumbing: every random decision flows through an explicit generator."""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError


def as_generator(seed) -> np.random.Generator:
    """Coerce ``seed`` (None, int, SeedSequence or Generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:  # e.g. a negative integer
        raise ParameterError(f"bad seed {seed!r}: {exc}") from None


def derive_seed(master_seed: int, *parts) -> np.random.SeedSequence:
    """Deterministic per-task seed from a master seed and identifying parts.

    Strings are folded in via crc32 so the derivation is stable across
    processes (unlike ``hash``).
    """
    entropy = [int(master_seed) & 0xFFFFFFFF]
    for part in parts:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return np.random.SeedSequence(entropy)
