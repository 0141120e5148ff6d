"""Stable sub-seed derivation so unrelated pipeline stages draw independent randomness."""

from __future__ import annotations

import hashlib


def stable_hash(*parts: object) -> int:
    """Platform-independent 64-bit hash of the string forms of the parts."""
    text = "\x1f".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def subseed(seed: int, stage: str, *parts: object) -> int:
    """Derive the seed one stage uses for one work item.

    Keyed by (global seed, stage name, item identity), so adding or removing
    one item never perturbs the randomness any other item sees.
    """
    return stable_hash(seed, stage, *parts)
