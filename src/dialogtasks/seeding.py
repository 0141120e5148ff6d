"""Stable sub-seed derivation so unrelated pipeline stages draw independent randomness."""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any


def stable_hash(*parts: object) -> int:
    """Platform-independent 64-bit hash of the string forms of the parts."""
    text = "\x1f".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@lru_cache(maxsize=64, typed=True)
def _stage_state(seed: int, stage: str) -> Any:
    """A sha256 state that has hashed stable_hash's text up to a stage's parts; copy it, never update it."""
    return hashlib.sha256(f"{seed!s}\x1f{stage!s}\x1f".encode("utf-8"))


def subseed(seed: int, stage: str, *parts: object) -> int:
    """Derive the seed one stage uses for one work item: stable_hash(seed, stage, *parts).

    Keyed by (global seed, stage name, item identity), so adding or removing
    one item never perturbs the randomness any other item sees. Each
    (seed, stage) hashes its part of the text once: a call copies that
    state and hashes only its own parts.
    """
    if not parts:
        return stable_hash(seed, stage)
    state = _stage_state(seed, stage).copy()
    state.update("\x1f".join(map(str, parts)).encode("utf-8"))
    return int.from_bytes(state.digest()[:8], "big")
