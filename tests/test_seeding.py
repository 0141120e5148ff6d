"""Stable seeds: the same integers on every platform and interpreter."""

import hashlib

from dialogtasks.seeding import stable_hash, subseed


def test_stable_hash_is_the_first_64_bits_of_sha256():
    for parts in ((), (7,), ("render", "synth/d1/t2/a+b", "a + b"), (-3, None, 2.5)):
        text = "\x1f".join(str(part) for part in parts)
        assert stable_hash(*parts) == int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


def test_pinned_values():
    assert stable_hash("compose", 1, 2) == 0x97F7B4E7892E821C
    assert subseed(7, "render", "synth/synth-00001/t1/act_prediction", "act_prediction") == 0x89E1D806D1BB0A20
