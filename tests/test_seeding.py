"""Stable seeds: the same integers on every platform and interpreter."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks.seeding import stable_hash, subseed


def test_stable_hash_is_the_first_64_bits_of_sha256():
    for parts in ((), (7,), ("render", "synth/d1/t2/a+b", "a + b"), (-3, None, 2.5)):
        text = "\x1f".join(str(part) for part in parts)
        assert stable_hash(*parts) == int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


def test_pinned_values():
    assert stable_hash("compose", 1, 2) == 0x97F7B4E7892E821C
    assert subseed(7, "render", "synth/synth-00001/t1/act_prediction", "act_prediction") == 0x89E1D806D1BB0A20


# Seeds and stages from small pools, so that calls interleave (seed, stage)
# pairs that repeat, plus any integer or text. True and 1 are equal keys
# whose str differs, as are the stage "1" and the seed 1.
_SEEDS = st.one_of(st.sampled_from([0, 1, True, 7, -1, 2**64, 2**64 + 1, -(2**70)]), st.integers())
_STAGES = st.one_of(st.sampled_from(["cot", "render", "derive", "1", "a\x1fb", "rénder"]), st.text())
_PARTS = st.one_of(
    st.integers(),
    st.text(alphabet=st.one_of(st.characters(codec="utf-8"), st.just("\x1f"))),
    st.tuples(st.integers(), st.text()),
)


@settings(max_examples=300, deadline=None)
@given(calls=st.lists(st.tuples(_SEEDS, _STAGES, st.lists(_PARTS, max_size=4)), min_size=1, max_size=12))
def test_subseed_is_the_stable_hash_of_seed_stage_and_parts(calls):
    for seed, stage, parts in calls:
        assert subseed(seed, stage, *parts) == stable_hash(seed, stage, *parts)
