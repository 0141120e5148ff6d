"""Prompt rendering: phrase table, layout invariants, reasoning shifts."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks import prompts, registry
from dialogtasks.composer import compose, compose_corpus, load_rules
from dialogtasks.ingest import synth_corpus
from dialogtasks.model import (
    ComponentKind,
    Dialog,
    DialogItem,
    Provenance,
    TargetItem,
    TaskInstance,
    Turn,
)
from dialogtasks.prompts import (
    NAIVE_LABELS,
    PHRASES,
    RenderOptions,
    RenderedExample,
    SECTION_CONTEXT,
    SECTION_HEADERS,
    SECTION_INSTRUCTION,
    ShiftNotSubset,
    UnknownKind,
    apply_cot,
    build_instruction,
    cot_transform,
    format_item_value,
    phrase_for_item,
    render,
    render_corpus,
)
from dialogtasks.registry import derive_task
from dialogtasks.seeding import subseed

S = ComponentKind.STATE
E = ComponentKind.EVIDENCE
A = ComponentKind.ACTION
R = ComponentKind.RESPONSE

DIALOG = Dialog(
    dialog_id="d0",
    dataset="hand",
    turns=(
        Turn("Speaker 1", "how was the flat hunt ?"),
        Turn(
            "Speaker 2",
            "the flat came furnished which was the important thing .",
            (
                DialogItem(S, "emotion", "surprise", 1),
                DialogItem(A, "dialog_act", "inform", 1),
            ),
        ),
    ),
)


def _instance(items, target, name="hand_task", instruction=None):
    return TaskInstance(
        task_name=name,
        instruction=instruction
        or build_instruction(target.component, (i.component for i in items)),
        context=DIALOG.turns[:1],
        grounding_items=tuple(items),
        target_item=target,
        provenance=Provenance("hand", "d0", "train", 1, (name,), 7),
    )


RESPONSE_TARGET = TargetItem(R, "response", "the flat came furnished .")


def test_build_instruction_exact_strings():
    assert build_instruction(R, [A]) == (
        "Provide the correct value for response fields given the "
        "dialog context and action fields."
    )
    assert build_instruction(R, []) == (
        "Provide the correct value for response fields given the "
        "dialog context fields."
    )
    assert build_instruction(A, [E, S, A]) == (
        "Provide the correct value for action fields given the "
        "dialog context, state, evidence, and action fields."
    )
    # Duplicates collapse: two action items still read "action fields" once.
    assert build_instruction(R, [A, A]) == build_instruction(R, [A])


def test_build_instruction_shares_one_string_per_shape():
    shared = build_instruction(R, [A, E])
    assert build_instruction(R, (E, A)) is shared
    assert build_instruction(R, [E, A, A]) is shared
    assert build_instruction(A, [A, E]) is not shared


def test_phrase_table_goldens():
    cases = {
        ("begins_with", "Absolutely . That's"): (
            "The response should start with this initial phrase: ``Absolutely . That's''"
        ),
        ("ends_with", "came furnished ."): (
            "The final sentence of the response should be: ``came furnished .''"
        ),
        ("keywords", "thing, flat"): (
            "The response should contain the following keywords: ``thing'' and ``flat''"
        ),
        ("length_class", "short"): "The length of the next response should be: short",
        ("emotion", "surprise"): "The emotion of the next turn should be: surprise",
        ("dialog_act", "inform"): "The dialog act of the next response should be: inform",
        ("persona", "i paint ."): "Persona of the speaker: i paint .",
        ("knowledge", "flats exist ."): "Relevant knowledge: flats exist .",
        ("draft_response", "teh flat"): (
            "The previous version of the response to be corrected: teh flat"
        ),
    }
    for (kind, value), expected in cases.items():
        item = DialogItem(A, kind, value, 1)
        assert phrase_for_item(item) == expected, kind


def test_keyword_values_render_individually_quoted():
    assert format_item_value("keywords", "thing") == "``thing''"
    assert format_item_value("keywords", "a, b, c") == "``a'', ``b'', and ``c''"
    assert format_item_value("emotion", "sad, mad") == "sad, mad"


def test_unknown_kind_raises_unless_fallback():
    item = DialogItem(A, "mystery_kind", "x", 1)
    with pytest.raises(UnknownKind):
        phrase_for_item(item)
    assert phrase_for_item(item, generic_fallback=True) == "The mystery kind is: x"


def test_phrase_and_label_tables_cover_same_kinds():
    assert set(NAIVE_LABELS) == set(PHRASES)


def test_every_grounding_family_a_task_produces_has_a_phrase_and_a_label():
    # Composites carry only their members' grounding items, so these are all
    # the kinds a run renders; none may need the generic fallback.
    grounded = {task.grounding[1] for task in registry._DEFS if task.grounding is not None}
    assert grounded and grounded <= set(PHRASES) and grounded <= set(NAIVE_LABELS)


def test_every_phrase_row_is_a_family_something_produces():
    # The adapters' and the synthetic corpus's families are all grounding
    # families of some task.
    grounded = {task.grounding[1] for task in registry._DEFS if task.grounding is not None}
    assert set(PHRASES) <= grounded


def test_render_layout_instruction_first_target_header_last():
    inst = _instance([DialogItem(A, "emotion", "surprise", 1)], RESPONSE_TARGET)
    for seed in range(12):
        ex = render(inst, seed)
        assert ex.sections[0] == (SECTION_INSTRUCTION, inst.instruction)
        assert ex.sections[-1] == (SECTION_HEADERS[R], "")
        assert ex.input_text.startswith("Instruction: Provide the correct value")
        assert ex.input_text.endswith("Response:")
        assert ex.output_text == "the flat came furnished ."


def test_render_groups_items_by_component():
    items = [
        DialogItem(A, "begins_with", "the flat", 1),
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(A, "length_class", "short", 1),
    ]
    ex = render(_instance(items, RESPONSE_TARGET), 3, RenderOptions(block_shuffle=False))
    labels = [label for label, _ in ex.sections]
    # Two action items share one "Actions:" block; the target header is "Response:".
    assert labels.count("Actions:") == 1
    assert labels.count("State:") == 1
    assert labels[-1] == "Response:"
    action_bodies = [b for l, b in ex.sections[1:-1] if l == "Actions:"]
    assert action_bodies == [
        "The response should start with this initial phrase: ``the flat''\n"
        "The length of the next response should be: short"
    ]


def test_render_middle_sections_are_seed_shuffled_but_stable():
    items = [
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(E, "persona", "i paint .", 1),
        DialogItem(A, "length_class", "short", 1),
    ]
    inst = _instance(items, RESPONSE_TARGET)
    baseline = render(inst, 0)
    assert render(inst, 0) == baseline
    orders = {tuple(l for l, _ in render(inst, seed).sections) for seed in range(40)}
    assert len(orders) > 1
    expected_multiset = sorted(l for l, _ in baseline.sections)
    for order in orders:
        assert sorted(order) == expected_multiset
        assert order[0] == SECTION_INSTRUCTION
        assert order[-1] == SECTION_HEADERS[R]


def test_render_target_header_for_action_target():
    target = TargetItem(A, "dialog_act", "inform")
    inst = _instance([DialogItem(S, "emotion", "surprise", 1)], target)
    ex = render(inst, 5)
    assert ex.input_text.endswith("Actions:")


def test_render_naive_fixed_order_inline_labels():
    items = [
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(A, "length_class", "short", 1),
    ]
    inst = _instance(items, RESPONSE_TARGET)
    naive = dataclasses.replace(inst, style="naive")
    for seed in (0, 1, 99):
        ex = render(naive, seed)
        assert "Emotion: surprise" in ex.input_text
        assert "Length: short" in ex.input_text
        assert ex.input_text == render(naive, 0).input_text  # naive ignores the seed
    lines = render(naive, 0).input_text.splitlines()
    assert lines[0].startswith("Instruction: ")
    assert lines[1] == SECTION_CONTEXT
    assert lines[-1] == "Response:"


def test_render_empty_context_keeps_bare_header():
    inst = _instance([DialogItem(A, "emotion", "surprise", 1)], RESPONSE_TARGET)
    bare = dataclasses.replace(inst, context=())
    ex = render(bare, 2)
    assert "Dialog Context:" in ex.input_text.splitlines()


def test_cot_transform_empty_shift_is_identity():
    inst = _instance([DialogItem(A, "emotion", "surprise", 1)], RESPONSE_TARGET)
    assert cot_transform(inst, []) is inst


def test_cot_transform_moves_items_to_output():
    items = [
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(A, "length_class", "short", 1),
    ]
    inst = _instance(items, RESPONSE_TARGET)
    shifted = cot_transform(inst, [items[1]])
    assert shifted.signature.canonical_string() == "ICS-R"
    assert shifted.grounding_items == (items[0],)
    assert shifted.cot_items == (items[1],)
    assert shifted.instruction == build_instruction(R, [S])
    ex = render(shifted, 4)
    assert ex.output_text == "short\nthe flat came furnished ."
    assert "length" not in ex.input_text


def test_cot_transform_orders_shift_canonically():
    items = [
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(A, "length_class", "short", 1),
        DialogItem(E, "persona", "i paint .", 1),
    ]
    inst = _instance(items, RESPONSE_TARGET)
    shifted = cot_transform(inst, [items[1], items[0], items[2]])
    assert [i.component for i in shifted.cot_items] == [S, E, A]
    assert shifted.signature.canonical_string() == "IC-R"
    assert render(shifted, 0).output_text == (
        "surprise\ni paint .\nshort\nthe flat came furnished ."
    )


def test_cot_transform_rejects_foreign_items():
    inst = _instance([DialogItem(S, "emotion", "surprise", 1)], RESPONSE_TARGET)
    with pytest.raises(ShiftNotSubset):
        cot_transform(inst, [DialogItem(A, "length_class", "short", 1)])


def test_apply_cot_modes():
    items = [
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(A, "length_class", "short", 1),
    ]
    inst = _instance(items, RESPONSE_TARGET)
    untouched = apply_cot([inst], "none", seed=0)
    assert untouched == [inst]
    shifted = apply_cot([inst], "random-1", seed=0)
    assert len(shifted[0].cot_items) == 1
    assert len(shifted[0].grounding_items) == 1
    assert apply_cot([inst], "random-1", seed=0) == shifted
    capped = apply_cot([inst], "random-5", seed=0)
    assert len(capped[0].cot_items) == 2
    with pytest.raises(ValueError):
        apply_cot([inst], "sometimes", seed=0)


def test_render_after_compose_names_all_components():
    bw = derive_task("beginswith_controlled_generation", _long_dialog(), 1, 0)
    persona = derive_task("persona_grounded_generation", _long_dialog(), 1, 0)
    composed = compose(bw, persona, load_rules())
    ex = render(composed, 9)
    assert "evidence, and action fields" in ex.input_text
    labels = [label for label, _ in ex.sections]
    assert "Evidence:" in labels and "Actions:" in labels


def _long_dialog():
    return Dialog(
        dialog_id="d9",
        dataset="hand",
        turns=(
            Turn("Speaker 1", "tell me about your weekend plans please ?"),
            Turn(
                "Speaker 2",
                "we plan to visit the gallery and then walk along the river .",
                (DialogItem(E, "persona", "i paint landscapes .", 1),),
            ),
        ),
    )


def test_render_corpus_collects_errors_and_keeps_going():
    good = _instance([DialogItem(S, "emotion", "surprise", 1)], RESPONSE_TARGET)
    bad = _instance(
        [DialogItem(S, "mystery_kind", "x", 1)], RESPONSE_TARGET, name="broken_task"
    )
    rendered, errors = render_corpus([bad, good], seed=0)
    assert [r.task_name for r in rendered] == ["hand_task"]
    assert len(errors) == 1
    assert errors[0]["task_name"] == "broken_task"
    assert errors[0]["error"].startswith("UnknownKind")
    fallback, errs = render_corpus([bad], seed=0, options=RenderOptions(generic_fallback=True))
    assert errs == [] and "The mystery kind is: x" in fallback[0].input_text


def test_render_corpus_deterministic():
    items = [
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(A, "length_class", "short", 1),
    ]
    insts = [_instance(items, RESPONSE_TARGET, name=f"t{i}") for i in range(4)]
    first, _ = render_corpus(insts, seed=11)
    second, _ = render_corpus(insts, seed=11)
    assert first == second
    assert all(r.to_record()["input"] for r in first)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_render_section_multiset_is_seed_invariant(seed):
    items = [
        DialogItem(S, "emotion", "surprise", 1),
        DialogItem(E, "knowledge", "flats exist .", 1),
        DialogItem(A, "length_class", "short", 1),
        DialogItem(A, "begins_with", "the flat", 1),
    ]
    inst = _instance(items, RESPONSE_TARGET)
    opts = RenderOptions(block_shuffle=False)
    baseline = sorted(render(inst, 0, opts).sections)
    assert sorted(render(inst, seed, opts).sections) == baseline


# --- Seeding only where a draw reaches the output ---------------------------

def _always_seeding_apply_cot(instances, k, seed):
    """apply_cot as it was: one seeded Random per instance, whatever K is."""
    out = []
    for inst in instances:
        rng = random.Random(subseed(seed, "cot", inst.provenance.key(), inst.task_name))
        take = min(k, len(inst.grounding_items))
        shift = rng.sample(list(inst.grounding_items), take) if take else []
        out.append(cot_transform(inst, shift))
    return out


def _always_seeding_render_corpus(instances, seed, options):
    """render_corpus as it was: render seeds a Random even with no grounding."""
    rendered = []
    for inst in instances:
        inst_seed = subseed(seed, "render", inst.provenance.key(), inst.task_name)
        rng = random.Random(inst_seed)
        middle = [(SECTION_CONTEXT, prompts._context_body(inst))]
        middle.extend(prompts._grounding_blocks(inst, rng, options))
        rng.shuffle(middle)
        header = (SECTION_HEADERS[inst.signature.target], "")
        sections = [(SECTION_INSTRUCTION, inst.instruction), *middle, header]
        rendered.append(
            RenderedExample(
                input_text=prompts._assemble(sections),
                output_text=prompts._output_text(inst),
                sections=tuple(sections),
                task_name=inst.task_name,
                signature=inst.signature.canonical_string(),
                provenance=inst.provenance,
            )
        )
    return rendered


# Two items share a component, so block shuffles draw too.
_COT_ITEMS = (
    DialogItem(A, "begins_with", "the flat", 1),
    DialogItem(S, "emotion", "surprise", 1),
    DialogItem(A, "ends_with", "thing .", 1),
)


def _cot_instances(n_items):
    return [
        _instance(items, RESPONSE_TARGET, name=f"task{i}")
        for i, items in enumerate(
            itertools.chain(
                itertools.permutations(_COT_ITEMS, n_items),
                itertools.combinations(_COT_ITEMS, n_items),
            )
        )
    ]


@pytest.mark.parametrize("n_items", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_apply_cot_matches_always_seeding(n_items, k):
    instances = _cot_instances(n_items)
    for seed in range(4):
        got = apply_cot(instances, f"random-{k}", seed)
        assert got == _always_seeding_apply_cot(instances, k, seed)


@pytest.mark.parametrize("n_items", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_render_corpus_matches_always_seeding(n_items, k):
    instances = apply_cot(_cot_instances(n_items), f"random-{k}", 5)
    for seed in range(4):
        for options in (RenderOptions(), RenderOptions(block_shuffle=False)):
            rendered, errors = render_corpus(instances, seed, options)
            assert errors == []
            assert rendered == _always_seeding_render_corpus(instances, seed, options)


def _synth_instances():
    """The atoms and composites of a small synthetic corpus, as the pipeline hands them to cot."""
    atoms = registry.derive_corpus(synth_corpus(3, 6), seed=3)
    return atoms + compose_corpus(atoms, load_rules())[0]


@pytest.mark.parametrize("k", [1, 2])
def test_apply_cot_draws_as_a_fresh_random_per_instance(k):
    # apply_cot re-seeds one Random per instance; over a whole corpus it must
    # draw what a new Random of each instance's seed draws.
    instances = _synth_instances()
    for seed in (0, 7):
        assert apply_cot(instances, f"random-{k}", seed) == _always_seeding_apply_cot(instances, k, seed)


def test_render_corpus_draws_as_a_fresh_random_per_instance():
    instances = apply_cot(_synth_instances(), "random-1", 7)
    rendered, errors = render_corpus(instances, 7)
    assert errors == []
    assert rendered == _always_seeding_render_corpus(instances, 7, RenderOptions())


def test_render_corpus_hands_make_each_instance_and_its_sections():
    instances = apply_cot(_synth_instances(), "random-1", 7)
    made, errors = render_corpus(instances, 7, make=lambda inst, sections: (inst, tuple(sections)))
    assert errors == []
    assert made == [(inst, example.sections) for inst, example in zip(instances, render_corpus(instances, 7)[0])]


@pytest.mark.parametrize("mode", ["random--1", "random-", "random-x", "random-1.5", "Random-1", "none ", ""])
def test_bad_cot_mode_names_the_mode(mode):
    with pytest.raises(ValueError, match="cot mode") as err:
        apply_cot([], mode, seed=0)
    assert repr(mode) in str(err.value)


def test_random_zero_is_the_identity():
    inst = _instance(list(_COT_ITEMS), RESPONSE_TARGET)
    assert apply_cot([inst], "random-0", seed=3)[0] is inst
