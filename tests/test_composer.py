"""Composition rules, the infeasibility guard, and the naive baseline."""

import dataclasses
import itertools
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks import composer
from dialogtasks.composer import (
    REASON_DIFFERENT_CONTEXT,
    REASON_DUPLICATE_ITEM,
    REASON_DUPLICATE_TASK,
    REASON_LEAK,
    REASON_NO_RULE,
    REASON_TARGETS_DIFFER,
    CompositionRule,
    Rejection,
    RuleFormatError,
    compose,
    compose_corpus,
    find_rule,
    infeasibility_guard,
    load_rules,
    naive_compose,
    naive_corpus,
)
from dialogtasks.evaluate import extract_constraints
from dialogtasks.ingest import ParseError, synth_corpus
from dialogtasks.model import (
    ComponentKind,
    Dialog,
    DialogItem,
    Provenance,
    TargetItem,
    TaskInstance,
    Turn,
    instance_sort_key,
    signature_of,
    validate_instance,
)
from dialogtasks.registry import derive_corpus, derive_task
from dialogtasks.prompts import build_instruction, render

A = ComponentKind.ACTION

LONG_RESPONSE = (
    "music at the harbor was lovely and the painting market "
    "stayed open until the lantern parade began ."
)

DIALOG = Dialog(
    dialog_id="pair-1",
    dataset="hand",
    turns=(
        Turn("Speaker 1", "what did you do yesterday evening ?"),
        Turn(
            "Speaker 2",
            LONG_RESPONSE,
            (
                DialogItem(ComponentKind.STATE, "emotion", "happiness", 1),
                DialogItem(A, "dialog_act", "inform", 1),
                DialogItem(ComponentKind.EVIDENCE, "persona", "i paint landscapes .", 1),
                DialogItem(ComponentKind.EVIDENCE, "knowledge", "the parade is held yearly .", 1),
            ),
        ),
    ),
)


def _derived(name, seed=0, dialog=DIALOG, turn=1):
    return derive_task(name, dialog, turn, seed)


RULES = load_rules()


def test_packaged_rule_table_loads_ten_rules():
    assert len(RULES) == 10
    assert [r.rule_id for r in RULES] == list(range(1, 11))
    first = RULES[0]
    assert first.first.canonical_string() == "ICA-R"
    assert first.second.canonical_string() == "ICA-R"
    assert first.composed_display == "ICAA-R"
    assert first.common == ("dc", "r")
    assert first.target is ComponentKind.RESPONSE


def test_find_rule_is_order_insensitive():
    rule = RULES[2]  # ICE-R + ICA-R
    assert find_rule(rule.first, rule.second, RULES) is rule
    assert find_rule(rule.second, rule.first, RULES) is rule
    assert find_rule(rule.first, rule.first, [rule]) is None


def _hand_derived(name, item, target):
    """A one-item task at DIALOG's turn 1, for shapes no registered task has."""
    return TaskInstance(
        task_name=name,
        instruction=build_instruction(target.component, (item.component,)),
        context=DIALOG.turns[:1],
        grounding_items=(item,),
        target_item=target,
        provenance=Provenance("hand", "pair-1", "train", 1, (name,), 0),
    )


def test_composed_signature_is_union_of_groundings():
    rule = RULES[6]  # display alias ICAES-A over ICE-A + ICS-A inputs
    act = TargetItem(A, "dialog_act", "inform")
    persona = _hand_derived("persona_act", DIALOG.turns[1].items[2], act)
    emotion = _hand_derived("emotion_act", DIALOG.turns[1].items[0], act)
    assert (persona.signature, emotion.signature) == (rule.first, rule.second)
    composed = compose(persona, emotion, RULES)
    assert composed.signature.canonical_string() == "ICSE-A"
    assert composed.instruction == build_instruction(A, (ComponentKind.STATE, ComponentKind.EVIDENCE))
    assert rule.composed_display == "ICAES-A"


def test_load_rules_rejects_a_common_token_other_than_dc_or_the_target(tmp_path):
    table = tmp_path / "rules.csv"
    table.write_text("# header\n1,ICA-R,ICA-R,ICAA-R,dc;r,r\n2,ICE-R,ICE-R,ICEE-R,dc;a,r\n", encoding="utf-8")
    with pytest.raises(RuleFormatError, match="'a'") as err:
        load_rules(table)
    assert err.value.line_number == 3
    table.write_text("1,ICA-A,ICS-A,ICASA-A,DC;A,a\n", encoding="utf-8")
    assert load_rules(table)[0].common == ("DC", "A")


def test_load_rules_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "rules.csv"
    bad.write_text("1,ICA-R,ICA-R,ICAA-R,dc\n", encoding="utf-8")
    with pytest.raises(RuleFormatError) as err:
        load_rules(bad)
    assert err.value.line_number == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(RuleFormatError):
        load_rules(empty)


@pytest.mark.parametrize(
    "rows, message",
    [
        # Both rows read id 1, and row 3 could never match: find_rule returns row 1.
        (["1,ICA-R,ICA-R,ICAA-R,dc;r,r", "1,ICA-R,ICE-R,ICAE-R,dc;r,r", "2,ICA-R,ICA-R,ICAA-R,dc;r,r"],
         r"^line 3: rule id 1 repeats line 2$"),
        (["7,ICA-R,ICA-R,ICAA-R,dc;r,r", "8,ICA-R,ICE-R,ICAE-R,dc;r,r", "9,ICA-R,ICA-R,ICAA-R,dc;r,r"],
         r"^line 4: signature pair ICA-R and ICA-R repeats line 2$"),
        (["7,ICE-R,ICA-R,ICEA-R,dc;r,r", "# a comment", "", "8,ICA-R,ICE-R,ICAE-R,dc;r,r"],
         r"^line 5: signature pair ICA-R and ICE-R repeats line 2$"),
        (["7,ICA-R,ICA-R,ICAA-R,dc;r,r", "07,ICE-R,ICE-R,ICEE-R,dc;r,r"], r"^line 3: rule id 7 repeats line 2$"),
    ],
)
def test_load_rules_refuses_a_repeated_rule_id_or_signature_pair(tmp_path, rows, message):
    table = tmp_path / "rules.csv"
    table.write_text("\n".join(["# header", *rows]) + "\n", encoding="utf-8")
    with pytest.raises(RuleFormatError, match=message):
        load_rules(table)


def test_load_rules_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    table = tmp_path / "rules.csv"
    table.write_bytes(b"# header\n1,ICA-R,ICA-R,ICAA-R,dc,r\n2,ICE-R,ICE-R,ICE\xe9-R,dc,r\n")
    with pytest.raises(ParseError, match=r"^line 3: byte 0xe9 is not UTF-8") as err:
        load_rules(table)
    assert err.value.line_number == 3


def test_compose_merges_two_action_groundings():
    bw = _derived("beginswith_controlled_generation")
    ew = _derived("endswith_controlled_generation")
    composed = compose(bw, ew, RULES)
    assert not isinstance(composed, Rejection)
    assert composed.signature.canonical_string() == "ICAA-R"
    assert composed.task_name == (
        "beginswith_controlled_generation + endswith_controlled_generation"
    )
    assert composed.provenance.source_tasks == (
        "beginswith_controlled_generation",
        "endswith_controlled_generation",
    )
    assert len(composed.grounding_items) == 2
    assert composed.target_item == bw.target_item
    assert validate_instance(composed) == []
    assert "action" in composed.instruction


def test_compose_matches_the_rule_table_once_per_pair(monkeypatch):
    bw = _derived("beginswith_controlled_generation")
    ew = _derived("endswith_controlled_generation")
    lookups = []
    find_rule = composer.find_rule

    def counting_find_rule(a, b, rules):
        lookups.append((a, b))
        return find_rule(a, b, rules)

    monkeypatch.setattr(composer, "find_rule", counting_find_rule)
    assert not isinstance(compose(bw, ew, RULES), Rejection)
    assert len(lookups) == 1
    assert infeasibility_guard(bw, ew, RULES) is None
    assert len(lookups) == 2


def test_compose_is_symmetric():
    bw = _derived("beginswith_controlled_generation")
    kc = _derived("keyword_controlled_generation")
    assert compose(bw, kc, RULES) == compose(kc, bw, RULES)


def test_compose_mixed_components_orders_canonically():
    persona = _derived("persona_grounded_generation")
    bw = _derived("beginswith_controlled_generation")
    composed = compose(bw, persona, RULES)
    assert composed.signature.canonical_string() == "ICEA-R"
    assert [i.component for i in composed.grounding_items] == [ComponentKind.EVIDENCE, A]


def test_reject_different_positions():
    dialogs = synth_corpus(2, 2)
    long_dialog = max(dialogs, key=lambda d: len(d.turns))
    a = derive_task("response_generation", long_dialog, 1, 0)
    b = derive_task("response_generation_length", long_dialog, 2, 0)
    result = compose(a, b, RULES)
    assert isinstance(result, Rejection)
    assert result.reason == REASON_DIFFERENT_CONTEXT


def test_reject_tagging_vs_prediction_context():
    # Same dialog position, but tagging sees the labeled turn; contexts differ.
    tag = _derived("emotion_tagging")
    pred = _derived("act_prediction")
    result = compose(tag, pred, RULES)
    assert isinstance(result, Rejection)
    assert result.reason == REASON_DIFFERENT_CONTEXT


def test_reject_target_leaking_into_grounding():
    pred = _derived("act_prediction")
    gen = _derived("act_generation")
    for x, y in ((pred, gen), (gen, pred)):
        result = compose(x, y, RULES)
        assert isinstance(result, Rejection)
        assert result.reason == REASON_LEAK


def test_reject_differing_targets():
    emo = _derived("emotion_prediction")
    length = _derived("response_length_prediction")
    result = compose(emo, length, RULES)
    assert isinstance(result, Rejection)
    assert result.reason == REASON_TARGETS_DIFFER


def test_reject_duplicate_task():
    bw = _derived("beginswith_controlled_generation")
    result = compose(bw, bw, RULES)
    assert isinstance(result, Rejection)
    assert result.reason == REASON_DUPLICATE_TASK


def test_reject_uncovered_signature_pair():
    plain = _derived("response_generation")  # IC-R has no rule row
    bw = _derived("beginswith_controlled_generation")
    result = compose(plain, bw, RULES)
    assert isinstance(result, Rejection)
    assert result.reason == REASON_NO_RULE


def test_reject_duplicate_grounding_item():
    bw = _derived("beginswith_controlled_generation")
    clone = dataclasses.replace(
        bw,
        task_name="beginswith_clone",
        provenance=dataclasses.replace(bw.provenance, source_tasks=("beginswith_clone",)),
    )
    result = compose(bw, clone, RULES)
    assert isinstance(result, Rejection)
    assert result.reason == REASON_DUPLICATE_ITEM


def test_guard_checks_leak_before_rule_coverage():
    # act_prediction (IC-A) + act_generation (ICA-R) has no rule either, but
    # the leak is the reported reason.
    pred = _derived("act_prediction")
    gen = _derived("act_generation")
    assert infeasibility_guard(pred, gen, RULES) == REASON_LEAK


def test_compose_corpus_is_input_order_invariant():
    dialogs = synth_corpus(21, 12)
    atomics = derive_corpus(dialogs, seed=2)
    forward, reasons = compose_corpus(atomics, RULES)
    backward, _ = compose_corpus(list(reversed(atomics)), RULES)
    assert [i.to_dict() for i in forward] == [i.to_dict() for i in backward]
    assert forward
    assert set(reasons) <= {
        REASON_DIFFERENT_CONTEXT,
        REASON_LEAK,
        REASON_TARGETS_DIFFER,
        REASON_DUPLICATE_TASK,
        REASON_NO_RULE,
        REASON_DUPLICATE_ITEM,
    }
    for inst in forward:
        assert not inst.signature.is_atomic
        assert validate_instance(inst) == []
        assert inst.task_name == " + ".join(sorted(inst.provenance.source_tasks))


def test_compose_corpus_max_dim_validation():
    with pytest.raises(ValueError):
        compose_corpus([], RULES, max_dim=1)


def test_compose_corpus_stops_at_the_first_round_that_composes_nothing():
    # Rounds past the last composite compose nothing, however many max_dim allows.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from dialogtasks.composer import compose_corpus, load_rules; "
        "from dialogtasks.ingest import synth_corpus; from dialogtasks.registry import derive_corpus; "
        "atoms = derive_corpus(synth_corpus(7, 6), seed=7); "
        "got = compose_corpus(atoms, load_rules(), max_dim=10**9); "
        "assert got == compose_corpus(atoms, load_rules(), max_dim=3) and got[0]; print('same')"
    )
    package_root = Path(composer.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code, str(package_root)], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "same\n"), done.stderr


def test_naive_compose_concatenates_instructions():
    bw = _derived("beginswith_controlled_generation")
    ew = _derived("endswith_controlled_generation")
    naive = naive_compose(bw, ew)
    assert naive.style == "naive"
    assert naive.instruction == (
        bw.instruction + " and " + ew.instruction[0].lower() + ew.instruction[1:]
    )
    assert naive.grounding_items == bw.grounding_items + ew.grounding_items
    assert naive.signature.canonical_string() == "ICAA-R"
    assert naive.task_name == f"{bw.task_name} + {ew.task_name}"


def test_naive_and_standard_share_constraints_not_prompts():
    bw = _derived("beginswith_controlled_generation")
    kc = _derived("keyword_controlled_generation")
    standard = compose(bw, kc, RULES)
    naive = naive_compose(bw, kc)
    assert extract_constraints(standard) == extract_constraints(naive)
    assert render(standard, 1).input_text != render(naive, 1).input_text


def test_naive_corpus_matches_accepted_pair_count():
    dialogs = synth_corpus(31, 8)
    atomics = derive_corpus(dialogs, seed=6)
    standard, _ = compose_corpus(atomics, RULES)
    naive = naive_corpus(atomics, RULES)
    assert len(naive) == len(standard)
    assert all(inst.style == "naive" for inst in naive)


# --- The join against the all-pairs enumerator it replaced ------------------

def _oracle_positions(instances):
    groups = {}
    for inst in instances:
        if inst.signature.is_atomic and inst.style == "standard" and not inst.cot_items:
            key = (inst.provenance.dataset, inst.provenance.dialog_id, inst.provenance.target_turn_index)
            groups.setdefault(key, []).append(inst)
    for key in sorted(groups):
        yield sorted(groups[key], key=instance_sort_key)


def _oracle_dedup_key(inst):
    keys = [(i.component.value, i.kind, i.value, i.turn_index) for i in inst.grounding_items]
    return (inst.task_name, tuple(sorted(keys)))


def _all_pairs_corpus(instances, rules, max_dim=2):
    """compose_corpus as it was before the join: compose on every pair of a position."""
    reasons = Counter()
    composites = []

    def accepted(pairs, seen):
        made = []
        for x, y in pairs:
            result = compose(x, y, rules)
            if isinstance(result, Rejection):
                reasons[result.reason] += 1
                continue
            key = _oracle_dedup_key(result)
            if key not in seen:
                seen.add(key)
                made.append(result)
        return made

    for members in _oracle_positions(instances):
        seen = set()
        frontier = accepted(itertools.combinations(members, 2), seen)
        composites.extend(frontier)
        for _ in range(3, max_dim + 1):
            frontier = accepted(((composite, atom) for composite in frontier for atom in members), seen)
            composites.extend(frontier)
    composites.sort(key=instance_sort_key)
    return composites, reasons


def _all_pairs_naive(instances, rules):
    composites = [
        naive_compose(a, b)
        for members in _oracle_positions(instances)
        for a, b in itertools.combinations(members, 2)
        if infeasibility_guard(a, b, rules) is None
    ]
    composites.sort(key=instance_sort_key)
    return composites


_T0 = Turn("Speaker 1", "where did you go ?")
_T1 = Turn("Speaker 2", "to the harbor .", (DialogItem(A, "dialog_act", "inform", 1),))
_CONTEXTS = ((_T0,), (_T0, _T1))
# Target values double as grounding values, so leaks are common, and "yes"
# is the value of two targets of different kinds. The target "no" is drawn
# most often, so that pairs and triples sharing it compose.
_VALUES = ("yes", "no", "happy", "calm", "brief", "warm")
_NO = TargetItem(ComponentKind.RESPONSE, "response", "no")
_TARGETS = (
    TargetItem(ComponentKind.RESPONSE, "response", "yes"),
    _NO,
    _NO,
    _NO,
    TargetItem(A, "dialog_act", "yes"),
    TargetItem(ComponentKind.STATE, "emotion", "happy"),
)


def _fresh_copy(context):
    """A new tuple of new turns, equal to ``context`` but not identical to it."""
    return tuple(Turn(t.speaker, t.text, t.items) for t in context)


@st.composite
def _members(draw):
    context = draw(st.sampled_from(_CONTEXTS))
    if draw(st.booleans()):
        context = _fresh_copy(context)
    target = draw(st.sampled_from(_TARGETS))
    items = draw(
        st.lists(
            st.builds(
                DialogItem,
                st.sampled_from((ComponentKind.STATE, ComponentKind.EVIDENCE, A)),
                st.sampled_from(("g1", "g2")),
                st.sampled_from(_VALUES),
                st.integers(0, 1),
            ),
            max_size=1,
        )
    )
    name = draw(st.sampled_from(("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7")))
    return TaskInstance(
        task_name=name,
        instruction=build_instruction(target.component, (i.component for i in items)),
        context=context,
        grounding_items=tuple(items),
        target_item=target,
        provenance=Provenance(
            "hand", draw(st.sampled_from(("x", "y"))), "train", 1,
            (name,), draw(st.integers(0, 2**32)),
        ),
    )


def _rules_up_to_three_items():
    """Rules for every (1 item, 1 item) and (2 items, 1 item) grounding pair."""
    components = (ComponentKind.STATE, ComponentKind.EVIDENCE, A)
    ones = [(c,) for c in components]
    twos = list(itertools.combinations_with_replacement(components, 2))
    rules = []
    for target in (ComponentKind.RESPONSE, A, ComponentKind.STATE):
        for first, second in itertools.chain(
            itertools.combinations_with_replacement(ones, 2), itertools.product(twos, ones)
        ):
            a, b = signature_of(first, target), signature_of(second, target)
            rules.append(CompositionRule(len(rules) + 1, a, b, "x", ("dc",), target))
    return rules


@settings(max_examples=150, deadline=None)
@given(instances=st.lists(_members(), min_size=6, max_size=30))
def test_compose_corpus_matches_the_all_pairs_enumerator(instances):
    dialogs = {}
    for inst in instances:
        dialogs.setdefault(inst.provenance.dialog_id, []).append(inst)
    for rules, max_dim in ((RULES, 2), (_rules_up_to_three_items(), 3)):
        got, got_reasons = compose_corpus(instances, rules, max_dim=max_dim)
        want, want_reasons = _all_pairs_corpus(instances, rules, max_dim=max_dim)
        assert [i.to_dict() for i in got] == [i.to_dict() for i in want]
        # dict, not Counter: a reason counted 0 would show in the manifest.
        assert dict(got_reasons) == dict(want_reasons)
        # Each dialog's members composed alone, as run composes them.
        alone = [compose_corpus(members, rules, max_dim=max_dim) for members in dialogs.values()]
        joined = sorted((i for composites, _ in alone for i in composites), key=instance_sort_key)
        assert [i.to_dict() for i in joined] == [i.to_dict() for i in got]
        assert dict(sum((reasons for _, reasons in alone), Counter())) == dict(got_reasons)
    naive = naive_corpus(instances, RULES)
    assert [i.to_dict() for i in naive] == [i.to_dict() for i in _all_pairs_naive(instances, RULES)]


def test_only_pairs_sharing_context_and_target_are_checked(monkeypatch):
    atomics = derive_corpus(synth_corpus(31, 8), seed=6)
    joined = sum(
        1
        for members in _oracle_positions(atomics)
        for a, b in itertools.combinations(members, 2)
        if a.context == b.context and a.target_item == b.target_item
    )
    for name, run in (("compose", compose_corpus), ("infeasibility_guard", naive_corpus)):
        checked = []
        original = getattr(composer, name)

        def recording(a, b, rules, original=original, checked=checked):
            checked.append((a, b))
            return original(a, b, rules)

        monkeypatch.setattr(composer, name, recording)
        run(atomics, RULES)
        assert len(checked) == joined > 0
        for a, b in checked:
            assert a.context == b.context and a.target_item == b.target_item
