"""Composition rules, the infeasibility guard, and the naive baseline."""

import dataclasses

import pytest

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
    infeasibility_guard,
    load_rules,
    naive_compose,
    naive_corpus,
)
from dialogtasks.evaluate import extract_constraints
from dialogtasks.ingest import synth_corpus
from dialogtasks.model import ComponentKind, Dialog, DialogItem, Turn, validate_instance
from dialogtasks.registry import derive_corpus, derive_task
from dialogtasks.prompts import render

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


def test_rule_matching_is_order_insensitive():
    rule = RULES[2]  # ICE-R + ICA-R
    assert rule.matches(rule.first, rule.second)
    assert rule.matches(rule.second, rule.first)
    assert not rule.matches(rule.first, rule.first)


def test_rule_composed_signature_is_union():
    rule = RULES[6]  # display alias ICAES-A over ICE-A + ICS-A inputs
    composed = rule.composed(rule.first, rule.second)
    assert composed.canonical_string() == "ICSE-A"
    assert rule.composed_display == "ICAES-A"


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
        assert inst.signature.is_compositional
        assert validate_instance(inst) == []
        assert inst.task_name == " + ".join(sorted(inst.provenance.source_tasks))


def test_compose_corpus_max_dim_validation():
    with pytest.raises(ValueError):
        compose_corpus([], RULES, max_dim=1)


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


def test_rejection_records_task_names():
    bw = _derived("beginswith_controlled_generation")
    result = compose(bw, bw, RULES)
    assert (result.first_task, result.second_task) == (bw.task_name, bw.task_name)
