"""Constraint extraction, boolean checks, overlap metrics, corpus scoring."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks import evaluate
from dialogtasks.evaluate import (
    _TEXT_LIST,
    BOOLEAN_KINDS,
    CONSTRAINT_KINDS,
    Constraint,
    ConstraintSpec,
    bleu2,
    check_constraint,
    constraint_to_dict,
    corpus_bleu2,
    extract_constraints,
    rouge_l,
    score_corpus,
    split_keyword_list,
)
from dialogtasks.model import ComponentKind, Dialog, DialogItem, SchemaError, Turn
from dialogtasks.registry import REGISTRY, derive_task

S = ComponentKind.STATE
A = ComponentKind.ACTION

DIALOG = Dialog(
    dialog_id="d0",
    dataset="hand",
    turns=(
        Turn("Speaker 1", "what did the agency say about the flat ?"),
        Turn(
            "Speaker 2",
            "they said the flat came furnished and the rent includes heating .",
            (
                DialogItem(S, "emotion", "happiness", 1),
                DialogItem(A, "dialog_act", "inform", 1),
            ),
        ),
    ),
)


# --- metric goldens ---------------------------------------------------------

def test_rouge_l_hand_golden_is_exact():
    # lcs("a b c", "a c") = 2; F1 = 2*2 / (3 + 2) = 0.8 exactly.
    assert rouge_l("a b c", "a c") == 0.8
    assert rouge_l("hello", "hello") == 1.0
    assert rouge_l("a b", "c d") == 0.0
    assert rouge_l("", "a b") == 0.0
    assert rouge_l("a b", "") == 0.0


def test_rouge_l_beta_weighting():
    # beta=2 weights recall: (1+4)*2 / (3 + 4*2) = 10/11.
    assert rouge_l("a b c", "a c", beta=2.0) == pytest.approx(10 / 11, abs=1e-12)


def test_bleu2_hand_golden_is_half():
    # p1 = 3/4, p2 = 1/3, BP = 1 -> sqrt(1/4) = 0.5.
    assert abs(bleu2("a b c d", ["a b x d"]) - 0.5) < 1e-9


def test_bleu2_identity_and_disjoint():
    assert bleu2("the flat came furnished", ["the flat came furnished"]) == 1.0
    # One token, no match: p1 smoothed to 1/2, no bigrams so p2 = 1.
    assert bleu2("a", ["b"]) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_bleu2_empty_candidate_scores_zero():
    assert bleu2("", ["a b"]) == 0.0
    with pytest.raises(ValueError):
        bleu2("a", [])


def test_bleu2_brevity_penalty():
    # Candidate half the reference length: BP = exp(1 - 4/2) = e^-1.
    score = bleu2("a b", ["a b c d"])
    assert score == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bleu2_multi_reference_clipping():
    # "a a" against ref "a": clipped unigram matches = 1 of 2.
    single = bleu2("a a", ["a"])
    doubled = bleu2("a a", ["a a"])
    assert single < doubled == 1.0


def test_corpus_bleu2_pools_counts():
    pairs = [("a b c d", ["a b x d"]), ("a b c d", ["a b c d"])]
    pooled = corpus_bleu2(pairs)
    # m1=7,t1=8, m2=4,t2=6 -> sqrt(7/8 * 4/6).
    assert pooled == pytest.approx(math.sqrt(7 / 8 * 4 / 6), abs=1e-12)
    assert corpus_bleu2([("a b", ["a b"])]) == 1.0


def test_rouge_is_not_order_sensitive_but_lcs_is():
    assert rouge_l("b a", "a b") == pytest.approx(0.5)


# --- boolean checks ---------------------------------------------------------

def test_checks_normalize_case_and_punctuation():
    assert check_constraint(Constraint("begins_with", "the flat ,"), "The flat, came furnished.")
    assert not check_constraint(Constraint("begins_with", "the flat"), "flat came")
    assert check_constraint(Constraint("ends_with", "Furnished ."), "It came furnished.")
    assert check_constraint(Constraint("ends_with", ""), "anything")
    assert check_constraint(Constraint("contains_keywords", ("flat", "furnished")), "The flat came furnished.")
    assert not check_constraint(Constraint("contains_keywords", ("flat", "garden")), "The flat came furnished.")
    assert check_constraint(Constraint("contains_keywords", ("raft",)), "inflatable raft")
    assert not check_constraint(Constraint("contains_keywords", ("flat",)), "inflatable raft")  # token, not substring
    assert check_constraint(Constraint("exact_match", "inform"), "Inform")
    assert not check_constraint(Constraint("exact_match", "question"), "inform")


def test_check_keywords_multiword_needs_contiguous_run():
    assert check_constraint(Constraint("contains_keywords", ("flat came",)), "the flat came furnished")
    assert not check_constraint(Constraint("contains_keywords", ("flat came",)), "the flat quickly came")


def test_check_length_class_boundaries():
    short = " ".join(["w"] * 10)
    medium = " ".join(["w"] * 11)
    long_ = " ".join(["w"] * 21)
    assert check_constraint(Constraint("length_class", "short"), short)
    assert check_constraint(Constraint("length_class", "medium"), medium)
    assert check_constraint(Constraint("length_class", "long"), long_)
    assert not check_constraint(Constraint("length_class", "short"), medium)


def test_check_constraint_dispatch():
    assert check_constraint(Constraint("begins_with", "a"), "a b") is True
    assert check_constraint(Constraint("ends_with", "b"), "a b") is True
    assert check_constraint(Constraint("contains_keywords", ("b",)), "a b") is True
    assert check_constraint(Constraint("length_class", "short"), "a b") is True
    assert check_constraint(Constraint("exact_match", "a b"), "a b") is True
    assert check_constraint(Constraint("reference_overlap", "a b"), "a b") is None


# --- constraint serialization -----------------------------------------------

def test_constraint_dict_round_trip():
    constraints = [
        Constraint("begins_with", "the flat"),
        Constraint("ends_with", "furnished ."),
        Constraint("contains_keywords", ("thing", "flat")),
        Constraint("length_class", "medium"),
        Constraint("exact_match", "inform"),
        Constraint("reference_overlap", "the flat came furnished ."),
    ]
    for c in constraints:
        assert ConstraintSpec.from_dicts([constraint_to_dict(c)]).constraints == {c}
    spec = ConstraintSpec(frozenset(constraints))
    assert ConstraintSpec.from_dicts(spec.to_dicts()) == spec
    with pytest.raises(SchemaError) as caught:
        ConstraintSpec.from_dicts([{"type": "mystery"}])
    assert caught.value.field_path == "constraints[0].type"


def test_length_class_label_outside_the_classes_is_refused():
    for label in ("short", "medium", "long"):
        parsed = ConstraintSpec.from_dicts([{"type": "length_class", "label": label}])
        assert parsed.constraints == {Constraint("length_class", label)}
    for label in ("huge", "Short", "", " short"):
        with pytest.raises(SchemaError) as caught:
            ConstraintSpec.from_dicts([{"type": "length_class", "label": label}])
        assert caught.value.field_path == "constraints[0].label"
    with pytest.raises(SchemaError) as caught:
        ConstraintSpec.from_dicts([{"type": "begins_with", "phrase": "a"}, {"type": "length_class", "label": "huge"}])
    assert caught.value.field_path == "constraints[1].label"


def test_every_kind_in_the_table_round_trips():
    for name, kind in CONSTRAINT_KINDS.items():
        value = ("thing", "the flat") if kind.shape is _TEXT_LIST else "short"
        row = {"type": name, kind.field: list(value) if kind.shape is _TEXT_LIST else value}
        assert constraint_to_dict(Constraint(name, value)) == row
        assert ConstraintSpec.from_dicts([row]).constraints == {Constraint(name, value)}
        # A row holding its value under any other kind's field is refused, naming the field it lacks.
        with pytest.raises(SchemaError) as caught:
            ConstraintSpec.from_dicts([{"type": name, "text": value}])
        assert caught.value.field_path == f"constraints[0].{kind.field}"


def test_a_kind_is_one_row_of_the_table(monkeypatch):
    # A second list-valued kind, registered as a row alone: it parses from a
    # constraint row, serializes back, is built from a grounding item of its
    # family and is scored. Besides the table, the grounding-family lookup
    # evaluate derives from it at import gets the row too; no class is defined.
    kind = evaluate._Kind(
        "keywords", "avoid_keywords", CONSTRAINT_KINDS["contains_keywords"].shape,
        lambda needles, out: not any(evaluate._contains_all([needle], out) for needle in needles),
    )
    monkeypatch.setitem(CONSTRAINT_KINDS, "avoid_keywords", kind)
    monkeypatch.setitem(evaluate._ITEM_KINDS, "avoid_keywords", ("avoid_keywords", kind))
    constraint = Constraint("avoid_keywords", ("garden", "the rent"))

    row = {"type": "avoid_keywords", "keywords": ["garden", "the rent"]}
    spec = ConstraintSpec.from_dicts([row])
    assert spec.constraints == {constraint}
    assert spec.to_dicts() == [row]
    with pytest.raises(SchemaError) as caught:
        ConstraintSpec.from_dicts([{"type": "avoid_keywords", "keywords": "garden"}])
    assert caught.value.field_path == "constraints[0].keywords"

    plain = derive_task("response_generation", DIALOG, 1, 0)
    grounded = dataclasses.replace(plain, grounding_items=(DialogItem(A, "avoid_keywords", "garden, the rent", 1),))
    reference = Constraint("reference_overlap", DIALOG.turns[1].text)
    assert extract_constraints(grounded).constraints == {constraint, reference}

    report = score_corpus([(spec, "the flat came furnished"), (spec, "The rent, and the garden.")])
    assert report["per_constraint_accuracy"] == {"avoid_keywords": 0.5}
    assert report["constraint_counts"] == {"avoid_keywords": 2}
    assert report["compositional_accuracy"] == 0.5


def test_boolean_kinds_are_the_table_without_reference_overlap():
    assert BOOLEAN_KINDS == tuple(name for name in CONSTRAINT_KINDS if name != "reference_overlap")


# Grounding item families no constraint checks: what an output should say
# about them is not decidable from its tokens alone.
UNCHECKED_FAMILIES = {"emotion", "dialog_act", "persona", "knowledge", "draft_response"}


def test_every_grounding_family_is_checked_or_named_unchecked():
    checked = {kind.item_kind for kind in CONSTRAINT_KINDS.values() if kind.item_kind}
    assert not checked & UNCHECKED_FAMILIES
    grounded = {task.grounding[1] for task in REGISTRY.values() if task.grounding is not None}
    assert grounded - checked - UNCHECKED_FAMILIES == set()
    # Neither list names a family that no task grounds on.
    assert checked | UNCHECKED_FAMILIES == grounded


def test_constraint_spec_is_order_free():
    a = ConstraintSpec(frozenset([Constraint("begins_with", "x"), Constraint("length_class", "short")]))
    b = ConstraintSpec(frozenset([Constraint("length_class", "short"), Constraint("begins_with", "x")]))
    assert a == b
    assert ConstraintSpec.from_dicts(a.to_dicts()) == a


def test_split_keyword_list():
    assert split_keyword_list("thing, flat") == ("thing", "flat")
    assert split_keyword_list("solo") == ("solo",)
    assert split_keyword_list(" a , , b ") == ("a", "b")


# --- extraction from instances ----------------------------------------------

def test_extract_constraints_per_task_kind():
    bw = derive_task("beginswith_controlled_generation", DIALOG, 1, 0)
    spec = extract_constraints(bw)
    assert {c.type for c in spec.constraints} == {"begins_with", "reference_overlap"}
    (phrase,) = [c.value for c in spec.constraints if c.type == "begins_with"]
    assert DIALOG.turns[1].text.startswith(phrase)

    kw = derive_task("keyword_controlled_generation", DIALOG, 1, 0)
    kw_spec = extract_constraints(kw)
    assert {c.type for c in kw_spec.constraints} == {"contains_keywords", "reference_overlap"}

    pred = derive_task("emotion_prediction", DIALOG, 1, 0)
    pred_spec = extract_constraints(pred)
    assert Constraint("exact_match", "happiness") in pred_spec.constraints
    assert {c.type for c in pred_spec.constraints} == {"exact_match"}

    plain = derive_task("response_generation", DIALOG, 1, 0)
    assert extract_constraints(plain).constraints == frozenset(
        [Constraint("reference_overlap", DIALOG.turns[1].text)]
    )


def test_extracted_constraints_hold_on_gold_target():
    for name in (
        "beginswith_controlled_generation",
        "endswith_controlled_generation",
        "keyword_controlled_generation",
        "response_generation_length",
        "emotion_prediction",
        "act_prediction",
    ):
        inst = derive_task(name, DIALOG, 1, 0)
        for constraint in extract_constraints(inst).constraints:
            verdict = check_constraint(constraint, inst.target_item.value)
            assert verdict in (True, None), (name, constraint)


# --- corpus scoring -----------------------------------------------------------

def _spec(*constraints):
    return ConstraintSpec(frozenset(constraints))


def test_score_corpus_empty():
    report = score_corpus([])
    assert report["n_examples"] == 0
    assert report["compositional_accuracy"] == 1.0
    assert report["per_constraint_accuracy"] == {}
    assert report["bleu2"] is None and report["rouge_l"] is None


def test_score_corpus_hand_oracle():
    examples = [
        # passes both constraints
        (_spec(Constraint("begins_with", "the flat"), Constraint("length_class", "short")), "the flat came furnished"),
        # fails begins_with, passes length
        (_spec(Constraint("begins_with", "the flat"), Constraint("length_class", "short")), "it came furnished"),
        # no begins_with constraint at all: vacuous pass for that kind
        (_spec(Constraint("length_class", "short")), "tiny"),
        # fails everything it carries
        (_spec(Constraint("length_class", "short")), " ".join(["w"] * 30)),
    ]
    report = score_corpus(examples)
    assert report["n_examples"] == 4
    # begins_with: examples 1 passes, 2 fails, 3 and 4 vacuous -> 3/4.
    assert report["per_constraint_accuracy"]["begins_with"] == 0.75
    # length_class: 1, 2, 3 pass; 4 fails -> 3/4.
    assert report["per_constraint_accuracy"]["length_class"] == 0.75
    assert report["constraint_counts"] == {"begins_with": 2, "length_class": 4}
    assert report["compositional_accuracy"] == 0.5
    assert report["bleu2"] is None


def test_score_corpus_reports_only_present_kinds():
    report = score_corpus([(_spec(Constraint("exact_match", "inform")), "inform")])
    assert set(report["per_constraint_accuracy"]) == {"exact_match"}
    assert report["per_constraint_accuracy"]["exact_match"] == 1.0


def test_score_corpus_overlap_metrics():
    examples = [
        (_spec(Constraint("reference_overlap", "a b c")), "a c"),
        (_spec(Constraint("reference_overlap", "hello there")), "hello there"),
    ]
    report = score_corpus(examples)
    assert report["rouge_l"] == pytest.approx((0.8 + 1.0) / 2)
    assert report["bleu2"] is not None and 0.0 < report["bleu2"] <= 1.0
    # Overlap-only examples never fail the conjunction.
    assert report["compositional_accuracy"] == 1.0


def test_score_corpus_report_serializes():
    data = score_corpus([(_spec(Constraint("length_class", "short")), "ok")])
    assert data["n_examples"] == 1
    assert data["per_constraint_accuracy"] == {"length_class": 1.0}
    assert sorted(data) == [
        "bleu2",
        "compositional_accuracy",
        "constraint_counts",
        "n_examples",
        "per_constraint_accuracy",
        "rouge_l",
    ]
    mixed = score_corpus(
        [(_spec(Constraint("length_class", "short"), Constraint("begins_with", "o"), Constraint("ends_with", "k")), "ok")]
    )
    kinds = ["begins_with", "ends_with", "length_class"]
    assert list(mixed["per_constraint_accuracy"]) == list(mixed["constraint_counts"]) == kinds


_CONSTRAINT_POOL = [
    Constraint("begins_with", "the flat"),
    Constraint("ends_with", "furnished"),
    Constraint("contains_keywords", ("flat",)),
    Constraint("contains_keywords", ("garden",)),
    Constraint("length_class", "short"),
    Constraint("length_class", "long"),
    Constraint("exact_match", "inform"),
]

_OUTPUT_POOL = [
    "the flat came furnished",
    "inform",
    "a garden appears here",
    " ".join(["w"] * 25),
    "",
]


@settings(max_examples=80, deadline=None)
@given(
    examples=st.lists(
        st.tuples(
            st.sets(st.sampled_from(_CONSTRAINT_POOL), min_size=1, max_size=4),
            st.sampled_from(_OUTPUT_POOL),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_conjunction_bound_is_a_theorem(examples):
    scored = score_corpus([(_spec(*cs), out) for cs, out in examples])
    if scored["per_constraint_accuracy"]:
        bound = min(scored["per_constraint_accuracy"].values())
        assert scored["compositional_accuracy"] <= bound + 1e-12
    assert 0.0 <= scored["compositional_accuracy"] <= 1.0
    for kind in scored["per_constraint_accuracy"]:
        assert kind in BOOLEAN_KINDS
