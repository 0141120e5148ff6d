"""Acceptance suite: one test per shipped behavioral guarantee.

Each test carries a `criterion` marker; conftest prints a PASS/FAIL line per
criterion in the terminal summary. Oracles here are coded independently of
the modules under test (hand-enumerated expectations, re-implemented guard
predicates, closed-form metric values).
"""

import dataclasses
import json
import random
import time

import pytest

from dialogtasks.composer import (
    REASON_LEAK,
    Rejection,
    compose,
    compose_corpus,
    infeasibility_guard,
    load_rules,
    naive_compose,
)
from dialogtasks.evaluate import (
    Constraint,
    ConstraintSpec,
    bleu2,
    check_constraint,
    extract_constraints,
    rouge_l,
    score_corpus,
)
from dialogtasks.export import SamplingPlan, sample
from dialogtasks.ingest import synth_corpus
from dialogtasks.model import (
    ComponentKind,
    DialogItem,
    Provenance,
    TargetItem,
    TaskInstance,
    Turn,
)
from dialogtasks.pipeline import PipelineConfig, run_pipeline
from dialogtasks.prompts import (
    RenderOptions,
    SECTION_HEADERS,
    SECTION_INSTRUCTION,
    build_instruction,
    cot_transform,
    render,
)
from dialogtasks.registry import DerivationError, derive_corpus, derive_task

S = ComponentKind.STATE
E = ComponentKind.EVIDENCE
A = ComponentKind.ACTION
R = ComponentKind.RESPONSE

RULES = load_rules()


# --- criterion 1: rule-table fidelity ----------------------------------------

EXPECTED_RULE_ROWS = [
    # (id, first, second, composed display, common, target)
    (1, "ICA-R", "ICA-R", "ICAA-R", ("dc", "r"), "R"),
    (2, "ICE-R", "ICE-R", "ICEE-R", ("dc", "r"), "R"),
    (3, "ICE-R", "ICA-R", "ICEA-R", ("dc", "r"), "R"),
    (4, "ICS-R", "ICE-R", "ICSE-R", ("dc", "r"), "R"),
    (5, "ICS-R", "ICA-R", "ICSA-R", ("dc", "r"), "R"),
    (6, "ICS-R", "ICS-R", "ICSS-R", ("dc", "r"), "R"),
    (7, "ICE-A", "ICS-A", "ICAES-A", ("dc", "a"), "A"),
    (8, "ICS-S", "ICA-S", "ICAS-S", ("dc",), "S"),
    (9, "ICA-A", "ICS-A", "ICASA-A", ("dc",), "A"),
    (10, "ICA-A", "ICE-A", "ICAEA-A", ("dc",), "A"),
]


@pytest.mark.criterion(1, "rule-table fidelity")
def test_criterion_1_rule_table_matches_hardcoded_rows():
    started = time.perf_counter()
    assert len(RULES) == len(EXPECTED_RULE_ROWS) == 10
    for rule, expected in zip(RULES, EXPECTED_RULE_ROWS):
        rule_id, first, second, composed, common, target = expected
        assert rule.rule_id == rule_id
        assert rule.first.canonical_string() == first
        assert rule.second.canonical_string() == second
        assert rule.composed_display == composed
        assert rule.common == common
        assert rule.target.value == target
    assert time.perf_counter() - started < 1.0


# --- criterion 2: composition closure ----------------------------------------

SIX_RESPONSE_TASKS = (
    "beginswith_controlled_generation",
    "endswith_controlled_generation",
    "keyword_controlled_generation",
    "response_generation_length",
    "persona_grounded_generation",
    "knowledge_grounded_generation",
)

CLOSURE_SIGNATURES = {"ICAA-R", "ICEE-R", "ICEA-R", "ICSE-R", "ICSA-R", "ICSS-R"}

# Signature pairs covered by rules 1-6, as sorted tuples.
ORACLE_RULE_PAIRS = {
    ("ICA-R", "ICA-R"),
    ("ICE-R", "ICE-R"),
    ("ICA-R", "ICE-R"),
    ("ICE-R", "ICS-R"),
    ("ICA-R", "ICS-R"),
    ("ICS-R", "ICS-R"),
}


def _oracle_accepts(x, y):
    """Guard re-implemented from scratch for the closure oracle."""
    px, py = x.provenance, y.provenance
    if (px.dataset, px.dialog_id, px.target_turn_index) != (
        py.dataset,
        py.dialog_id,
        py.target_turn_index,
    ):
        return False
    if x.context != y.context:
        return False
    for giver, taker in ((x, y), (y, x)):
        if any(item.value == taker.target_item.value for item in giver.grounding_items):
            return False
    if x.target_item != y.target_item:
        return False
    if set(px.source_tasks) & set(py.source_tasks):
        return False
    pair = tuple(sorted((x.signature.canonical_string(), y.signature.canonical_string())))
    if pair not in ORACLE_RULE_PAIRS:
        return False
    merged = [
        (i.component.value, i.kind, i.value, i.turn_index)
        for i in x.grounding_items + y.grounding_items
    ]
    return len(set(merged)) == len(merged)


@pytest.mark.criterion(2, "composition closure")
def test_criterion_2_closure_over_restricted_registry():
    started = time.perf_counter()
    dialogs = synth_corpus(11, 200)
    atomics = derive_corpus(dialogs, seed=11, tasks=list(SIX_RESPONSE_TASKS))
    assert atomics

    composites, _ = compose_corpus(atomics, RULES)
    produced = {
        (c.provenance.dialog_id, c.provenance.target_turn_index, c.task_name)
        for c in composites
    }
    assert {c.signature.canonical_string() for c in composites} <= CLOSURE_SIGNATURES

    positions = {}
    for inst in atomics:
        key = (inst.provenance.dataset, inst.provenance.dialog_id, inst.provenance.target_turn_index)
        positions.setdefault(key, []).append(inst)
    expected = set()
    for (dataset, dialog_id, turn), members in positions.items():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                x, y = members[i], members[j]
                if _oracle_accepts(x, y):
                    name = " + ".join(sorted((x.task_name, y.task_name)))
                    expected.add((dialog_id, turn, name))
    assert produced == expected
    assert len(composites) == len(expected)
    assert time.perf_counter() - started < 10.0


# --- criterion 3: infeasibility guard ------------------------------------------

@pytest.mark.criterion(3, "infeasibility guard rejects leaks")
def test_criterion_3_leak_rejected_in_all_fuzzed_variants():
    started = time.perf_counter()
    dialogs = synth_corpus(23, 200)
    positions = [(d, t) for d in dialogs for t in range(1, len(d.turns))]

    # Natural construction: the label-prediction task's target value is, by
    # construction, a grounding value of the label-conditioned generator.
    natural = 0
    for dialog, turn in positions:
        if natural == 500:
            break
        try:
            pred = derive_task("act_prediction", dialog, turn, seed=natural)
            gen = derive_task("act_generation", dialog, turn, seed=natural)
        except DerivationError:
            continue
        for x, y in ((pred, gen), (gen, pred)):
            result = compose(x, y, RULES)
            assert isinstance(result, Rejection)
            assert result.reason == REASON_LEAK
        natural += 1
    assert natural == 500

    # Injection fuzz: poison one grounding value of an otherwise composable
    # pair with the partner's target value.
    rng = random.Random(99)
    injected = 0
    for dialog, turn in positions:
        if injected == 500:
            break
        try:
            bw = derive_task("beginswith_controlled_generation", dialog, turn, seed=injected)
            ew = derive_task("endswith_controlled_generation", dialog, turn, seed=injected)
        except DerivationError:
            continue
        if infeasibility_guard(bw, ew, RULES) is not None:
            # Tiny responses can leak naturally (phrase == response); the
            # injection fuzz needs a pair that is clean before poisoning.
            continue
        victim = rng.randrange(len(ew.grounding_items))
        poisoned = dataclasses.replace(
            ew,
            grounding_items=tuple(
                dataclasses.replace(item, value=bw.target_item.value) if i == victim else item
                for i, item in enumerate(ew.grounding_items)
            ),
        )
        for x, y in ((bw, poisoned), (poisoned, bw)):
            result = compose(x, y, RULES)
            assert isinstance(result, Rejection)
            assert result.reason == REASON_LEAK
        injected += 1
    assert injected == 500
    assert time.perf_counter() - started < 5.0


# --- criterion 4: order invariance ---------------------------------------------

_FUZZ_ITEM_POOL = (
    (S, "emotion"),
    (A, "length_class"),
    (A, "begins_with"),
    (A, "ends_with"),
    (A, "keywords"),
    (E, "persona"),
    (E, "knowledge"),
    (A, "dialog_act"),
    (A, "draft_response"),
)

_FUZZ_TARGETS = (
    (R, "response"),
    (S, "emotion"),
    (E, "persona"),
    (A, "dialog_act"),
)


def _fuzz_instance(index, rng, n_items=None, value_prefix="v"):
    n = rng.randint(0, 4) if n_items is None else n_items
    choices = [rng.choice(_FUZZ_ITEM_POOL) for _ in range(n)]
    items = tuple(
        DialogItem(component, kind, f"{value_prefix}{index}x{j}", 1)
        for j, (component, kind) in enumerate(choices)
    )
    target_component, target_kind = rng.choice(_FUZZ_TARGETS)
    target = TargetItem(target_component, target_kind, f"gold{index}")
    context = tuple(
        Turn(f"Speaker {k % 2 + 1}", f"turn {index} {k} text") for k in range(rng.randint(1, 3))
    )
    return TaskInstance(
        task_name=f"fuzz_{index}",
        instruction=build_instruction(target_component, (i.component for i in items)),
        context=context,
        grounding_items=items,
        target_item=target,
        provenance=Provenance("fuzz", f"d{index}", "train", 1, (f"fuzz_{index}",), index),
    )


@pytest.mark.criterion(4, "order-invariant rendering")
def test_criterion_4_layout_contract_over_fuzzed_instances():
    no_block_shuffle = RenderOptions(block_shuffle=False)
    for index in range(500):
        rng = random.Random(index)
        inst = _fuzz_instance(index, rng)
        target_header = SECTION_HEADERS[inst.signature.target]
        exact_baseline = None
        line_set_baseline = None
        for seed in range(20):
            ex = render(inst, seed)
            assert ex.sections[0] == (SECTION_INSTRUCTION, inst.instruction)
            assert ex.sections[-1] == (target_header, "")
            # Under default options the per-block line sets are seed-invariant.
            line_sets = sorted(
                (label, frozenset(body.splitlines())) for label, body in ex.sections
            )
            if line_set_baseline is None:
                line_set_baseline = line_sets
            assert line_sets == line_set_baseline
            # With in-block shuffling off the section multiset is exactly equal.
            stable = sorted(render(inst, seed, no_block_shuffle).sections)
            if exact_baseline is None:
                exact_baseline = stable
            assert stable == exact_baseline


# --- criterion 5: reasoning-shift transform -------------------------------------

@pytest.mark.criterion(5, "reasoning shift moves items input-to-output")
def test_criterion_5_cot_transform_over_fuzzed_instances():
    for index in range(200):
        rng = random.Random(1000 + index)
        n = rng.randint(2, 4)
        inst = _fuzz_instance(index, rng, n_items=n, value_prefix="sentinel")
        shift = rng.sample(inst.grounding_items, rng.randint(0, n))

        identity = cot_transform(inst, [])
        assert identity is inst
        assert render(identity, 3) == render(inst, 3)

        shifted = cot_transform(inst, shift)
        assert shifted.signature.dimension() == n - len(shift)
        ex = render(shifted, 3)
        lines = ex.output_text.splitlines()
        assert lines[-1] == inst.target_item.value
        assert sorted(lines[:-1]) == sorted(item.value for item in shift)
        for item in shift:
            assert item.value not in ex.input_text
        for item in shifted.grounding_items:
            assert item.value in ex.input_text


# --- criterion 6: metric oracles -------------------------------------------------

_CORPUS_CONSTRAINTS = (
    Constraint("begins_with", "the flat"),
    Constraint("begins_with", "a garden"),
    Constraint("ends_with", "furnished"),
    Constraint("ends_with", "today"),
    Constraint("contains_keywords", ("flat",)),
    Constraint("contains_keywords", ("garden", "flat")),
    Constraint("length_class", "short"),
    Constraint("length_class", "medium"),
    Constraint("exact_match", "inform"),
    Constraint("exact_match", "question"),
)

_CORPUS_OUTPUTS = (
    "the flat came furnished",
    "a garden grows by the flat today",
    "inform",
    "question",
    " ".join(["token"] * 15),
    "",
)


@pytest.mark.criterion(6, "metric oracles and conjunction bound")
def test_criterion_6_metric_goldens_and_bound():
    assert rouge_l("a b c", "a c") == 0.8
    assert rouge_l("a b c", "a b c") == 1.0
    assert abs(bleu2("a b c d", ["a b x d"]) - 0.5) < 1e-9
    assert abs(bleu2("a", ["b"]) - 0.5 ** 0.5) < 1e-9
    assert bleu2("a b c d", ["a b c d"]) == 1.0
    assert bleu2("", ["a"]) == 0.0

    rng = random.Random(6)
    for _ in range(1000):
        examples = []
        for _ in range(rng.randint(1, 8)):
            spec = ConstraintSpec(
                frozenset(rng.sample(_CORPUS_CONSTRAINTS, rng.randint(1, 4)))
            )
            examples.append((spec, rng.choice(_CORPUS_OUTPUTS)))
        report = score_corpus(examples)
        assert report["per_constraint_accuracy"], "fuzz always includes boolean constraints"
        bound = min(report["per_constraint_accuracy"].values())
        assert report["compositional_accuracy"] <= bound + 1e-12
        assert 0.0 <= report["compositional_accuracy"] <= 1.0


# --- criterion 7: gold satisfies its own constraints -------------------------------

@pytest.mark.criterion(7, "gold responses satisfy derived constraints")
def test_criterion_7_derivation_round_trip():
    dialogs = synth_corpus(7, 200)
    names = [
        "beginswith_controlled_generation",
        "endswith_controlled_generation",
        "keyword_controlled_generation",
        "response_generation_length",
    ]
    instances = derive_corpus(dialogs, seed=7, tasks=names)
    assert len(instances) >= 1000
    checked = 0
    for inst in instances:
        gold = inst.target_item.value
        for constraint in extract_constraints(inst).constraints:
            verdict = check_constraint(constraint, gold)
            if verdict is None:
                continue
            assert verdict is True, (inst.task_name, constraint, gold)
            checked += 1
    assert checked >= len(instances)  # every instance carries a boolean constraint


# --- criterion 8: sampling quotas ---------------------------------------------------

def _quota_instance(task_name, dataset, index, composite):
    kinds = (("length_class", "begins_with") if composite else ("length_class",))
    items = tuple(
        DialogItem(A, kind, f"{kind} value {index}", 1) for kind in kinds
    )
    sources = tuple(task_name.split(" + "))
    return TaskInstance(
        task_name=task_name,
        instruction=build_instruction(R, (i.component for i in items)),
        context=(Turn("Speaker 1", f"context {index}"),),
        grounding_items=items,
        target_item=TargetItem(R, "response", f"response {index}"),
        provenance=Provenance(dataset, f"{dataset}-{task_name}-{index}", "train", 1, sources, index),
    )


@pytest.mark.criterion(8, "sampling quotas exact and deterministic")
def test_criterion_8_quota_sampling():
    started = time.perf_counter()
    oversupply = []
    for index in range(7000):
        oversupply.append(_quota_instance("alpha_task", "ds1", index, composite=False))
    for index in range(6000):
        oversupply.append(_quota_instance("beta_task", "ds1", index, composite=False))
    for dataset in ("ds1", "ds2"):
        for index in range(1500):
            oversupply.append(
                _quota_instance("alpha_task + beta_task", dataset, index, composite=True)
            )

    plan = SamplingPlan(atomic_quota=5000, composite_quota=1000)
    kept = sample(oversupply, plan, seed=5)

    by_group = {}
    for inst in kept:
        if inst.signature.is_atomic:
            key = ("atomic", inst.task_name)
        else:
            key = ("composite", inst.task_name, inst.provenance.dataset)
        by_group[key] = by_group.get(key, 0) + 1
    assert by_group == {
        ("atomic", "alpha_task"): 5000,
        ("atomic", "beta_task"): 5000,
        ("composite", "alpha_task + beta_task", "ds1"): 1000,
        ("composite", "alpha_task + beta_task", "ds2"): 1000,
    }

    keys = [inst.provenance.key() for inst in kept]
    assert len(keys) == len(set(keys)) == 12000

    again = sample(list(reversed(oversupply)), plan, seed=5)
    first_bytes = json.dumps([i.to_dict() for i in kept], sort_keys=True).encode("utf-8")
    second_bytes = json.dumps([i.to_dict() for i in again], sort_keys=True).encode("utf-8")
    assert first_bytes == second_bytes
    assert time.perf_counter() - started < 10.0


# --- criterion 9: end-to-end determinism ----------------------------------------------

@pytest.mark.criterion(9, "pipeline runs are byte-identical")
def test_criterion_9_pipeline_determinism(tmp_path):
    manifests = []
    for run in ("a", "b"):
        config = PipelineConfig(
            seed=3,
            synth_dialogs=12,
            cot="random-1",
            atomic_quota=40,
            composite_quota=20,
            out_dir=str(tmp_path / run),
        )
        manifests.append(run_pipeline(config))
    first, second = manifests
    assert first["export"]["files"] == second["export"]["files"]
    assert first["corpus"] == second["corpus"]
    assert first["rejections"] == second["rejections"]
    names = set(first["export"]["files"])
    assert {"train.jsonl", "dev.jsonl", "test.jsonl"} <= names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "dialogs.jsonl").read_bytes() == (
        tmp_path / "b" / "dialogs.jsonl"
    ).read_bytes()


# --- criterion 10: naive and rule-based composition agree on constraints ---------------

@pytest.mark.criterion(10, "naive and rule-based composites share constraints")
def test_criterion_10_constraint_equivalence_on_100_pairs():
    dialogs = synth_corpus(17, 60)
    atomics = derive_corpus(dialogs, seed=17)
    positions = {}
    for inst in atomics:
        key = (inst.provenance.dataset, inst.provenance.dialog_id, inst.provenance.target_turn_index)
        positions.setdefault(key, []).append(inst)

    pairs_checked = 0
    for key in sorted(positions):
        members = positions[key]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if pairs_checked == 100:
                    break
                x, y = members[i], members[j]
                if infeasibility_guard(x, y, RULES) is not None:
                    continue
                standard = compose(x, y, RULES)
                naive = naive_compose(x, y)
                assert not isinstance(standard, Rejection)
                assert extract_constraints(standard) == extract_constraints(naive)
                assert render(standard, 5).input_text != render(naive, 5).input_text
                pairs_checked += 1
            if pairs_checked == 100:
                break
        if pairs_checked == 100:
            break
    assert pairs_checked == 100
