"""Sampling quotas, instance files, JSONL round trips, corpus stats, directory export, run manifest."""

import dataclasses
import gc
import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks import cli, export, pipeline
from dialogtasks.composer import compose_corpus, load_rules, naive_corpus
from dialogtasks.export import (
    SamplingPlan,
    assign_splits,
    constraint_records,
    corpus_stats,
    export_corpus,
    read_instances,
    sample,
    write_instances,
    write_jsonl,
)
from dialogtasks.evaluate import extract_constraints
from dialogtasks.ingest import ParseError, SchemaError, SynthConfig, synth_corpus, write_corpus
from dialogtasks.model import (
    SPLITS,
    STYLES,
    ComponentKind,
    DialogItem,
    Provenance,
    TargetItem,
    TaskInstance,
    Turn,
    example_id,
    instance_sort_key,
)
from dialogtasks.pipeline import PipelineConfig, run_pipeline
from dialogtasks.prompts import PHRASES, apply_cot, render_corpus
from dialogtasks.registry import derive_corpus
from dialogtasks.seeding import stable_hash


def _corpus(n_dialogs=12, seed=3):
    return derive_corpus(synth_corpus(seed, n_dialogs), seed=seed)


def test_sample_respects_atomic_quota_exactly():
    instances = _corpus(20, seed=1)
    plan = SamplingPlan(atomic_quota=5, composite_quota=0)
    kept = sample(instances, plan, seed=0)
    counts = {}
    for inst in kept:
        counts[inst.task_name] = counts.get(inst.task_name, 0) + 1
    original = {}
    for inst in instances:
        original[inst.task_name] = original.get(inst.task_name, 0) + 1
    for name, total in original.items():
        assert counts[name] == min(total, 5), name


def test_sample_zero_quota_means_uncapped():
    instances = _corpus(6, seed=2)
    kept = sample(instances, SamplingPlan(atomic_quota=0, composite_quota=0), seed=9)
    assert len(kept) == len(instances)
    ids = sorted(example_id(i.provenance, i.style) for i in kept)
    assert ids == sorted(example_id(i.provenance, i.style) for i in instances)


def test_sample_is_input_order_invariant_and_seeded():
    instances = _corpus(18, seed=4)
    plan = SamplingPlan(atomic_quota=7, composite_quota=0)
    forward = sample(instances, plan, seed=5)
    backward = sample(list(reversed(instances)), plan, seed=5)
    assert forward == backward
    other_seed = sample(instances, plan, seed=6)
    assert [i.to_dict() for i in other_seed] != [i.to_dict() for i in forward]
    assert len(other_seed) == len(forward)


def test_sample_composite_quota_is_per_dataset():
    base = _corpus(10, seed=7)
    rules = load_rules()
    composites, _ = compose_corpus(base, rules)
    assert composites
    relabeled = [
        dataclasses.replace(
            inst, provenance=dataclasses.replace(inst.provenance, dataset="other")
        )
        for inst in composites
    ]
    both = composites + relabeled
    plan = SamplingPlan(atomic_quota=0, composite_quota=3)
    kept = sample(both, plan, seed=0)
    per_group = {}
    for inst in kept:
        key = (inst.task_name, inst.provenance.dataset)
        per_group[key] = per_group.get(key, 0) + 1
    assert per_group, "no composite groups sampled"
    for (name, dataset), count in per_group.items():
        assert count <= 3, (name, dataset)
    datasets = {dataset for _, dataset in per_group}
    assert datasets == {"synth", "other"}


def _sorting_each_group_sample(instances, plan, seed):
    """sample as it was: sort each group, then sort all kept instances again."""
    groups = {}
    for inst in instances:
        key = ("atomic", inst.task_name) if inst.signature.is_atomic else ("composite", inst.task_name, inst.provenance.dataset)
        groups.setdefault(key, []).append(inst)
    kept = []
    for key in sorted(groups):
        population = sorted(groups[key], key=instance_sort_key)
        quota = plan.atomic_quota if key[0] == "atomic" else plan.composite_quota
        if quota > 0 and len(population) > quota:
            population = random.Random(stable_hash(seed, "sample", *key)).sample(population, quota)
        kept.extend(population)
    kept.sort(key=instance_sort_key)
    return kept


@pytest.mark.parametrize("cot", ["none", "random-1"])
@pytest.mark.parametrize("quotas", [(4, 2), (1, 1), (0, 3), (50, 0)])
def test_sample_keeps_what_sorting_each_group_kept(quotas, cot):
    atoms = _corpus(8, seed=5)
    instances = apply_cot(atoms + compose_corpus(atoms, load_rules())[0], cot, 5)
    random.Random(1).shuffle(instances)
    plan = SamplingPlan(*quotas)
    for seed in (0, 7):
        assert sample(instances, plan, seed) == _sorting_each_group_sample(instances, plan, seed)


def test_write_and_read_instances_round_trip(tmp_path):
    instances = _corpus(4, seed=8)[:25]
    path = tmp_path / "instances.jsonl"
    manifest = write_instances(instances, path)
    assert manifest["count"] == 25
    assert manifest["name"] == "instances.jsonl"
    assert len(manifest["sha256"]) == 64
    again = read_instances(path)
    assert again == instances


def test_read_instances_error_reporting(tmp_path, capsys):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"task_name": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises((ParseError, SchemaError)) as err:
        read_instances(bad_json)
    assert err.value.line_number == 1  # schema failure on line 1 comes first
    only_garbage = tmp_path / "garbage.jsonl"
    only_garbage.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_instances(only_garbage)
    good = _corpus(2, seed=8)[0].to_dict()
    not_an_object = tmp_path / "list.jsonl"
    not_an_object.write_text(json.dumps(good) + "\n[1]\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_instances(not_an_object)
    assert err.value.line_number == 2
    shared = {key: value for key, value in good.items() if key != "context"}
    shared.update(context_turns=1, dialog_turns=good["context"])
    turn = good["context"][0]
    item = {**turn["items"][0], "turn_index": 0}
    for row, field in (
        ({**good, "grounding_items": 5}, "grounding_items"),
        ({**good, "provenance": {**good["provenance"], "seed": float("inf")}}, "provenance"),
        ({**good, "provenance": [1]}, "provenance"),
        ({**good, "context": "abc"}, "context"),
        ({**good, "context": [{"speaker": "a"}]}, "context"),
        ({**good, "target_item": [1]}, "target_item"),
        ({**good, "signature": "XY"}, "signature"),
        ({**shared, "dialog_turns": 5}, "dialog_turns"),
        ({**shared, "dialog_turns": [{"text": "hi"}]}, "dialog_turns"),
        ({**shared, "context_turns": "1"}, "context_turns"),
        ({**shared, "context_turns": len(good["context"]) + 1}, "context_turns"),
        ({**shared, "provenance": 5}, "provenance"),
        ({**shared, "target_item": [1]}, "target_item"),
        # A value of another JSON type than to_dict writes is rejected, not converted.
        ({**good, "grounding_items": [{**item, "kind": [1], "value": None}]}, "grounding_items"),
        ({**good, "grounding_items": [{**item, "turn_index": "0"}]}, "grounding_items"),
        ({**good, "grounding_items": [{**item, "turn_index": True}]}, "grounding_items"),
        ({**good, "grounding_items": {}}, "grounding_items"),
        ({**good, "provenance": {**good["provenance"], "source_tasks": "abc"}}, "provenance"),
        ({**good, "provenance": {**good["provenance"], "source_tasks": [1]}}, "provenance"),
        ({**good, "provenance": {**good["provenance"], "target_turn_index": "1"}}, "provenance"),
        ({**good, "provenance": {**good["provenance"], "seed": 1.0}}, "provenance"),
        ({**good, "provenance": {**good["provenance"], "dialog_id": 7}}, "provenance"),
        ({**good, "target_item": {**good["target_item"], "value": None}}, "target_item"),
        ({**good, "task_name": 5}, "task_name"),
        ({**good, "instruction": None}, "instruction"),
        ({**good, "style": ["naive"]}, "style"),
        ({**good, "cot_items": {}}, "cot_items"),
        ({**good, "context": [{**turn, "speaker": 1}]}, "context"),
        ({**good, "context": [{**turn, "items": {}}]}, "context"),
        ({**shared, "dialog_turns": [{**turn, "text": None}]}, "dialog_turns"),
    ):
        mistyped = tmp_path / "mistyped.jsonl"
        mistyped.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_instances(mistyped)
        assert (err.value.line_number, err.value.field_path) == (2, field), field
        assert str(err.value) == f"line 2: missing or invalid field {field}"
        capsys.readouterr()
        assert cli.main(["stats", "--in", str(mistyped)]) == cli.EXIT_IO
        assert capsys.readouterr().err == f"error: line 2: missing or invalid field {field}\n"


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _atomic_and_composite(dialogs, seed=3):
    atomic = derive_corpus(dialogs, seed=seed)
    return atomic + compose_corpus(atomic, load_rules())[0]


def test_read_instances_shares_one_string_per_distinct_value(tmp_path):
    path = tmp_path / "atomic.jsonl"
    write_instances(derive_corpus(synth_corpus(7, 30), 7), path)
    instances = read_instances(path)
    assert len(instances) == 2350

    def objects(values):
        values = list(values)
        assert len({id(v) for v in values}) == len(set(values))
        return len(set(values))

    assert objects(i.instruction for i in instances) == 6
    assert objects(i.task_name for i in instances) == 18
    assert objects(i.provenance.dataset for i in instances) == 1
    assert objects(i.provenance.split for i in instances) == 3


def test_read_instances_parses_each_distinct_value_once(tmp_path):
    atomic = derive_corpus(synth_corpus(7, 10), 7)
    instances = apply_cot(atomic + compose_corpus(atomic, load_rules())[0], "random-1", 7)
    path = tmp_path / "instances.jsonl"
    write_instances(instances, path)
    again = read_instances(path)
    assert again == instances

    def objects(values):
        values = list(values)
        assert len({id(v) for v in values}) == len(set(values))
        return len(set(values))

    items = [item for inst in again for item in inst.grounding_items + inst.cot_items]
    assert objects(inst.signature for inst in again) < 20
    assert objects(items) < len(items) / 2
    assert any(inst.cot_items for inst in again)
    assert objects(inst.target_item for inst in again) < len(again) / 5
    assert objects(inst.provenance.source_tasks for inst in again) < len(again) / 5
    assert objects(inst.provenance.dialog_id for inst in again) == 10


@pytest.mark.parametrize(
    "field, change",
    [
        # true and 1.0 equal and hash like the 1 of the row before.
        ("grounding_items", {"turn_index": True}),
        ("grounding_items", {"turn_index": 1.0}),
        ("grounding_items", {"value": 5}),
        ("grounding_items", {"kind": None}),
        ("cot_items", {"turn_index": True}),
        ("cot_items", {"turn_index": 1.0}),
        ("cot_items", {"value": ["x"]}),
        ("target_item", {"value": 5}),
        ("target_item", {"component": 1}),
    ],
)
def test_row_repeating_a_parsed_item_but_mistyped_exits_two(tmp_path, capsys, field, change):
    """A memo never answers for a value that would not parse on its own."""
    good = _corpus(2, seed=8)[0].to_dict()
    # The strings "5" and 5 would meet if a memo keyed values by str().
    item = {"component": "A", "kind": "emotion", "value": "5", "turn_index": 1}
    good.update(grounding_items=[item], cot_items=[{**item, "kind": "dialog_act"}])
    good["target_item"] = {**good["target_item"], "value": "5"}
    good["signature"] = f"ICA-{good['target_item']['component']}"  # the shape of the new items
    bad = json.loads(json.dumps(good))
    if field == "target_item":
        bad[field] = {**bad[field], **change}
    else:
        bad[field] = [{**bad[field][0], **change}]
    path = tmp_path / "instances.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_instances(path)
    assert (err.value.line_number, err.value.field_path) == (2, field)
    assert cli.main(["stats", "--in", str(path)]) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: line 2: missing or invalid field {field}\n"


@pytest.mark.parametrize("plan", [SamplingPlan(), SamplingPlan(atomic_quota=5, composite_quota=50)])
def test_export_of_both_composite_styles_does_not_depend_on_row_order(tmp_path, plan):
    """A naive composite and the standard one of the same pair sort by style."""
    atomic = derive_corpus(synth_corpus(7, 20), 7)
    rules = load_rules()
    standard, naive = compose_corpus(atomic, rules)[0], naive_corpus(atomic, rules)
    exported = []
    for name, instances in (("standard-first", standard + naive), ("naive-first", naive + standard)):
        export_corpus(instances, tmp_path / name, 7, plan=plan, emit_constraints=True)
        exported.append({path.name: path.read_bytes() for path in (tmp_path / name).iterdir()})
    assert exported[0] == exported[1]


def test_instance_file_writes_each_dialogs_turns_once(tmp_path):
    dialogs = synth_corpus(3, 6)
    instances = _atomic_and_composite(dialogs)
    path = tmp_path / "instances.jsonl"
    assert write_instances(instances, path)["count"] == len(instances)
    rows = _rows(path)
    assert len(rows) == len(instances)
    assert all("context" not in row for row in rows)
    assert [row["context_turns"] for row in rows] == [len(i.context) for i in instances]
    carriers = [row for row in rows if "dialog_turns" in row]
    assert sorted(row["provenance"]["dialog_id"] for row in carriers) == sorted(d.dialog_id for d in dialogs)
    assert read_instances(path) == instances


def test_read_instances_shares_one_context_per_dialog_prefix(tmp_path):
    path = tmp_path / "instances.jsonl"
    write_instances(_atomic_and_composite(synth_corpus(4, 5)), path)
    shared = {}
    for inst in read_instances(path):
        key = (inst.provenance.dialog_id, len(inst.context))
        assert shared.setdefault(key, inst.context) is inst.context
    assert len(shared) < len(_rows(path))


def test_context_that_is_no_prefix_is_written_inline(tmp_path):
    instances = _corpus(2, seed=5)
    odd = instances[-1]
    changed = dataclasses.replace(odd.context[0], text=odd.context[0].text + " (edited)")
    instances[-1] = dataclasses.replace(odd, context=(changed,) + odd.context[1:])
    path = tmp_path / "instances.jsonl"
    write_instances(instances, path)
    rows = _rows(path)
    assert rows[-1] == instances[-1].to_dict()
    assert all("context" not in row for row in rows[:-1])
    assert read_instances(path) == instances


def test_inline_instance_rows_still_load(tmp_path):
    instances = _corpus(3, seed=6)
    path = tmp_path / "inline.jsonl"
    write_jsonl((inst.to_dict() for inst in instances), path)
    assert read_instances(path) == instances


def test_instance_row_without_its_dialogs_turns_exits_two(tmp_path, capsys):
    path = tmp_path / "instances.jsonl"
    write_instances(_corpus(2, seed=7), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert "dialog_turns" in json.loads(lines[0])
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    assert cli.main(["stats", "--in", str(cut)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: context_turns refers to dialog synth/")
    assert "Traceback" not in err
    with pytest.raises(SchemaError) as exc:
        TaskInstance.from_dict(json.loads(lines[1]))
    assert exc.value.field_path == "context_turns"


def test_instance_file_holding_one_instance_twice_exits_two(tmp_path, capsys):
    """Exported as it is, such a file would write every id twice."""
    atomic = tmp_path / "atomic.jsonl"
    write_instances(_corpus(2, seed=7), atomic)
    lines = atomic.read_text(encoding="utf-8").splitlines()
    twice = tmp_path / "twice.jsonl"
    twice.write_text("\n".join(lines + lines) + "\n", encoding="utf-8")
    first = example_id(TaskInstance.from_dict(json.loads(lines[0])).provenance, "standard")
    expected = f"error: line {len(lines) + 1}: instance {first!r} is already on line 1\n"
    capsys.readouterr()
    out = tmp_path / "export"
    argv = ["export", "--in", str(twice), "--seed", "7", "--emit-constraints", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_IO
    assert capsys.readouterr().err == expected
    assert not out.exists()
    assert cli.main(["validate", "--in", str(twice)]) == cli.EXIT_IO
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize(
    "config, smaller_by",
    [(SynthConfig(), 2), (SynthConfig(min_turns=6, max_turns=16), 3)],
    ids=["2-8 turns", "6-16 turns"],
)
def test_instance_files_are_smaller_than_inline_rows(tmp_path, config, smaller_by):
    instances = _atomic_and_composite(synth_corpus(7, 30, config), seed=7)
    write_instances(instances, tmp_path / "shared.jsonl")
    write_jsonl((inst.to_dict() for inst in instances), tmp_path / "inline.jsonl")
    ratio = (tmp_path / "inline.jsonl").stat().st_size / (tmp_path / "shared.jsonl").stat().st_size
    assert ratio >= smaller_by


def test_write_jsonl_is_byte_stable(tmp_path):
    records = [{"b": 2, "a": 1}, {"x": "y"}]
    first = write_jsonl(records, tmp_path / "one.jsonl")
    second = write_jsonl(records, tmp_path / "two.jsonl")
    assert first["sha256"] == second["sha256"]
    text = (tmp_path / "one.jsonl").read_text(encoding="utf-8")
    assert text == '{"a": 1, "b": 2}\n{"x": "y"}\n'
    empty = write_jsonl([], tmp_path / "empty.jsonl")
    assert empty["count"] == 0
    assert (tmp_path / "empty.jsonl").read_text(encoding="utf-8") == ""


def _rendered_row(example):
    """The dict form of a <split>.jsonl row, built from the example's instance."""
    inst = example.instance
    return {
        "id": example_id(inst.provenance, inst.style),
        "input": example.input_text,
        "output": example.output_text,
        "task": inst.task_name,
        "signature": inst.signature.canonical_string(),
        "dataset": inst.provenance.dataset,
        "split": inst.provenance.split,
        "provenance": inst.provenance.to_dict(),
    }


def test_write_rendered_equals_rendering_the_whole_list(tmp_path):
    # Rendering one dialog at a time must not change the bytes or the error
    # records, also for instances that are not sorted by dialog.
    instances = _corpus(6, seed=13)
    at = next(i for i, inst in enumerate(instances) if inst.grounding_items)
    unknown = dataclasses.replace(instances[at].grounding_items[0], kind="mystery_kind")
    instances[at] = dataclasses.replace(instances[at], grounding_items=(unknown,))
    shuffled = random.Random(0).sample(instances, len(instances))
    for name, members in (("sorted", instances), ("shuffled", shuffled)):
        rendered, errors = render_corpus(members, 4)
        whole = write_jsonl(map(_rendered_row, rendered), tmp_path / "whole.jsonl")
        streamed_errors, failed = [], set()
        streamed = write_jsonl(export._rendered_rows(members, 4, None, streamed_errors, failed),
                               tmp_path / f"{name}.jsonl")
        assert (tmp_path / f"{name}.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
        assert streamed["sha256"] == whole["sha256"]
        assert streamed["count"] == whole["count"] == len(members) - 1
        assert streamed_errors == errors and len(errors) == 1
        assert failed == {id(instances[at])}


def test_assign_splits_partitions_everything():
    instances = _corpus(15, seed=9)
    by_split = assign_splits(instances)
    assert set(by_split) >= {"train", "dev", "test"}
    assert sum(len(v) for v in by_split.values()) == len(instances)
    for split, members in by_split.items():
        for inst in members:
            assert inst.provenance.split == split


def test_export_refuses_a_split_outside_train_dev_test(tmp_path):
    # Built in code, past read_instances' check; each split names a file.
    instances = _corpus(4, seed=9)
    bad = dataclasses.replace(
        instances[-1], provenance=dataclasses.replace(instances[-1].provenance, split="../escaped")
    )
    with pytest.raises(ValueError) as caught:
        assign_splits([*instances[:-1], bad])
    assert example_id(bad.provenance, bad.style) in str(caught.value)
    assert "'../escaped'" in str(caught.value)
    out_dir = tmp_path / "out" / "sub"
    with pytest.raises(ValueError):
        export_corpus([*instances[:-1], bad], out_dir, seed=1, plan=SamplingPlan(0, 0))
    assert not (tmp_path / "out").exists()


def test_instance_ids_unique_within_derived_corpus():
    instances = _corpus(10, seed=11)
    ids = [example_id(i.provenance, i.style) for i in instances]
    assert len(ids) == len(set(ids))


def test_constraint_records_shape():
    instances = _corpus(3, seed=12)[:8]
    records = [json.loads(line) for line in constraint_records(instances)]
    assert len(records) == 8
    for record, inst in zip(records, instances):
        assert record["id"] == example_id(inst.provenance, inst.style)
        assert record["task"] == inst.task_name
        assert record["signature"] == inst.signature.canonical_string()
        assert isinstance(record["constraints"], list) and record["constraints"]
        for c in record["constraints"]:
            assert "type" in c


def test_export_writes_constraint_rows_only_for_rendered_instances(tmp_path, capsys):
    """An instance that fails to render is in neither split file; stats.json still counts it."""
    instances = derive_corpus(synth_corpus(7, 2), 7)
    failing = "synth/synth-00000/t1/act_generation"
    at = next(i for i, inst in enumerate(instances) if example_id(inst.provenance, inst.style) == failing)
    mood = dataclasses.replace(instances[at].grounding_items[0], kind="mood")
    instances[at] = dataclasses.replace(instances[at], grounding_items=(mood, *instances[at].grounding_items[1:]))
    path, out = tmp_path / "instances.jsonl", tmp_path / "export"
    write_instances(instances, path)
    argv = ["export", "--in", str(path), "--seed", "7", "--emit-constraints", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    manifest = json.loads(capsys.readouterr().out)
    assert [error["task_name"] for error in manifest["render_errors"]] == ["act_generation"]
    rendered = []
    for split in SPLITS:
        ids = [json.loads(line)["id"] for line in (out / f"{split}.jsonl").open(encoding="utf-8")]
        constrained = (out / f"constraints-{split}.jsonl").open(encoding="utf-8")
        assert [json.loads(line)["id"] for line in constrained] == ids, split
        rendered.extend(ids)
    assert failing not in rendered and len(rendered) == len(instances) - 1
    assert json.loads((out / "stats.json").read_text(encoding="utf-8"))["n_instances"] == len(instances)


# Strings that json escapes, and some it need not: quote, backslash, control
# characters, U+2028, lone surrogates, non-BMP and non-ASCII characters.
_SPECIAL = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "\U0001f600", "\xe9"]
_TEXT = st.lists(st.one_of(st.sampled_from(_SPECIAL), st.characters(exclude_categories=())), max_size=6).map("".join)
# The render seed hashes an id's parts and the task name as UTF-8, which has no lone surrogates.
_NAME = _TEXT.map(lambda text: text.encode("utf-8", "replace").decode("utf-8"))
# Grounding items of a kind the phrase table lacks fail to render; no other kind is rendered.
_PHRASE_KIND = st.sampled_from(sorted(PHRASES))
_KIND = st.one_of(_PHRASE_KIND, _TEXT)


def _items(kind, max_size):
    item = st.builds(DialogItem, st.sampled_from("SEA").map(ComponentKind), kind, _TEXT, st.integers(0, 2**63))
    return st.lists(item, max_size=max_size).map(tuple)


@st.composite
def _dialog_instances(draw, index):
    """The instances of one dialog, each with a prefix of its turns as context."""
    dataset, dialog_id = draw(_NAME), f"{draw(_NAME)}/{index}"
    turns = []
    for t in range(draw(st.integers(0, 3))):
        components = draw(st.lists(st.sampled_from("SEA"), max_size=2))
        items = tuple(DialogItem(ComponentKind(c), draw(_KIND), draw(_TEXT), t) for c in components)
        turns.append(Turn(draw(_TEXT), draw(_TEXT), items))
    turns = tuple(turns)
    instances = []
    for _ in range(draw(st.integers(1, 3))):
        provenance = Provenance(
            dataset=dataset,
            dialog_id=dialog_id,
            split=draw(st.one_of(st.sampled_from(SPLITS), _TEXT)),
            target_turn_index=draw(st.integers(0, 2**63)),
            source_tasks=tuple(draw(st.lists(_NAME, max_size=3))),
            seed=draw(st.integers(0, 2**64 - 1)),
        )
        instances.append(TaskInstance(
            task_name=draw(_NAME),
            instruction=draw(_TEXT),
            context=turns[:draw(st.integers(0, len(turns)))],
            grounding_items=draw(_items(_PHRASE_KIND, 3)),
            target_item=TargetItem(ComponentKind(draw(st.sampled_from("SEAR"))), draw(_KIND), draw(_TEXT)),
            provenance=provenance,
            cot_items=draw(_items(_KIND, 2)),
            style=draw(st.sampled_from(STYLES)),
        ))
    return instances


def _lines(rows):
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("ascii")


@settings(max_examples=150, deadline=None)
@given(
    dialogs=st.integers(1, 2).flatmap(lambda n: st.tuples(*(_dialog_instances(i) for i in range(n)))),
    seed=st.integers(0, 2**64 - 1),
)
def test_text_rows_are_the_json_of_their_dict_forms(tmp_path_factory, dialogs, seed):
    """Every row written as text is json.dumps of its dict form, byte for byte."""
    tmp = tmp_path_factory.mktemp("rows")
    instances = [inst for dialog in dialogs for inst in dialog]
    write_jsonl(export._rendered_rows(instances, seed, None, [], set()), tmp / "rendered.jsonl")
    assert (tmp / "rendered.jsonl").read_bytes() == _lines(map(_rendered_row, render_corpus(instances, seed)[0]))
    assert "".join(line + "\n" for line in constraint_records(instances)).encode("ascii") == _lines(
        {
            "id": example_id(inst.provenance, inst.style),
            "task": inst.task_name,
            "signature": inst.signature.canonical_string(),
            "constraints": extract_constraints(inst).to_dicts(),
        }
        for inst in instances
    )
    expected = []
    for dialog in dialogs:
        turns = max((inst.context for inst in dialog), key=len)
        for at, inst in enumerate(dialog):
            row = {**inst.to_dict(), "context_turns": len(inst.context)}
            del row["context"]
            if at == 0:
                row["dialog_turns"] = [turn.to_dict() for turn in turns]
            expected.append(row)
    write_instances(instances, tmp / "instances.jsonl")
    assert (tmp / "instances.jsonl").read_bytes() == _lines(expected)


def test_corpus_stats_counts():
    base = _corpus(8, seed=13)
    composites, _ = compose_corpus(base, load_rules())
    stats = corpus_stats(base + composites)
    assert stats["n_instances"] == len(base) + len(composites)
    assert stats["n_atomic"] == len(base)
    assert stats["n_compositional"] == len(composites)
    assert sum(stats["by_task"].values()) == stats["n_instances"]
    assert sum(stats["by_split"].values()) == stats["n_instances"]
    assert stats["by_dimension"].get("2", 0) == len(composites)
    assert stats["by_style"] == {"standard": stats["n_instances"]}
    assert set(stats["by_dimension"]) <= {"0", "1", "2"}


def test_export_corpus_writes_files_and_manifest(tmp_path):
    instances = _corpus(10, seed=14)
    out = tmp_path / "out"
    manifest = export_corpus(
        instances, out, seed=21, plan=SamplingPlan(atomic_quota=40, composite_quota=0),
        emit_constraints=True,
    )
    names = set(manifest["files"])
    assert {"train.jsonl", "dev.jsonl", "test.jsonl", "stats.json"} <= names
    assert {"constraints-train.jsonl", "constraints-dev.jsonl", "constraints-test.jsonl"} <= names
    assert manifest["render_errors"] == []
    assert manifest["seed"] == 21
    # Rendered counts match constraint counts split by split.
    for split in ("train", "dev", "test"):
        assert (
            manifest["files"][f"{split}.jsonl"]["count"]
            == manifest["files"][f"constraints-{split}.jsonl"]["count"]
        )
    train_lines = (out / "train.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(train_lines) == manifest["files"]["train.jsonl"]["count"]
    record = json.loads(train_lines[0])
    assert set(record) == {
        "id", "input", "output", "task", "signature", "dataset", "split", "provenance",
    }
    assert record["split"] == "train"
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["n_instances"] == sum(
        manifest["files"][f"{s}.jsonl"]["count"] for s in ("train", "dev", "test")
    )


def test_export_corpus_is_byte_identical_across_runs(tmp_path):
    instances = _corpus(9, seed=15)
    first = export_corpus(instances, tmp_path / "a", seed=3, emit_constraints=True)
    second = export_corpus(instances, tmp_path / "b", seed=3, emit_constraints=True)
    assert first == second
    for name, info in first["files"].items():
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert info["sha256"] == second["files"][name]["sha256"]


def test_pipeline_manifest_is_independent_of_run_directory(tmp_path):
    rules = (resources.files("dialogtasks") / "data" / "rules.csv").read_text(encoding="utf-8")
    manifests = []
    for where in ("one", "two/deeper"):
        base = tmp_path / where
        base.mkdir(parents=True)
        write_corpus(synth_corpus(5, 6), base / "dialogs.jsonl")
        (base / "rules.csv").write_text(rules, encoding="utf-8")
        config = PipelineConfig(
            seed=5,
            input_path=str(base / "dialogs.jsonl"),
            rules_path=str(base / "rules.csv"),
            atomic_quota=20,
            composite_quota=10,
            out_dir=str(base / "out"),
        )
        run_pipeline(config)
        manifests.append((base / "out" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    config = json.loads(manifests[0])["config"]
    assert config["input_path"] == "dialogs.jsonl"
    assert config["rules_path"] == "rules.csv"
    assert "out_dir" not in config
    assert str(tmp_path) not in manifests[0].decode("utf-8")


def test_run_pipeline_exports_with_no_other_instance_alive(tmp_path, monkeypatch):
    def live():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is TaskInstance)

    before = live()
    counts = []
    export = pipeline.export_corpus

    def counting_export(instances, *args, **kwargs):
        counts.append((live() - before, len(instances)))
        return export(instances, *args, **kwargs)

    monkeypatch.setattr(pipeline, "export_corpus", counting_export)
    run_pipeline(PipelineConfig(seed=7, synth_dialogs=8, cot="random-1", out_dir=str(tmp_path / "out")))
    [(alive, exported)] = counts
    assert alive == exported > 0


def test_run_pipeline_builds_one_dialog_per_stage_call(tmp_path, monkeypatch):
    seen = {"derive_corpus": [], "compose_corpus": [], "apply_cot": []}

    def recording(name):
        original = getattr(pipeline, name)

        def stage(instances, *args, **kwargs):
            instances = list(instances)
            seen[name].append({(i.dataset, i.dialog_id) if name == "derive_corpus" else
                               (i.provenance.dataset, i.provenance.dialog_id) for i in instances})
            return original(instances, *args, **kwargs)

        return stage

    for name in seen:
        monkeypatch.setattr(pipeline, name, recording(name))
    run_pipeline(PipelineConfig(seed=7, synth_dialogs=8, cot="random-1", out_dir=str(tmp_path / "out")))
    dialogs = {(d.dataset, d.dialog_id) for d in synth_corpus(7, 8)}
    for name, calls in seen.items():
        assert all(len(call) == 1 for call in calls), name
        assert set().union(*calls) == dialogs and len(calls) == len(dialogs), name


# Three-item composites: a two-item composite of the packaged table with one more atom.
_THREE_ITEM_RULES = """11,ICAA-R,ICA-R,ICAAA-R,dc;r,r
12,ICEA-R,ICA-R,ICEAA-R,dc;r,r
13,ICEA-R,ICE-R,ICEEA-R,dc;r,r
14,ICAA-R,ICE-R,ICAAE-R,dc;r,r
15,ICEE-R,ICA-R,ICEEA-R,dc;r,r
"""


@pytest.mark.parametrize("cot", ["none", "random-1"])
@pytest.mark.parametrize("quotas", [(5000, 1000), (6, 2)])
def test_run_exports_what_the_corpus_wide_chain_exports(tmp_path, cot, quotas):
    packaged = (resources.files("dialogtasks") / "data" / "rules.csv").read_text(encoding="utf-8")
    (tmp_path / "rules.csv").write_text(packaged + _THREE_ITEM_RULES, encoding="utf-8")
    (tmp_path / "run.ini").write_text(
        f"[run]\nseed = 7\n[corpus]\nsynth_dialogs = 8\n[compose]\nrules = {tmp_path / 'rules.csv'}\n"
        f"max_dim = 3\n[render]\ncot = {cot}\n[sample]\natomic_quota = {quotas[0]}\n"
        f"composite_quota = {quotas[1]}\n[output]\ndir = {tmp_path / 'run'}\n",
        encoding="utf-8",
    )
    assert cli.main(["run", "--config", str(tmp_path / "run.ini")]) == 0
    atoms = derive_corpus(synth_corpus(7, 8), 7)
    composites, reasons = compose_corpus(atoms, load_rules(tmp_path / "rules.csv"), max_dim=3)
    assert any(len(inst.provenance.source_tasks) == 3 for inst in composites)
    manifest = export_corpus(apply_cot(atoms + composites, cot, 7), tmp_path / "chain", 7,
                             plan=SamplingPlan(*quotas), emit_constraints=True)
    run_manifest = json.loads((tmp_path / "run" / "manifest.json").read_bytes())
    assert (run_manifest["export"], run_manifest["rejections"]) == (manifest, dict(sorted(reasons.items())))
    for name in manifest["files"]:
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "chain" / name).read_bytes(), name
