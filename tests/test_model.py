"""Signatures, instances, serialization round trips, and structural invariants."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dialogtasks
from dialogtasks.model import (
    ComponentKind,
    Dialog,
    DialogItem,
    InvalidGroundingComponent,
    InvalidTarget,
    ParseMemo,
    Provenance,
    SchemaError,
    TargetItem,
    TaskInstance,
    TaskSignature,
    Turn,
    item_sort_key,
    parse_signature,
    signature_of,
    validate_instance,
)

S, E, A, R, C = (
    ComponentKind.STATE,
    ComponentKind.EVIDENCE,
    ComponentKind.ACTION,
    ComponentKind.RESPONSE,
    ComponentKind.CONTEXT,
)


def _provenance(tasks=("task",)):
    return Provenance(
        dataset="ds", dialog_id="d0", split="train", target_turn_index=1,
        source_tasks=tuple(tasks), seed=7,
    )


def _instance(grounding, target, task_name="task"):
    return TaskInstance(
        task_name=task_name,
        instruction="Provide the correct value.",
        context=(Turn("Speaker 1", "hello there ."),),
        grounding_items=tuple(grounding),
        target_item=target,
        provenance=_provenance((task_name,)),
    )


def test_signature_canonicalizes_grounding_order():
    assert signature_of([E, A], R).canonical_string() == "ICEA-R"
    assert signature_of([A, E], R).canonical_string() == "ICEA-R"
    assert signature_of([A, E], R) == signature_of([E, A], R)
    assert signature_of([A, A, S], R).canonical_string() == "ICSAA-R"


def test_signature_of_shares_one_object_per_shape():
    shared = signature_of([A, E], R)
    assert signature_of([A, E], R) is signature_of((E, A), R) is parse_signature("ICEA-R")
    assert signature_of([E, A, A], R) is not shared
    assert signature_of([E, A], A) is not shared


def test_signature_string_is_stored_once_per_shape():
    shared = signature_of([A, E], R)
    assert shared.canonical_string() == "ICEA-R"
    assert signature_of((E, A), R).canonical_string() is shared.canonical_string()


def test_shared_signature_is_built_from_members():
    # Letters equal and hash like their members, so they find the same entry.
    by_letters = signature_of(["A", "S"], "E")
    assert by_letters is signature_of([S, A], E)
    assert by_letters.grounding == (S, A) and by_letters.target == E
    assert all(type(c) is ComponentKind for c in by_letters.grounding + (by_letters.target,))
    assert by_letters.canonical_string() == "ICSA-E"


def test_signature_dimension_and_class():
    assert signature_of([], R).dimension() == 0
    assert signature_of([], R).is_atomic
    assert signature_of([A], R).is_atomic
    assert not signature_of([A, A], R).is_atomic


def test_parse_signature_round_trip():
    for text in ("IC-R", "ICA-R", "ICEA-R", "ICSAA-R", "ICS-S", "IC-E"):
        assert parse_signature(text).canonical_string() == text
    assert parse_signature("ICAE-R").canonical_string() == "ICEA-R"


def test_parse_signature_rejects_garbage():
    for text in ("", "nope", "IC-", "ICX-R", "ICA-C", "ICA"):
        with pytest.raises(ValueError):
            parse_signature(text)


def test_invalid_target_and_grounding():
    with pytest.raises(InvalidTarget):
        signature_of([A], C)
    with pytest.raises(InvalidGroundingComponent):
        signature_of([R], R)
    with pytest.raises(InvalidGroundingComponent):
        signature_of([C], R)
    # The grounding is checked before the target, however the signature is built.
    for build in (signature_of, TaskSignature):
        with pytest.raises(InvalidGroundingComponent):
            build((R,), C)


def test_invalid_input_raises_after_a_valid_shape_is_shared():
    signature_of([A], R)
    with pytest.raises(InvalidGroundingComponent):
        signature_of([A, R], R)
    with pytest.raises(InvalidTarget):
        signature_of([A], C)


def _record_types():
    """Every dataclass type defined in a dialogtasks module."""
    types = []
    for info in pkgutil.iter_modules(dialogtasks.__path__):
        module = importlib.import_module(f"dialogtasks.{info.name}")
        types.extend(
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
        )
    return types


def test_every_record_type_is_frozen_and_slotted():
    types = _record_types()
    names = {cls.__name__ for cls in types}
    assert {"TaskInstance", "Provenance", "DialogItem", "Turn", "TaskSignature", "TargetItem"} <= names
    for cls in types:
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert "__slots__" in vars(cls), cls.__name__
        assert cls.__dictoffset__ == 0, cls.__name__  # no per-instance __dict__


def test_slotted_instances_have_no_dict_and_stay_frozen():
    inst = _instance([DialogItem(A, "begins_with", "hello", 1)], TargetItem(R, "response", "hello there ."))
    records = (inst, inst.signature, inst.context[0], inst.grounding_items[0], inst.target_item, inst.provenance)
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.task_name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.provenance.seed = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.signature.target = E


def test_replace_and_asdict_work_on_slotted_instances():
    inst = _instance([DialogItem(A, "begins_with", "hello", 1)], TargetItem(R, "response", "hello there ."))
    renamed = dataclasses.replace(inst, task_name="other")
    assert renamed.task_name == "other" and inst.task_name == "task"
    assert renamed.provenance is inst.provenance and renamed.signature is inst.signature
    assert not hasattr(renamed, "__dict__")
    assert dataclasses.asdict(inst)["provenance"]["seed"] == 7
    assert dataclasses.replace(inst.provenance, seed=8).key() == inst.provenance.key()


@given(
    st.lists(st.sampled_from([S, E, A]), max_size=5),
    st.sampled_from([S, E, A, R]),
)
def test_signature_string_matches_sorted_letters(grounding, target):
    sig = signature_of(grounding, target)
    order = {"S": 0, "E": 1, "A": 2}
    letters = "".join(sorted((c.value for c in grounding), key=order.__getitem__))
    assert sig.canonical_string() == f"IC{letters}-{target.value}"
    assert parse_signature(sig.canonical_string()) == sig
    # Built directly, from members, letters or an iterator in the drawn order, it is the same signature.
    assert TaskSignature(tuple(grounding), target) == sig
    assert TaskSignature(iter(grounding), target) == sig
    assert TaskSignature(tuple(c.value for c in grounding), target.value) == sig
    assert TaskSignature(tuple(grounding), target).grounding == tuple(ComponentKind(c) for c in letters)


def test_instance_round_trip():
    item = DialogItem(A, "begins_with", "hello there", 1)
    inst = _instance([item], TargetItem(R, "response", "hello there friend ."))
    again = TaskInstance.from_dict(inst.to_dict())
    assert again == inst


def test_round_trip_restores_context_item_turn_index():
    turns = (
        Turn("Speaker 1", "hi .", (DialogItem(S, "emotion", "happiness", 0),)),
        Turn("Speaker 2", "hello .", (DialogItem(S, "emotion", "surprise", 1),)),
    )
    inst = TaskInstance(
        task_name="task",
        instruction="x",
        context=turns,
        grounding_items=(),
        target_item=TargetItem(R, "response", "y"),
        provenance=_provenance(),
    )
    again = TaskInstance.from_dict(inst.to_dict())
    assert [i.turn_index for t in again.context for i in t.items] == [0, 1]


def test_from_dict_with_one_memo_reads_a_rows_context_from_an_earlier_rows_dialog_turns():
    turns = (
        Turn("Speaker 1", "hi .", (DialogItem(S, "emotion", "happiness", 0),)),
        Turn("Speaker 2", "hello .", (DialogItem(A, "dialog_act", "inform", 1),)),
    )
    whole = dataclasses.replace(_instance([], TargetItem(R, "response", "y")), context=turns)
    prefix = dataclasses.replace(whole, task_name="other", context=turns[:1])
    carrier = {**whole.to_dict(), "context_turns": 2, "dialog_turns": [t.to_dict() for t in turns]}
    referring = {**prefix.to_dict(), "context_turns": 1}
    del carrier["context"], referring["context"]
    memo = ParseMemo()
    assert TaskInstance.from_dict(carrier, memo) == whole
    first, again = TaskInstance.from_dict(referring, memo), TaskInstance.from_dict(referring, memo)
    assert first == prefix
    assert first.context is again.context
    assert "context_turns" in referring and "dialog_turns" in carrier  # the rows are left as they were
    # Alone, or naming its dialog by anything but strings, the row has no turns to refer to.
    with pytest.raises(SchemaError) as exc:
        TaskInstance.from_dict(referring)
    assert exc.value.field_path == "context_turns"
    assert "whose dialog_turns are on no earlier line" in str(exc.value)
    for dataset in (7, None, ["ds"]):
        mistyped = {**referring, "provenance": {**referring["provenance"], "dataset": dataset}}
        with pytest.raises(SchemaError) as exc:
            TaskInstance.from_dict(mistyped, memo)
        assert exc.value.field_path == "provenance"


def test_validate_clean_instance():
    item = DialogItem(A, "begins_with", "hello", 1)
    inst = _instance([item], TargetItem(R, "response", "hello friend ."))
    assert validate_instance(inst) == []


def test_validate_reports_empty_values():
    bad = dataclasses.replace(
        _instance([DialogItem(A, "keywords", "", 1)], TargetItem(R, "response", "")), instruction=""
    )
    assert validate_instance(bad) == ["empty grounding item value", "empty target value", "empty instruction"]


def test_instance_signature_is_derived_from_its_items_when_built():
    items = (DialogItem(A, "begins_with", "hello", 1), DialogItem(S, "emotion", "happiness", 1))
    inst = _instance(items[:1], TargetItem(R, "response", "hello there ."))
    assert inst.signature is signature_of([A], R)
    with pytest.raises(InvalidGroundingComponent):
        _instance([DialogItem(C, "keywords", "hello", 1)], TargetItem(R, "response", "x"))
    with pytest.raises(InvalidTarget):
        _instance(items[:1], TargetItem(C, "response", "x"))
    # replace builds a new instance, so its signature follows the new items.
    both = dataclasses.replace(inst, grounding_items=items)
    assert both.signature is signature_of([S, A], R)
    assert both.signature.canonical_string() == "ICSA-R"
    assert both != inst and both.target_item is inst.target_item


def test_self_leak_requires_component_match():
    leak = _instance(
        [DialogItem(A, "emotion", "surprise", 1)],
        TargetItem(ComponentKind.ACTION, "emotion", "surprise"),
    )
    assert "self-leak" in validate_instance(leak)
    # An action phrase equal to the whole response is legal (boundary case).
    boundary = _instance(
        [DialogItem(A, "ends_with", "hello friend .", 1)],
        TargetItem(R, "response", "hello friend ."),
    )
    assert validate_instance(boundary) == []


def test_duplicate_grounding_item_detected():
    item = DialogItem(A, "begins_with", "hello", 1)
    dup = _instance([item, item], TargetItem(R, "response", "hello friend ."))
    assert "duplicate grounding item" in validate_instance(dup)


def test_item_sort_key_orders_components_canonically():
    items = [
        DialogItem(A, "begins_with", "b", 1),
        DialogItem(S, "emotion", "sad", 1),
        DialogItem(E, "persona", "p", 0),
        DialogItem(A, "begins_with", "a", 1),
    ]
    ordered = sorted(items, key=item_sort_key)
    assert [i.component for i in ordered] == [S, E, A, A]
    assert [i.value for i in ordered[2:]] == ["a", "b"]


def test_provenance_key_is_stable():
    assert _provenance(("a", "b")).key() == "ds/d0/t1/a+b"


def test_dialog_serialization():
    dialog = Dialog(
        dialog_id="d1",
        dataset="ds",
        turns=(Turn("Speaker 1", "hi .", (DialogItem(S, "emotion", "happiness", 0),)),),
        split="dev",
    )
    data = dialog.to_dict()
    assert data["split"] == "dev"
    assert data["turns"][0]["items"][0] == {"component": "S", "kind": "emotion", "value": "happiness"}


def test_dialog_from_dict_inverts_to_dict():
    dialog = Dialog(
        dialog_id="d1",
        dataset="ds",
        turns=(
            Turn("Speaker 1", "hi .", (DialogItem(S, "emotion", "happiness", 0),)),
            Turn(
                "Speaker 2",
                "hello .",
                (DialogItem(E, "persona", "i sing .", 1), DialogItem(A, "dialog_act", "inform", 1)),
            ),
        ),
        split="dev",
    )
    assert Dialog.from_dict(dialog.to_dict()) == dialog
