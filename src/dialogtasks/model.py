"""Core type system: dialog components, dialog items, task signatures, task instances.

A task is written as an "IC<grounding>-<target>" signature: an instruction, the
dialog context, a multiset of grounding items drawn from {S, E, A}, and exactly
one output component from {S, E, A, R}. The "-" delineates the input from the
output. All types here are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Tuple


class ComponentKind(str, Enum):
    """The five dialog components. C and R never appear inside a grounding multiset."""

    CONTEXT = "C"
    STATE = "S"
    EVIDENCE = "E"
    ACTION = "A"
    RESPONSE = "R"


# Canonical ordering of grounding components: S < E < A.
GROUNDING_ORDER = {
    ComponentKind.STATE: 0,
    ComponentKind.EVIDENCE: 1,
    ComponentKind.ACTION: 2,
}

TARGET_COMPONENTS = (
    ComponentKind.STATE,
    ComponentKind.EVIDENCE,
    ComponentKind.ACTION,
    ComponentKind.RESPONSE,
)

# Lowercase field names used by the instruction template.
FIELD_NAMES = {
    ComponentKind.STATE: "state",
    ComponentKind.EVIDENCE: "evidence",
    ComponentKind.ACTION: "action",
    ComponentKind.RESPONSE: "response",
}

# The splits of dialogs and instances (export writes one file per split),
# and the styles of instances.
SPLITS = ("train", "dev", "test")
STYLES = ("standard", "naive")


class InvalidTarget(ValueError):
    """Raised when a task target is Context or not a component at all."""


class InvalidGroundingComponent(ValueError):
    """Raised when a grounding multiset contains Context or Response."""


class SchemaError(ValueError):
    """A record missing or mistyping a required field; names the field path.

    ``problem`` replaces the default "missing or invalid field <path>" text
    when the field is well-formed but conflicts with another record.
    """

    def __init__(self, field_path: str, line_number: Optional[int] = None,
                 problem: Optional[str] = None):
        self.field_path = field_path
        self.line_number = line_number
        self.problem = problem
        where = f"line {line_number}: " if line_number is not None else ""
        super().__init__(f"{where}{problem or f'missing or invalid field {field_path}'}")


def _checked(value: Any, kind: type, path: str) -> Any:
    """``value`` itself if its type is exactly ``kind``; SchemaError(path) otherwise.

    JSON decodes to dict, list, str, int, float, bool and None and never to
    a subclass, so the exact type is the whole test: a bool is no int, so
    ``true`` is no turn index or seed, and None is no value of any kind, so
    ``_checked(data.get(key), ...)`` also rejects a missing key. A value
    that passes is safe to key a memo on, as ``true`` and ``1.0``, which
    equal and hash like ``1``, never pass as an int.
    """
    if type(value) is not kind:
        raise SchemaError(path)
    return value


def _checked_name(value: Any, path: str) -> str:
    """``_checked(value, str, path)`` for a string a seed hashes, which must also encode as UTF-8.

    JSON's ``"\\ud800"`` decodes to a lone surrogate, which stable_hash
    cannot encode, so a dataset, dialog id, task name or source task
    holding one is refused where it is read, with its line and field, not
    where a seed is drawn.
    """
    if not _checked(value, str, path).isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(path) from None
    return value


@dataclass(frozen=True, slots=True)
class DialogItem:
    """One unit of dialog information mapped to a component.

    component: S, E, or A in a task (a TaskInstance holding any other
    component raises InvalidGroundingComponent when it is built).
    kind: item family label, e.g. "keyword", "persona", "emotion", "begins_with".
    value: text payload.
    turn_index: 0-based index of the turn this item annotates.
    """

    component: ComponentKind
    kind: str
    value: str
    turn_index: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component.value,
            "kind": self.kind,
            "value": self.value,
            "turn_index": self.turn_index,
        }


@dataclass(frozen=True, slots=True)
class Turn:
    """One speaker turn, optionally annotated with dialog items."""

    speaker: str
    text: str
    items: Tuple[DialogItem, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "speaker": self.speaker,
            "text": self.text,
            "items": [
                {"component": i.component.value, "kind": i.kind, "value": i.value}
                for i in self.items
            ],
        }


def turns_from_dicts(rows: Any) -> Tuple[Turn, ...]:
    """Parse the turns of the dialog format, as Turn.to_dict writes them.

    Every turn is ``{speaker, text, items[]}``, every item ``{component,
    kind, value}`` with component S, E or A, and each of these a string. A
    missing or mistyped field raises SchemaError naming its path, such as
    ``turns[1].items[0].kind``. The turns are a prefix of their source
    dialog, so an item's turn_index is the position of its enclosing turn.
    """
    turns: List[Turn] = []
    for t_index, raw_turn in enumerate(_checked(rows, list, "turns")):
        path = f"turns[{t_index}]"
        _checked(raw_turn, dict, path)
        items: List[DialogItem] = []
        for i_index, raw_item in enumerate(_checked(raw_turn.get("items", []), list, f"{path}.items")):
            item_path = f"{path}.items[{i_index}]"
            _checked(raw_item, dict, item_path)
            component = raw_item.get("component")
            if component not in ("S", "E", "A"):
                raise SchemaError(f"{item_path}.component")
            items.append(
                DialogItem(
                    component=ComponentKind(component),
                    kind=_checked(raw_item.get("kind"), str, f"{item_path}.kind"),
                    value=_checked(raw_item.get("value"), str, f"{item_path}.value"),
                    turn_index=t_index,
                )
            )
        turns.append(
            Turn(
                speaker=_checked(raw_turn.get("speaker"), str, f"{path}.speaker"),
                text=_checked(raw_turn.get("text"), str, f"{path}.text"),
                items=tuple(items),
            )
        )
    return tuple(turns)


@dataclass(frozen=True, slots=True)
class Dialog:
    """An ordered list of speaker turns from one source dataset."""

    dialog_id: str
    dataset: str
    turns: Tuple[Turn, ...]
    split: str = "train"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dialog_id": self.dialog_id,
            "dataset": self.dataset,
            "split": self.split,
            "turns": [t.to_dict() for t in self.turns],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Dialog":
        """Parse a record as to_dict writes it; SchemaError names a bad field's path."""
        return cls(
            dialog_id=_checked_name(data.get("dialog_id"), "dialog_id"),
            dataset=_checked_name(data.get("dataset"), "dataset"),
            split=_checked(data.get("split"), str, "split"),
            turns=turns_from_dicts(data.get("turns")),
        )


@dataclass(frozen=True, slots=True)
class TaskSignature:
    """A grounding multiset plus one target component, canonical however it is built.

    The constructor checks the grounding components, then the target, and
    stores members with the grounding sorted S < E < A, so permuted inputs,
    members or letters, give equal signatures. signature_of shares one
    object per shape.
    """

    grounding: Tuple[ComponentKind, ...]
    target: ComponentKind
    # The canonical string, stored once per signature; see canonical_string.
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(self.grounding)  # any iterable, read once
        for component in components:
            if component not in GROUNDING_ORDER:
                raise InvalidGroundingComponent(f"grounding may only contain S, E, A, not {component!r}")
        if self.target not in TARGET_COMPONENTS:
            raise InvalidTarget(f"target must be one of S, E, A, R, not {self.target!r}")
        grounding = tuple(sorted(map(ComponentKind, components), key=GROUNDING_ORDER.__getitem__))
        target = ComponentKind(self.target)
        object.__setattr__(self, "grounding", grounding)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_text", f"IC{''.join(c.value for c in grounding)}-{target.value}")

    def dimension(self) -> int:
        return len(self.grounding)

    @property
    def is_atomic(self) -> bool:
        return self.dimension() <= 1

    def canonical_string(self) -> str:
        return self._text


# One shared TaskSignature per grounding shape and target; see signature_of.
# Keys hold the grounding as callers passed it (in any order, as members or
# letters) and as the signature stores it.
_SIGNATURES: Dict[Tuple[Tuple[ComponentKind, ...], ComponentKind], TaskSignature] = {}


def signature_of(grounding: Iterable[ComponentKind], target: ComponentKind) -> TaskSignature:
    """The shared canonical signature for a grounding multiset and target.

    Idempotent under permutation of the grounding: ([E, A], R) and ([A, E], R)
    both give ICEA-R. Every call with the same shape returns the same shared
    object; compare signatures with ==, which also holds for ones built directly.
    """
    key = (tuple(grounding), target)
    signature = _SIGNATURES.get(key)
    if signature is None:
        signature = TaskSignature(*key)
        signature = _SIGNATURES[key] = _SIGNATURES.setdefault((signature.grounding, signature.target), signature)
    return signature


def parse_signature(text: str) -> TaskSignature:
    """Parse a signature string like "ICEA-R" into the shared canonical TaskSignature."""
    if not text.startswith("IC") or "-" not in text:
        raise ValueError(f"not a task signature: {text!r}")
    body, _, target_letter = text.partition("-")
    try:
        return signature_of(body[2:], target_letter)
    except ValueError as exc:
        raise ValueError(f"not a task signature: {text!r}") from exc


@dataclass(frozen=True, slots=True)
class TargetItem:
    """The single output the task expects: component, item family, gold value."""

    component: ComponentKind
    kind: str
    value: str

    def to_dict(self) -> Dict[str, Any]:
        return {"component": self.component.value, "kind": self.kind, "value": self.value}


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where an instance came from, enough to reproduce or sort it stably."""

    dataset: str
    dialog_id: str
    split: str
    target_turn_index: int
    source_tasks: Tuple[str, ...]
    seed: int

    def key(self) -> str:
        """Stable sort / identity key for sampling and deterministic output order."""
        tasks = "+".join(self.source_tasks)
        return f"{self.dataset}/{self.dialog_id}/t{self.target_turn_index}/{tasks}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "dialog_id": self.dialog_id,
            "split": self.split,
            "target_turn_index": self.target_turn_index,
            "source_tasks": list(self.source_tasks),
            "seed": self.seed,
        }


class ParseMemo:
    """The values parsed so far from the rows of one file, each held once.

    TaskInstance.from_dict parses a grounding, cot or target item, or a
    source_tasks list only the first time a memo meets it, and hands every
    later row the same object; task names, instructions, datasets, dialog
    ids, splits and styles share one string per value (and signature_of
    each signature, module-wide). A value is looked up only after _checked
    has passed each of its fields, so a key never holds ``true`` or ``1.0``
    where a row had ``1``: a row that would not parse on its own fails as
    it would without the memo. An item is S, E or A, a target S, E, A or R.
    The memo also holds the turns of every dialog whose ``dialog_turns`` it
    has read, and one context tuple per (dialog, prefix length), for the
    rows that refer to them by ``context_turns``. A memo grows with the
    distinct values it meets, so keep one per file read.
    """

    __slots__ = ("items", "targets", "tasks", "strings", "dialogs")

    def __init__(self) -> None:
        self.items: Dict[Tuple[str, str, str, int], DialogItem] = {}
        self.targets: Dict[Tuple[str, str, str], TargetItem] = {}
        self.tasks: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self.strings: Dict[str, str] = {}
        # A dialog's turns, and the prefixes of them handed out so far, by length.
        self.dialogs: Dict[Tuple[str, str], Tuple[Tuple[Turn, ...], Dict[int, Tuple[Turn, ...]]]] = {}

    def string(self, value: Any, path: str) -> str:
        value = _checked(value, str, path)
        return self.strings.setdefault(value, value)

    def name(self, value: Any, path: str) -> str:
        """string() for a value a seed hashes; see _checked_name."""
        value = _checked_name(value, path)
        return self.strings.setdefault(value, value)

    def item(self, data: Any) -> DialogItem:
        data = _checked(data, dict, "item")
        key = (
            _checked(data.get("component"), str, "component"),
            _checked(data.get("kind"), str, "kind"),
            _checked(data.get("value"), str, "value"),
            _checked(data.get("turn_index", 0), int, "turn_index"),
        )
        item = self.items.get(key)
        if item is None:
            if key[0] not in GROUNDING_ORDER:  # as turns_from_dicts refuses it in a turn
                raise SchemaError("component")
            item = self.items[key] = DialogItem(ComponentKind(key[0]), *key[1:])
        return item

    def target(self, data: Any) -> TargetItem:
        data = _checked(data, dict, "target_item")
        key = (
            _checked(data.get("component"), str, "component"),
            _checked(data.get("kind"), str, "kind"),
            _checked(data.get("value"), str, "value"),
        )
        target = self.targets.get(key)
        if target is None:
            if key[0] not in TARGET_COMPONENTS:  # as item refuses a grounding component
                raise SchemaError("component")
            target = self.targets[key] = TargetItem(ComponentKind(key[0]), *key[1:])
        return target

    def source_tasks(self, names: Any) -> Tuple[str, ...]:
        key = tuple(_checked_name(name, "source_tasks") for name in _checked(names, list, "source_tasks"))
        return self.tasks.setdefault(key, key)

    def provenance(self, data: Any) -> Provenance:
        """A row's provenance; its split must be one of SPLITS, as export names a file after it."""
        data = _checked(data, dict, "provenance")
        split = self.string(data.get("split", "train"), "split")
        if split not in SPLITS:
            raise SchemaError("split")
        return Provenance(
            dataset=self.name(data.get("dataset"), "dataset"),
            dialog_id=self.name(data.get("dialog_id"), "dialog_id"),
            split=split,
            target_turn_index=_checked(data.get("target_turn_index"), int, "target_turn_index"),
            source_tasks=self.source_tasks(data.get("source_tasks")),
            seed=_checked(data.get("seed"), int, "seed"),
        )

    def context(self, data: Dict[str, Any]) -> Tuple[Turn, ...]:
        """The context a row's ``context_turns`` refers to, first storing any ``dialog_turns`` it carries.

        SchemaError names ``provenance``, whose dataset and dialog id name
        the dialog, ``dialog_turns`` or ``context_turns``.
        """
        provenance = _checked(data.get("provenance"), dict, "provenance")
        dataset = self.string(provenance.get("dataset"), "provenance")
        key = (dataset, self.string(provenance.get("dialog_id"), "provenance"))
        if "dialog_turns" in data:
            try:
                self.dialogs[key] = (turns_from_dicts(data["dialog_turns"]), {})
            except SchemaError as exc:
                raise SchemaError("dialog_turns") from exc
        if key not in self.dialogs:
            raise SchemaError(
                "context_turns",
                problem=f"context_turns refers to dialog {key[0]}/{key[1]}, "
                "whose dialog_turns are on no earlier line",
            )
        turns, prefixes = self.dialogs[key]
        n = data["context_turns"]
        if type(n) is not int or not 0 <= n <= len(turns):
            raise SchemaError("context_turns")
        context = prefixes.get(n)
        if context is None:
            context = prefixes[n] = turns[:n]
        return context


def example_id(provenance: Provenance, style: str) -> str:
    """The id of an instance's rows in every file the tool writes.

    A naive composite has the provenance of the standard composite of the
    same two tasks, so its id carries its style as a marker ("#naive").
    """
    key = provenance.key()
    return key if style == "standard" else f"{key}#{style}"


@dataclass(frozen=True, slots=True)
class TaskInstance:
    """One concrete task: instruction, context, grounding, target, and their signature.

    signature is the shape of grounding_items and target_item, set when the
    instance is built. style is "standard", or "naive" for a baseline built
    by plain instruction concatenation. cot_items holds grounding items
    shifted into the output as reasoning text, rendered before the target.
    """

    task_name: str
    instruction: str
    context: Tuple[Turn, ...]
    grounding_items: Tuple[DialogItem, ...]
    target_item: TargetItem
    provenance: Provenance
    cot_items: Tuple[DialogItem, ...] = ()
    style: str = "standard"
    signature: TaskSignature = field(init=False, compare=False)

    def __post_init__(self) -> None:  # raises InvalidGroundingComponent or InvalidTarget
        components = [item.component for item in self.grounding_items]
        object.__setattr__(self, "signature", signature_of(components, self.target_item.component))

    def to_dict(self) -> Dict[str, Any]:
        """The row of this instance, with its context inline."""
        data: Dict[str, Any] = {
            "signature": self.signature.canonical_string(),
            "task_name": self.task_name,
            "instruction": self.instruction,
            "context": [t.to_dict() for t in self.context],
            "grounding_items": [i.to_dict() for i in self.grounding_items],
            "target_item": self.target_item.to_dict(),
            "provenance": self.provenance.to_dict(),
            "style": self.style,
        }
        if self.cot_items:
            data["cot_items"] = [i.to_dict() for i in self.cot_items]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any], memo: Optional[ParseMemo] = None) -> "TaskInstance":
        """Parse one row as to_dict or write_instances writes it.

        A row with ``context_turns`` takes its context from the turns of its
        dialog that ``memo`` holds, read from the ``dialog_turns`` of this
        row or an earlier one; a row with an inline ``context`` parses it.
        Rows parsed with one ``memo`` share every value it holds (see
        ParseMemo); read_instances keeps one per file.
        A missing or mistyped field, or a signature unlike the items' shape, raises SchemaError naming it.
        """
        memo = ParseMemo() if memo is None else memo
        context = memo.context(data) if "context_turns" in data else None
        # One try for the whole row; ``field`` names the field being parsed.
        field = "signature"
        try:
            signature = parse_signature(_checked(data.get("signature"), str, field))
            field = "task_name"
            task_name = memo.name(data.get("task_name"), field)
            field = "instruction"
            instruction = memo.string(data.get("instruction"), field)
            field = "context"
            if context is None:
                context = turns_from_dicts(data.get("context", []))
            field = "grounding_items"
            grounding_items = tuple(map(memo.item, _checked(data.get("grounding_items"), list, field)))
            field = "target_item"
            target_item = memo.target(data.get("target_item"))
            field = "provenance"
            provenance = memo.provenance(data.get("provenance"))
            field = "cot_items"
            cot_items = tuple(map(memo.item, _checked(data.get("cot_items", []), list, field)))
            field = "style"
            style = memo.string(data.get("style", "standard"), field)
            if style not in STYLES:
                raise SchemaError(field)
        except ValueError as exc:
            raise SchemaError(field) from exc
        inst = cls(
            task_name=task_name,
            instruction=instruction,
            context=context,
            grounding_items=grounding_items,
            target_item=target_item,
            provenance=provenance,
            cot_items=cot_items,
            style=style,
        )
        if inst.signature is not signature:
            raise SchemaError("signature", problem=f"signature {signature.canonical_string()} is not "
                              f"the shape of the row's items, {inst.signature.canonical_string()}")
        return inst


def validate_instance(inst: TaskInstance) -> List[str]:
    """Return the list of violated structural invariants; [] means valid.

    Violations are data, not exceptions, so corpora can be audited in bulk.
    """
    violations = ["empty grounding item value" for item in inst.grounding_items if not item.value]
    if not inst.target_item.value:
        violations.append("empty target value")
    if not inst.instruction:
        violations.append("empty instruction")

    # Self-leak: a grounding item that IS the answer, in the target's component;
    # an action phrase equal to the whole response (ends-with at the boundary) is legal.
    target = inst.target_item
    if any(item.component == target.component and item.value == target.value for item in inst.grounding_items):
        violations.append("self-leak")
    if len(set(inst.grounding_items)) != len(inst.grounding_items):
        violations.append("duplicate grounding item")
    return violations


def instance_sort_key(inst: TaskInstance) -> Tuple[str, str, str]:
    """Canonical ordering for corpora: provenance, task name, then style.

    A naive composite shares its provenance and task name with the standard
    composite of the same pair, so style breaks that tie.
    """
    return (inst.provenance.key(), inst.task_name, inst.style)


def item_sort_key(item: DialogItem) -> Tuple[int, str, str, int]:
    """Canonical ordering for grounding items: S < E < A, then kind, value, turn."""
    return (GROUNDING_ORDER[item.component], item.kind, item.value, item.turn_index)
