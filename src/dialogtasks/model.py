"""Core type system: dialog components, dialog items, task signatures, task instances.

A task is written as an "IC<grounding>-<target>" signature: an instruction, the
dialog context, a multiset of grounding items drawn from {S, E, A}, and exactly
one output component from {S, E, A, R}. The "-" delineates the input from the
output. All types here are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
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

GROUNDING_COMPONENTS = (ComponentKind.STATE, ComponentKind.EVIDENCE, ComponentKind.ACTION)

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


def _checked(value: Any, kind: type) -> Any:
    """``value`` itself if it is a ``kind`` as JSON decodes one; TypeError otherwise.

    A bool is not accepted as an int, so ``true`` is no turn index or seed.
    """
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TypeError(f"expected {kind.__name__}, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class DialogItem:
    """One unit of dialog information mapped to a component.

    component: S, E, or A (checked by validate_instance, not the constructor,
    so malformed items can be built and then reported as violations).
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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DialogItem":
        return cls(
            component=ComponentKind(data["component"]),
            kind=_checked(data["kind"], str),
            value=_checked(data["value"], str),
            turn_index=_checked(data.get("turn_index", 0), int),
        )


@dataclass(frozen=True)
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


def turns_from_dicts(rows: List[Dict[str, Any]]) -> Tuple[Turn, ...]:
    """Parse turns as Turn.to_dict writes them.

    The turns are a prefix of their source dialog, so an item's turn_index
    is the position of its enclosing turn.
    """
    return tuple(
        Turn(
            speaker=_checked(turn["speaker"], str),
            text=_checked(turn["text"], str),
            items=tuple(
                DialogItem.from_dict({**item, "turn_index": index})
                for item in _checked(turn.get("items", []), list)
            ),
        )
        for index, turn in enumerate(_checked(rows, list))
    )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TaskSignature:
    """A canonicalized grounding multiset plus one target component.

    grounding is kept sorted in canonical S < E < A order; build signatures
    through signature_of so permuted inputs canonicalize identically.
    """

    grounding: Tuple[ComponentKind, ...]
    target: ComponentKind

    def __post_init__(self) -> None:
        if self.target not in TARGET_COMPONENTS:
            raise InvalidTarget(f"target must be one of S, E, A, R, not {self.target!r}")
        for component in self.grounding:
            if component not in GROUNDING_ORDER:
                raise InvalidGroundingComponent(
                    f"grounding may only contain S, E, A, not {component!r}"
                )

    def dimension(self) -> int:
        return len(self.grounding)

    @property
    def is_atomic(self) -> bool:
        return self.dimension() <= 1

    @property
    def is_compositional(self) -> bool:
        return self.dimension() >= 2

    def canonical_string(self) -> str:
        letters = "".join(c.value for c in self.grounding)
        return f"IC{letters}-{self.target.value}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical_string()


def signature_of(grounding: Iterable[ComponentKind], target: ComponentKind) -> TaskSignature:
    """Build the canonical signature for a grounding multiset and target.

    Idempotent under permutation of the grounding: ([E, A], R) and ([A, E], R)
    both canonicalize to ICEA-R.
    """
    components = list(grounding)
    for component in components:
        if component not in GROUNDING_ORDER:
            raise InvalidGroundingComponent(
                f"grounding may only contain S, E, A, not {component!r}"
            )
    if target not in TARGET_COMPONENTS:
        raise InvalidTarget(f"target must be one of S, E, A, R, not {target!r}")
    ordered = tuple(sorted(components, key=GROUNDING_ORDER.__getitem__))
    return TaskSignature(grounding=ordered, target=target)


def parse_signature(text: str) -> TaskSignature:
    """Parse a signature string like "ICEA-R" into a canonical TaskSignature."""
    if not text.startswith("IC") or "-" not in text:
        raise ValueError(f"not a task signature: {text!r}")
    body, _, target_letter = text.partition("-")
    letters = body[2:]
    try:
        grounding = [ComponentKind(ch) for ch in letters]
        target = ComponentKind(target_letter)
    except ValueError as exc:
        raise ValueError(f"not a task signature: {text!r}") from exc
    return signature_of(grounding, target)


@dataclass(frozen=True)
class TargetItem:
    """The single output the task expects: component, item family, gold value."""

    component: ComponentKind
    kind: str
    value: str

    def to_dict(self) -> Dict[str, Any]:
        return {"component": self.component.value, "kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TargetItem":
        return cls(
            component=ComponentKind(data["component"]),
            kind=_checked(data["kind"], str),
            value=_checked(data["value"], str),
        )


@dataclass(frozen=True)
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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Provenance":
        return cls(
            dataset=_checked(data["dataset"], str),
            dialog_id=_checked(data["dialog_id"], str),
            split=_checked(data.get("split", "train"), str),
            target_turn_index=_checked(data["target_turn_index"], int),
            source_tasks=tuple(_checked(t, str) for t in _checked(data["source_tasks"], list)),
            seed=_checked(data["seed"], int),
        )


@dataclass(frozen=True)
class TaskInstance:
    """One concrete task: signature, instruction, context, grounding, target.

    style is "standard" for template-rendered instances and "naive" for
    baseline instances built by plain instruction concatenation.
    cot_items holds grounding items that have been shifted into the output
    as reasoning text; they are rendered before the target value.
    """

    signature: TaskSignature
    task_name: str
    instruction: str
    context: Tuple[Turn, ...]
    grounding_items: Tuple[DialogItem, ...]
    target_item: TargetItem
    provenance: Provenance
    cot_items: Tuple[DialogItem, ...] = ()
    style: str = "standard"

    def to_dict(self) -> Dict[str, Any]:
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
    def from_dict(cls, data: Dict[str, Any]) -> "TaskInstance":
        """Parse one row as to_dict writes it.

        ``context`` may also be a tuple of Turn parsed beforehand, which the
        instance then holds as it is: read_instances resolves a row's
        ``context_turns`` that way, to one tuple shared per dialog prefix.
        A missing or mistyped field raises SchemaError naming the field.
        """
        if "context_turns" in data:
            raise SchemaError(
                "context_turns",
                problem="context_turns refers to turns elsewhere in its file; read it with read_instances",
            )
        # One try for the whole row; ``field`` names the field being parsed.
        field = "signature"
        try:
            signature = parse_signature(data["signature"])
            field = "task_name"
            task_name = _checked(data["task_name"], str)
            field = "instruction"
            instruction = _checked(data["instruction"], str)
            field = "context"
            context = data.get("context", ())
            if type(context) is not tuple:
                context = turns_from_dicts(context)
            field = "grounding_items"
            grounding_items = tuple(DialogItem.from_dict(i) for i in _checked(data["grounding_items"], list))
            field = "target_item"
            target_item = TargetItem.from_dict(data["target_item"])
            field = "provenance"
            provenance = Provenance.from_dict(data["provenance"])
            field = "cot_items"
            cot_items = tuple(DialogItem.from_dict(i) for i in _checked(data.get("cot_items", []), list))
            field = "style"
            style = _checked(data.get("style", "standard"), str)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(field) from exc
        return cls(
            signature=signature,
            task_name=task_name,
            instruction=instruction,
            context=context,
            grounding_items=grounding_items,
            target_item=target_item,
            provenance=provenance,
            cot_items=cot_items,
            style=style,
        )


def validate_instance(inst: TaskInstance) -> List[str]:
    """Return the list of violated structural invariants; [] means valid.

    Violations are data, not exceptions, so corpora can be audited in bulk.
    """
    violations: List[str] = []

    expected = tuple(sorted(inst.signature.grounding, key=GROUNDING_ORDER.__getitem__))
    actual_components = [item.component for item in inst.grounding_items]
    try:
        actual = tuple(sorted(actual_components, key=GROUNDING_ORDER.__getitem__))
    except KeyError:
        actual = None
    for item in inst.grounding_items:
        if item.component not in GROUNDING_ORDER:
            violations.append("grounding item component must be S, E, or A")
        if not item.value:
            violations.append("empty grounding item value")
    if actual is None or actual != expected:
        violations.append("grounding/signature mismatch")
    if inst.target_item.component != inst.signature.target:
        violations.append("target/signature mismatch")
    if not inst.target_item.value:
        violations.append("empty target value")
    if not inst.instruction:
        violations.append("empty instruction")

    # Self-leak: a grounding item that IS the answer. Only fires when the
    # item lives in the same component as the target; an action phrase that
    # happens to equal the whole response (ends-with at the boundary) is legal.
    for item in inst.grounding_items:
        if item.component == inst.target_item.component and item.value == inst.target_item.value:
            violations.append("self-leak")
            break

    seen = set()
    for item in inst.grounding_items:
        key = (item.component, item.kind, item.value, item.turn_index)
        if key in seen:
            violations.append("duplicate grounding item")
            break
        seen.add(key)

    return violations


def instance_sort_key(inst: TaskInstance) -> Tuple[str, str]:
    """Canonical ordering for corpora: provenance first, then task name."""
    return (inst.provenance.key(), inst.task_name)


def item_sort_key(item: DialogItem) -> Tuple[int, str, str, int]:
    """Canonical ordering for grounding items: S < E < A, then kind, value, turn."""
    return (GROUNDING_ORDER[item.component], item.kind, item.value, item.turn_index)
