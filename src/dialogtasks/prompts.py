"""Prompt rendering: instruction templating, order-invariant section layout,
reasoning-prefix (chain-of-thought) transforms, and corpus-level rendering.

Layout contract: the Instruction section always comes first and the target
header always comes last; the dialog context and the grounding blocks in
between are shuffled per seed, so trained consumers become order invariant.
A naive prompt keeps that layout unshuffled: the dialog context, then one
"Label: value" line per grounding item.
"""

from __future__ import annotations

import json
import pkgutil
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, TypeVar

from .model import (
    ComponentKind,
    GROUNDING_ORDER,
    FIELD_NAMES,
    DialogItem,
    Provenance,
    TaskInstance,
    Turn,
    example_id,
    item_sort_key,
)
from .seeding import subseed
from .textutil import join_natural, split_keyword_list

T = TypeVar("T")

SECTION_INSTRUCTION = "Instruction:"
SECTION_CONTEXT = "Dialog Context:"

# One fixed header per component; the target header is the same string as the
# grounding block header for that component.
SECTION_HEADERS = {
    ComponentKind.STATE: "State:",
    ComponentKind.EVIDENCE: "Evidence:",
    ComponentKind.ACTION: "Actions:",
    ComponentKind.RESPONSE: "Response:",
}


class UnknownKind(KeyError):
    """Raised when an item kind has no phrase-table entry and fallback is off."""


class ShiftNotSubset(ValueError):
    """Raised when a reasoning shift names items the instance does not ground on."""


def _load_phrase_table() -> Dict[str, Dict[str, str]]:
    return json.loads(pkgutil.get_data("dialogtasks", "data/phrases.json"))


_PHRASE_TABLE = _load_phrase_table()
PHRASES: Dict[str, str] = _PHRASE_TABLE["phrases"]
NAIVE_LABELS: Dict[str, str] = _PHRASE_TABLE["naive_labels"]


@dataclass(frozen=True, slots=True)
class RenderOptions:
    """Rendering knobs; defaults match the shipped corpus format."""

    block_shuffle: bool = True
    generic_fallback: bool = False


@dataclass(frozen=True, slots=True)
class RenderedExample:
    """The final (input text, output text) pair plus everything needed to trace it."""

    input_text: str
    output_text: str
    sections: Tuple[Tuple[str, str], ...]
    task_name: str
    signature: str
    provenance: Provenance
    style: str = "standard"

    def to_record(self) -> Dict[str, Any]:
        return {
            "id": example_id(self.provenance, self.style),
            "input": self.input_text,
            "output": self.output_text,
            "task": self.task_name,
            "signature": self.signature,
            "dataset": self.provenance.dataset,
            "split": self.provenance.split,
            "provenance": self.provenance.to_dict(),
        }


# One shared instruction string per (target, set of grounding components).
_INSTRUCTIONS: Dict[Tuple[ComponentKind, FrozenSet[ComponentKind]], str] = {}


def build_instruction(target: ComponentKind, grounding: Iterable[ComponentKind]) -> str:
    """Template grammar for instructions.

    Produces e.g. "Provide the correct value for response fields given the
    dialog context and action fields." — naming the dialog context plus every
    distinct grounding component, in canonical order, and nothing else.
    Every call with the same target and component set returns the same
    shared string.
    """
    key = (target, frozenset(grounding))
    instruction = _INSTRUCTIONS.get(key)
    if instruction is None:
        present = sorted(key[1], key=GROUNDING_ORDER.__getitem__)
        fields = ["dialog context"] + [FIELD_NAMES[c] for c in present]
        instruction = _INSTRUCTIONS[key] = (
            f"Provide the correct value for {FIELD_NAMES[target]} fields "
            f"given the {join_natural(fields)} fields."
        )
    return instruction


def format_item_value(kind: str, value: str) -> str:
    """Kind-specific value formatting for the phrase table.

    Keyword lists are stored comma-joined; each keyword renders individually
    backquoted, e.g. ``thing'' and ``flat''.
    """
    if kind == "keywords":
        return join_natural([f"``{k}''" for k in split_keyword_list(value)])
    return value


def phrase_for_item(item: DialogItem, generic_fallback: bool = False) -> str:
    """One rendered line for one grounding item."""
    template = PHRASES.get(item.kind)
    if template is None:
        if not generic_fallback:
            raise UnknownKind(item.kind)
        pretty = item.kind.replace("_", " ")
        return f"The {pretty} is: {item.value}"
    return template.format(value=format_item_value(item.kind, item.value))


def _context_body(inst: TaskInstance) -> str:
    return "\n".join(f"{turn.speaker}: {turn.text}" for turn in inst.context)


def _grounding_blocks(
    inst: TaskInstance, rng: random.Random, options: RenderOptions
) -> List[Tuple[str, str]]:
    """Group items by component into one block each, in canonical order."""
    by_component: Dict[ComponentKind, List[DialogItem]] = {}
    for item in inst.grounding_items:
        by_component.setdefault(item.component, []).append(item)
    blocks: List[Tuple[str, str]] = []
    for component in sorted(by_component, key=GROUNDING_ORDER.__getitem__):
        items = by_component[component]
        if options.block_shuffle and len(items) > 1:
            rng.shuffle(items)
        lines = [phrase_for_item(item, options.generic_fallback) for item in items]
        blocks.append((SECTION_HEADERS[component], "\n".join(lines)))
    return blocks


def _output_text(inst: TaskInstance) -> str:
    """Target value, preceded by any shifted reasoning items in canonical order."""
    prefix = [item.value for item in inst.cot_items]
    return "\n".join(prefix + [inst.target_item.value])


def _assemble(sections: List[Tuple[str, str]]) -> str:
    parts = []
    for label, body in sections:
        if label == SECTION_INSTRUCTION:
            parts.append(f"{label} {body}")
        elif body:
            parts.append(f"{label}\n{body}")
        else:
            parts.append(label)
    return "\n".join(parts)


def render(inst: TaskInstance, seed: int, options: Optional[RenderOptions] = None) -> RenderedExample:
    """Render one instance to a prompt/completion pair.

    Standard style: [Instruction] ++ shuffle(seed, [Dialog Context] ++ grounding
    blocks) ++ [target header]. Naive style: fixed order with each item on its
    own natively labeled line.
    """
    return _example(inst, _sections(inst, random.Random(seed), options or RenderOptions(), _context_body(inst)))


def _sections(
    inst: TaskInstance, rng: random.Random, options: RenderOptions, context_body: str
) -> List[Tuple[str, str]]:
    """An instance's (label, body) sections in prompt order, given its context joined into its body.

    rng must be seeded with the instance's seed; only a standard instance
    with grounding items draws from it.
    """
    middle: List[Tuple[str, str]] = [(SECTION_CONTEXT, context_body)]
    if inst.style == "naive":  # one natively labeled line per item, in the instance's order
        for item in inst.grounding_items:
            label = NAIVE_LABELS.get(item.kind, item.kind.replace("_", " ").title())
            middle.append((f"{label}: {item.value}" if item.value else f"{label}:", ""))
    elif inst.grounding_items:  # a middle of the context alone draws nothing
        middle.extend(_grounding_blocks(inst, rng, options))
        rng.shuffle(middle)
    return [(SECTION_INSTRUCTION, inst.instruction), *middle, (SECTION_HEADERS[inst.signature.target], "")]


def _example(inst: TaskInstance, sections: List[Tuple[str, str]]) -> RenderedExample:
    return RenderedExample(
        input_text=_assemble(sections),
        output_text=_output_text(inst),
        sections=tuple(sections),
        task_name=inst.task_name,
        signature=inst.signature.canonical_string(),
        provenance=inst.provenance,
        style=inst.style,
    )


def with_texts(inst: TaskInstance, sections: List[Tuple[str, str]]) -> Tuple[TaskInstance, str, str]:
    """render_corpus's maker for export rows: the instance with its input and output text."""
    return inst, _assemble(sections), _output_text(inst)


def cot_transform(inst: TaskInstance, shift: Iterable[DialogItem]) -> TaskInstance:
    """Shift a subset of grounding items from the input into the output.

    The returned instance grounds on the remaining items only; the shifted
    items render (header-free, in canonical component order) as reasoning text
    before the target value. An empty shift is the identity.
    """
    shifted = list(shift)
    if not shifted:
        return inst
    remaining = list(inst.grounding_items)
    for item in shifted:
        try:
            remaining.remove(item)
        except ValueError:
            raise ShiftNotSubset(f"item not in grounding: {item!r}") from None
    ordered_shift = sorted(shifted, key=item_sort_key)
    return TaskInstance(
        task_name=inst.task_name,
        instruction=build_instruction(inst.target_item.component, (i.component for i in remaining)),
        context=inst.context,
        grounding_items=tuple(remaining),
        target_item=inst.target_item,
        provenance=inst.provenance,
        cot_items=inst.cot_items + tuple(ordered_shift),
        style=inst.style,
    )


def parse_cot_mode(mode: str) -> Optional[int]:
    """K of a "random-K" reasoning-shift mode, or None for "none".

    K is an integer >= 0, and "random-0" shifts nothing. Any other mode is a
    ValueError that names it.
    """
    if mode == "none":
        return None
    match = re.fullmatch(r"random-([0-9]+)", mode)
    if match is None:
        raise ValueError(f"unknown cot mode {mode!r}: expected none or random-K with an integer K >= 0")
    return int(match.group(1))


def apply_cot(instances: List[TaskInstance], mode: str, seed: int) -> List[TaskInstance]:
    """Bulk reasoning-shift helper for the CLI: mode is "none" or "random-K".

    Each instance shifts K of its grounding items, drawn with a seed derived
    from its identity, or all of them when it has no more than K. One Random
    serves the call, re-seeded per drawing instance, which leaves it in the
    state a new Random of that seed has.
    """
    k = parse_cot_mode(mode)
    if k is None:
        return list(instances)
    rng = random.Random()
    out = []
    for inst in instances:
        items = inst.grounding_items
        if 0 < k < len(items):
            rng.seed(subseed(seed, "cot", inst.provenance.key(), inst.task_name))
            shift = rng.sample(items, k)
        else:
            # Shifting nothing or everything draws nothing that reaches the
            # output: cot_transform sorts the shifted items.
            shift = items if k else ()
        out.append(cot_transform(inst, shift))
    return out


def render_corpus(
    instances: Iterable[TaskInstance],
    seed: int,
    options: Optional[RenderOptions] = None,
    make: Callable[[TaskInstance, List[Tuple[str, str]]], T] = _example,
) -> Tuple[List[T], List[Dict[str, Any]]]:
    """Render every instance with a per-instance derived seed.

    Deterministic and order-preserving; per-instance failures are collected as
    error records with provenance instead of aborting the batch. Each result
    is make(instance, sections): a RenderedExample by default, or with
    with_texts the instance with its input and output text, from which
    export builds its JSONL rows. Each distinct context tuple
    is joined into its section body once per call: instances of one position
    share one tuple, as derive, compose and read_instances hand it out. One
    Random serves the call, re-seeded for each instance that draws from it.
    """
    options = options or RenderOptions()
    rendered: List[T] = []
    errors: List[Dict[str, Any]] = []
    # id(context) -> (context, body); holding the context keeps its id unused.
    bodies: Dict[int, Tuple[Tuple[Turn, ...], str]] = {}
    rng = random.Random()
    for inst in instances:
        if inst.style != "naive" and inst.grounding_items:  # the instances _sections draws for
            rng.seed(subseed(seed, "render", inst.provenance.key(), inst.task_name))
        known = bodies.get(id(inst.context))
        if known is None:
            known = bodies[id(inst.context)] = (inst.context, _context_body(inst))
        try:
            rendered.append(make(inst, _sections(inst, rng, options, known[1])))
        except (UnknownKind, ValueError) as exc:
            errors.append(
                {
                    "task_name": inst.task_name,
                    "provenance": inst.provenance.to_dict(),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return rendered, errors
