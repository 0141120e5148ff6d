"""Atomic task registry: the 18 task types derivable from an annotated dialog.

Every task answers the same question for one dialog and one target turn t:
what instruction, grounding items, and gold target does this task type yield
here? All tasks share one shape, so each is one row of a table: a target
(component, source), an optional grounding item (component, source), and
whether the task sees turn t. A source names the item family it produces and
reads its value from the dialog position. Conventions shared by all rows:

- Prediction and generation tasks see the context exclusively (turns[:t]) and
  their gold value comes from turn t. An item family stored on turn t that is
  used as an input constraint becomes an Action (it constrains a turn the
  model cannot see).
- Tagging tasks see the context inclusively (turns[:t+1]) and label the last
  visible utterance, so their target is a State.
- Evidence items stay Evidence everywhere; they describe participants or
  facts, not the hidden turn.

A source raises a DerivationError subclass when a dialog position cannot host
the task; derive_corpus skips those positions silently.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .model import (
    ComponentKind,
    Dialog,
    DialogItem,
    Provenance,
    TargetItem,
    TaskInstance,
    Turn,
    item_sort_key,
    signature_of,
    validate_instance,
)
from .prompts import build_instruction
from .seeding import subseed
from .textutil import is_content_token, length_class, tokenize

S = ComponentKind.STATE
E = ComponentKind.EVIDENCE
A = ComponentKind.ACTION
R = ComponentKind.RESPONSE


class DerivationError(ValueError):
    """This dialog position cannot host this task type."""


class TooShort(DerivationError):
    """The target turn has too few tokens for the requested span."""


class NoContentTokens(DerivationError):
    """The target turn has no keyword candidates after stopword filtering."""


class GoldMissing(DerivationError):
    """The dialog lacks the annotation item the task needs."""


# ---------------------------------------------------------------------------
# Span and keyword extraction over the gold response
# ---------------------------------------------------------------------------

PHRASE_LENGTHS = (2, 3, 4)
MAX_KEYWORDS = 3


def rank_keywords(text: Union[str, List[str]]) -> List[str]:
    """Keyword candidates of a text (or its token list), best first.

    Candidates are alphabetic non-stopword tokens. Rank by frequency (desc,
    case-folded), then first occurrence (asc), then the folded form; the first
    surface form of each folded token is kept.
    """
    tokens = tokenize(text) if isinstance(text, str) else text
    freq: Counter[str] = Counter()
    first_pos: Dict[str, int] = {}
    surface: Dict[str, str] = {}
    for pos, token in enumerate(tokens):
        if not is_content_token(token):
            continue
        folded = token.lower()
        freq[folded] += 1
        if folded not in first_pos:
            first_pos[folded] = pos
            surface[folded] = token
    ranked = sorted(first_pos, key=lambda folded: (-freq[folded], first_pos[folded], folded))
    return [surface[folded] for folded in ranked]


def select_keywords(ranked: List[str], rng: random.Random) -> List[str]:
    """Pick 1-3 keywords from rank_keywords' list, preserving rank order."""
    if not ranked:
        raise NoContentTokens("no keyword candidates")
    count = rng.randint(1, min(MAX_KEYWORDS, len(ranked)))
    picked = sorted(rng.sample(range(len(ranked)), count))
    return [ranked[i] for i in picked]


def _corrupt_tokens(tokens: Sequence[str], rng: random.Random) -> List[str]:
    """Deterministically perturb a token sequence into a non-identical draft."""
    if len(tokens) < 2:
        raise TooShort("need at least two tokens to build a draft")
    draft = list(tokens)
    op = rng.choice(("drop", "duplicate", "swap"))
    index = rng.randrange(len(draft))
    if op == "drop":
        del draft[index]
    elif op == "duplicate":
        draft.insert(index, draft[index])
    else:
        index = min(index, len(draft) - 2)
        draft[index], draft[index + 1] = draft[index + 1], draft[index]
    if draft == list(tokens):  # swapped a repeated token
        del draft[-1]
    return draft


# ---------------------------------------------------------------------------
# Value sources: what a row's target or grounding item reads at turn t
# ---------------------------------------------------------------------------

class _Position:
    """Target turn t of a dialog, tokenized and its keywords ranked at most once however many tasks read it.

    Every task at the position takes its context from here, so all of them
    share one tuple (turns[:t], or turns[:t+1] for tagging tasks): compose
    and render then meet the same object, not equal copies.
    """

    def __init__(self, dialog: Dialog, turn_index: int) -> None:
        self.dialog = dialog
        self.t = turn_index
        self.turn = dialog.turns[turn_index]

    @cached_property
    def tokens(self) -> List[str]:
        return tokenize(self.turn.text)

    @cached_property
    def ranked_keywords(self) -> List[str]:
        return rank_keywords(self.tokens)

    @cached_property
    def context(self) -> Tuple[Turn, ...]:
        return self.dialog.turns[: self.t]

    @cached_property
    def tagging_context(self) -> Tuple[Turn, ...]:
        return self.dialog.turns[: self.t + 1]

    def nonempty_tokens(self) -> List[str]:
        if not self.tokens:
            raise TooShort(f"turn {self.t} has no tokens")
        return self.tokens


# A source returns the value it reads and the index of the turn it describes;
# a random choice it makes is drawn from the task's seed.
Source = Callable[[_Position, int], Tuple[str, int]]


def _response(pos: _Position, seed: int) -> Tuple[str, int]:
    pos.nonempty_tokens()  # a response needs at least one token
    return pos.turn.text, pos.t


def _phrase_span(at_start: bool) -> Source:
    def source(pos: _Position, seed: int) -> Tuple[str, int]:
        tokens = pos.nonempty_tokens()
        lengths = [k for k in PHRASE_LENGTHS if k <= len(tokens)]
        if not lengths:
            raise TooShort(f"turn {pos.t} shorter than every phrase length")
        k = random.Random(seed).choice(lengths)
        return " ".join(tokens[:k] if at_start else tokens[-k:]), pos.t

    return source


def _keywords(pos: _Position, seed: int) -> Tuple[str, int]:
    return ", ".join(select_keywords(pos.ranked_keywords, random.Random(seed))), pos.t


def _length_class(pos: _Position, seed: int) -> Tuple[str, int]:
    return length_class(len(pos.nonempty_tokens())), pos.t


def _draft(pos: _Position, seed: int) -> Tuple[str, int]:
    return " ".join(_corrupt_tokens(pos.nonempty_tokens(), random.Random(seed))), pos.t


def _turn_item(kind: str) -> Source:
    """The value of turn t's item of one kind: a label or a knowledge snippet."""

    def source(pos: _Position, seed: int) -> Tuple[str, int]:
        for item in pos.turn.items:
            if item.kind == kind:
                return item.value, item.turn_index
        raise GoldMissing(f"turn {pos.t} has no {kind} item")

    return source


def _speaker_persona(pos: _Position, seed: int) -> Tuple[str, int]:
    """A persona line attached to any turn up to t of the target speaker."""
    turns = pos.dialog.turns
    candidates = [
        item
        for turn in turns[: pos.t + 1]
        for item in turn.items
        if item.kind == "persona" and turns[item.turn_index].speaker == pos.turn.speaker
    ]
    if not candidates:
        raise GoldMissing(f"speaker of turn {pos.t} has no persona item")
    item = random.Random(seed).choice(sorted(candidates, key=item_sort_key))
    return item.value, item.turn_index


# Sources that read turn t's text, keyed by the item family they produce.
TEXT_SOURCES: Dict[str, Source] = {
    "response": _response,
    "begins_with": _phrase_span(at_start=True),
    "ends_with": _phrase_span(at_start=False),
    "keywords": _keywords,
    "length_class": _length_class,
    "draft_response": _draft,
}

# Sources that look up an annotation item.
ITEM_SOURCES: Dict[str, Source] = {
    "emotion": _turn_item("emotion"),
    "dialog_act": _turn_item("dialog_act"),
    "knowledge": _turn_item("knowledge"),
    "persona": _speaker_persona,
}

SOURCES: Dict[str, Source] = {**TEXT_SOURCES, **ITEM_SOURCES}


# ---------------------------------------------------------------------------
# The task table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AtomicTaskDef:
    """One registered atomic task type: one row of the task table.

    target and grounding are (component, source) pairs; the source's name is
    the item family of the target or grounding item. tagging tasks see turn t
    and label it; all others see the turns before t.
    """

    name: str
    target: Tuple[ComponentKind, str]
    grounding: Optional[Tuple[ComponentKind, str]]
    description: str
    tagging: bool = False

    @property
    def signature(self) -> str:
        grounding = () if self.grounding is None else (self.grounding[0],)
        return signature_of(grounding, self.target[0]).canonical_string()

    def derive(self, pos: _Position, seed: int) -> TaskInstance:
        """Build the instance for one target turn, which other tasks may read too, or raise
        DerivationError; seed is this task's own."""
        dialog, turn_index = pos.dialog, pos.t
        # Text sources run before item lookups, so a turn without tokens
        # fails as TooShort or NoContentTokens whatever items it carries.
        early = self.grounding is not None and self.grounding[1] in TEXT_SOURCES
        grounding = [self._grounding_item(pos, seed)] if early else []
        component, family = self.target
        target = TargetItem(component, family, SOURCES[family](pos, seed)[0])
        if self.grounding is not None and not early:
            grounding.append(self._grounding_item(pos, seed))

        if turn_index < 1:
            raise DerivationError(f"target turn {turn_index} out of range")
        components = tuple(item.component for item in grounding)
        inst = TaskInstance(
            task_name=self.name,
            instruction=build_instruction(component, components),
            context=pos.tagging_context if self.tagging else pos.context,
            grounding_items=tuple(grounding),
            target_item=target,
            provenance=Provenance(
                dataset=dialog.dataset,
                dialog_id=dialog.dialog_id,
                split=dialog.split,
                target_turn_index=turn_index,
                source_tasks=(self.name,),
                seed=seed,
            ),
        )
        problems = validate_instance(inst)
        if problems:
            raise DerivationError(f"{self.name} at turn {turn_index}: {'; '.join(problems)}")
        return inst

    def _grounding_item(self, pos: _Position, seed: int) -> DialogItem:
        component, family = self.grounding
        value, turn_index = SOURCES[family](pos, seed)
        return DialogItem(component, family, value, turn_index)


_DEFS = (
    # name, target (component, source), grounding (component, source), description
    AtomicTaskDef("beginswith_controlled_generation", (R, "response"), (A, "begins_with"),
                  "Generate the next turn so it starts with a given phrase."),
    AtomicTaskDef("endswith_controlled_generation", (R, "response"), (A, "ends_with"),
                  "Generate the next turn so it ends with a given phrase."),
    AtomicTaskDef("keyword_controlled_generation", (R, "response"), (A, "keywords"),
                  "Generate the next turn so it contains given keywords."),
    AtomicTaskDef("response_generation_length", (R, "response"), (A, "length_class"),
                  "Generate the next turn at a given length class."),
    AtomicTaskDef("edit_generation", (R, "response"), (A, "draft_response"),
                  "Rewrite a draft into the correct next turn."),
    AtomicTaskDef("emotion_generation", (R, "response"), (A, "emotion"),
                  "Generate the next turn expressing a given emotion."),
    AtomicTaskDef("act_generation", (R, "response"), (A, "dialog_act"),
                  "Generate the next turn realizing a given dialog act."),
    AtomicTaskDef("persona_grounded_generation", (R, "response"), (E, "persona"),
                  "Generate the next turn consistent with a persona line."),
    AtomicTaskDef("knowledge_grounded_generation", (R, "response"), (E, "knowledge"),
                  "Generate the next turn grounded in a knowledge snippet."),
    AtomicTaskDef("response_generation", (R, "response"), None,
                  "Generate the next turn from the dialog context alone."),
    AtomicTaskDef("response_length_prediction", (A, "length_class"), None,
                  "Predict the length class of the hidden next turn."),
    AtomicTaskDef("emotion_prediction", (A, "emotion"), None,
                  "Predict the emotion of the hidden next turn."),
    AtomicTaskDef("act_prediction", (A, "dialog_act"), None,
                  "Predict the dialog act of the hidden next turn."),
    AtomicTaskDef("keyword_prediction", (A, "keywords"), None,
                  "Predict keywords of the hidden next turn."),
    AtomicTaskDef("emotion_tagging", (S, "emotion"), None,
                  "Label the emotion of the last visible utterance.", tagging=True),
    AtomicTaskDef("act_classification", (S, "dialog_act"), None,
                  "Label the dialog act of the last visible utterance.", tagging=True),
    AtomicTaskDef("persona_generation", (E, "persona"), None,
                  "Produce a persona line for the next speaker."),
    AtomicTaskDef("knowledge_generation", (E, "knowledge"), None,
                  "Produce the knowledge snippet the next turn relies on."),
)

REGISTRY: Dict[str, AtomicTaskDef] = {d.name: d for d in _DEFS}
assert len(REGISTRY) == len(_DEFS), "duplicate task name in registry"


def list_tasks() -> List[AtomicTaskDef]:
    """All registered atomic tasks, sorted by name."""
    return sorted(_DEFS, key=lambda d: d.name)


def task_names(tasks: Optional[Iterable[str]] = None) -> List[str]:
    """The selected task names, sorted (all when not given).

    KeyError on an unknown one, ValueError on none or on one named twice.
    """
    names = sorted(tasks) if tasks is not None else sorted(REGISTRY)
    if not names:
        raise ValueError("the task selection names no task")
    for i, name in enumerate(names):
        if name not in REGISTRY:
            raise KeyError(f"unknown task: {name!r}")
        if names[i + 1 : i + 2] == [name]:
            raise ValueError(f"the task selection names {name!r} more than once")
    return names


def derive_task(name: str, dialog: Dialog, turn_index: int, seed: int) -> TaskInstance:
    """Derive one named task at one dialog position; KeyError if unknown, DerivationError if impossible."""
    task_names([name])
    if not 0 <= turn_index < len(dialog.turns):
        raise DerivationError(f"target turn {turn_index} out of range")
    task_seed = subseed(seed, "derive", dialog.dialog_id, turn_index, name)
    return REGISTRY[name].derive(_Position(dialog, turn_index), task_seed)


def derive_corpus(
    dialogs: Iterable[Dialog],
    seed: int,
    tasks: Optional[Iterable[str]] = None,
) -> List[TaskInstance]:
    """Derive every hostable instance of the selected tasks over a corpus.

    Walks every dialog and every target turn t in [1, len(turns)); positions
    that cannot host a task are skipped. Output order is deterministic:
    dialogs in input order, turns ascending, tasks by name.
    """
    names = task_names(tasks)
    instances: List[TaskInstance] = []
    for dialog in dialogs:
        for t in range(1, len(dialog.turns)):
            # One position for all tasks, so turn t is tokenized once.
            pos = _Position(dialog, t)
            for name in names:
                task_seed = subseed(seed, "derive", dialog.dialog_id, t, name)
                try:
                    instances.append(REGISTRY[name].derive(pos, task_seed))
                except DerivationError:
                    continue
    return instances
