"""Constraint extraction and scoring: boolean checks, overlap metrics, reports.

Every boolean check normalizes BOTH sides (lowercase, punctuation split into
standalone tokens), deliberately forgiving tokenization-space mismatches like
"song," versus "song ,".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from .ingest import SchemaError
from .model import ComponentKind, TaskInstance, _checked
from .textutil import LENGTH_CLASSES, length_class, normalize_tokens, split_keyword_list


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Constraint:
    """One constraint on an output: a CONSTRAINT_KINDS key and its value.

    The value is a str, or a tuple of str for a kind of the text-list shape.
    exact_match holds a label-valued target (state/evidence/action tasks),
    reference_overlap a free-text target scored by overlap.
    """

    type: str
    value: Union[str, Tuple[str, ...]]


def _contains_all(needles: List[List[str]], out: List[str]) -> bool:
    """Whether each needle occurs in ``out`` as a run of consecutive tokens."""
    return all(
        any(out[i : i + len(needle)] == needle for i in range(len(out) - len(needle) + 1)) for needle in needles
    )


def _length_label(value: Any, field: str) -> str:
    # Only a label textutil.length_class gives can be met by any output.
    if _checked(value, str, field) not in LENGTH_CLASSES:
        raise SchemaError(field)
    return value


@dataclass(frozen=True, slots=True)
class _Shape:
    """A kind's value: read from a row field, built from a grounding item's text, prepared for its check."""

    parse: Callable[[Any, str], Any]  # (row field value, field name) -> value, or SchemaError naming the field
    from_item: Callable[[str], Any]
    prepare: Callable[[Any], Any]  # calls normalize_tokens by name, so a rebinding of it sees every call


_TEXT = _Shape(lambda value, field: _checked(value, str, field), str, lambda text: normalize_tokens(text))
_TEXT_LIST = _Shape(
    lambda value, field: tuple(_checked(text, str, field) for text in _checked(value, list, field)),
    split_keyword_list, lambda texts: [normalize_tokens(text) for text in texts],
)
_LABEL = _Shape(_length_label, str, lambda label: label)


@dataclass(frozen=True, slots=True)
class _Kind:
    field: str  # the field of a constraint row that holds the value
    item_kind: Optional[str]  # the grounding item family it is built from; None for target constraints
    shape: _Shape
    check: Optional[Callable[[Any, List[str]], bool]]  # (prepared value, output tokens); None: scored by overlap


# Every constraint kind, keyed by the type name a constraint row carries; the
# boolean kinds come first, in the order reports list them.
CONSTRAINT_KINDS: Dict[str, _Kind] = {
    "begins_with": _Kind("phrase", "begins_with", _TEXT, lambda head, out: out[: len(head)] == head),
    "ends_with": _Kind("phrase", "ends_with", _TEXT, lambda tail, out: not tail or out[-len(tail) :] == tail),
    "contains_keywords": _Kind("keywords", "keywords", _TEXT_LIST, _contains_all),
    "length_class": _Kind("label", "length_class", _LABEL, lambda label, out: length_class(len(out)) == label),
    "exact_match": _Kind("value", None, _TEXT, lambda tokens, out: out == tokens),
    "reference_overlap": _Kind("reference", None, _TEXT, None),
}

BOOLEAN_KINDS = tuple(name for name, kind in CONSTRAINT_KINDS.items() if kind.check is not None)

_ITEM_KINDS = {kind.item_kind: (name, kind) for name, kind in CONSTRAINT_KINDS.items() if kind.item_kind}


def constraint_to_dict(constraint: Constraint) -> Dict[str, Any]:
    value = constraint.value
    field = CONSTRAINT_KINDS[constraint.type].field
    return {"type": constraint.type, field: list(value) if type(value) is tuple else value}


def _type_and_value(data: Dict[str, Any]) -> Tuple[str, Any]:
    """A constraint's type and the value of its one other field, read by its kind's shape.

    A missing or mistyped field, or a label outside its closed set, raises
    SchemaError naming it. Every part of the pair has passed _checked, so
    the pair keys the memo of ConstraintSpec.from_dicts.
    """
    name = _checked(data.get("type"), str, "type")
    kind = CONSTRAINT_KINDS.get(name)
    if kind is None:
        raise SchemaError("type")
    return name, kind.shape.parse(data.get(kind.field), kind.field)


@dataclass(frozen=True, slots=True)
class ConstraintSpec:
    """The machine-checkable constraints one task instance puts on an output.

    Held as a frozenset so equality is order-free: a composite instance's
    constraints equal the union of its parents' constraints.
    """

    constraints: FrozenSet[Constraint]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return sorted(
            (constraint_to_dict(c) for c in self.constraints),
            key=lambda d: sorted(d.items()),
        )

    @classmethod
    def from_dicts(
        cls, data: Iterable[Dict[str, Any]], memo: Optional[Dict[Tuple[str, Any], Constraint]] = None
    ) -> "ConstraintSpec":
        """Parse a constraint list; SchemaError paths read ``constraints[i].field``.

        Lists parsed with one ``memo`` dict parse each distinct constraint
        once and share it, keyed by its checked type and value (see
        _type_and_value), so a mistyped one fails as it would alone.
        """
        memo = {} if memo is None else memo
        constraints = []
        for index, item in enumerate(data):
            if type(item) is not dict:
                raise SchemaError(f"constraints[{index}]")
            try:
                key = _type_and_value(item)
            except SchemaError as exc:
                raise SchemaError(f"constraints[{index}].{exc.field_path}") from exc
            constraint = memo.get(key)
            if constraint is None:
                constraint = memo[key] = Constraint(*key)
            constraints.append(constraint)
        return cls(frozenset(constraints))


def extract_constraints(inst: TaskInstance) -> ConstraintSpec:
    """Deterministically derive the constraint set for an instance.

    Grounding items with checkable semantics contribute boolean constraints;
    response-target instances always carry a reference_overlap on the gold
    response, and label-target instances an exact_match on the gold label.
    """
    constraints: set = set()
    for item in inst.grounding_items:
        entry = _ITEM_KINDS.get(item.kind)
        if entry is not None:
            name, kind = entry
            constraints.add(Constraint(name, kind.shape.from_item(item.value)))
    target = "reference_overlap" if inst.signature.target == ComponentKind.RESPONSE else "exact_match"
    constraints.add(Constraint(target, inst.target_item.value))
    return ConstraintSpec(frozenset(constraints))


# ---------------------------------------------------------------------------
# Prepared constraints and boolean checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Reference:
    """A reference prepared once for every output scored against it.

    Its tokens; its unigram and bigram counts, which BLEU-2 clips against;
    and its LCS bit masks (see _lcs_masks), which Rouge-L walks each
    output's tokens over.
    """

    tokens: List[str]
    unigrams: Dict[str, int]
    bigrams: Dict[Tuple[str, str], int]
    masks: Dict[str, int]


def _prepare(constraint: Constraint) -> Union[Callable[[List[str]], bool], _Reference]:
    """The constraint's test on a normalized token list, or the reference of a kind with no check.

    The value is prepared by its kind's shape here, so preparing each
    distinct constraint once tokenizes its text once.
    """
    kind = CONSTRAINT_KINDS[constraint.type]
    value = kind.shape.prepare(constraint.value)
    if kind.check is None:
        return _Reference(value, Counter(value), Counter(zip(value, value[1:])), _lcs_masks(value))
    return partial(kind.check, value)


def check_constraint(constraint: Constraint, output: str) -> Optional[bool]:
    """Boolean verdict for boolean constraints; None for overlap constraints."""
    entry = _prepare(constraint)
    return None if isinstance(entry, _Reference) else entry(normalize_tokens(output))


# ---------------------------------------------------------------------------
# Overlap metrics
# ---------------------------------------------------------------------------

def _clipped_count(grams: Iterable[Hashable], reference: Dict[Any, int]) -> int:
    """Sum over distinct grams of min(count in ``grams``, count in ``reference``).

    Each gram found uses up one of its count in a copy of ``reference``, so
    no counts of ``grams`` are built.
    """
    left = dict(reference)
    matched = 0
    for gram in grams:
        n = left.get(gram)
        if n:
            left[gram] = n - 1
            matched += 1
    return matched


def _bleu2_clip(
    cand: List[str], ref_unigrams: Dict[str, int], ref_bigrams: Dict[Tuple[str, str], int], ref_len: int
) -> Tuple[int, int, int, int, int, int]:
    """Clipped n-gram match/total counts plus candidate/effective-reference lengths."""
    cand_len = len(cand)
    m1 = _clipped_count(cand, ref_unigrams)
    m2 = _clipped_count(zip(cand, cand[1:]), ref_bigrams)
    return m1, cand_len, m2, max(cand_len - 1, 0), cand_len, ref_len


def _bleu2_token_counts(
    cand: List[str], refs: Sequence[List[str]]
) -> Tuple[int, int, int, int, int, int]:
    """BLEU-2 counts of ``cand`` against one or more references.

    Clipping takes each n-gram's highest count in any one reference, which is
    the Counter union, built once before the clip.
    """
    if not refs:
        raise ValueError("bleu2 needs at least one reference")
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    for ref in refs:
        unigrams |= Counter(ref)
        bigrams |= Counter(zip(ref, ref[1:]))
    # Effective reference length: the closest to the candidate, shorter on ties.
    ref_len = min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
    return _bleu2_clip(cand, unigrams, bigrams, ref_len)


def _bleu2_counts(candidate: str, references: Sequence[str]) -> Tuple[int, int, int, int, int, int]:
    return _bleu2_token_counts(normalize_tokens(candidate), [normalize_tokens(r) for r in references])


def _bleu2_from_counts(m1: int, t1: int, m2: int, t2: int, cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    precisions = []
    for matched, total in ((m1, t1), (m2, t2)):
        if total == 0:
            precisions.append(1.0)
        elif matched == 0:
            # Add-one smoothing so zero matches floor above zero.
            precisions.append(1.0 / (total + 1))
        else:
            precisions.append(matched / total)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.sqrt(precisions[0] * precisions[1])


def bleu2(candidate: str, references: Sequence[str]) -> float:
    """BLEU-2: geometric mean of clipped unigram/bigram precision times brevity penalty."""
    return _bleu2_from_counts(*_bleu2_counts(candidate, references))


def _add_counts(totals: List[int], counts: Tuple[int, ...]) -> None:
    for i, value in enumerate(counts):
        totals[i] += value


def corpus_bleu2(pairs: Sequence[Tuple[str, Sequence[str]]]) -> float:
    """Corpus-level BLEU-2: counts are pooled across pairs before combining."""
    totals = [0, 0, 0, 0, 0, 0]
    for candidate, references in pairs:
        _add_counts(totals, _bleu2_counts(candidate, references))
    return _bleu2_from_counts(*totals)


def _lcs_masks(reference: Sequence[str]) -> Dict[str, int]:
    """One bit mask per distinct token: bit i is set where token i of ``reference`` is it."""
    masks: Dict[str, int] = {}
    for i, token in enumerate(reference):
        masks[token] = masks.get(token, 0) | (1 << i)
    return masks


def _lcs_length(tokens: Iterable[str], masks: Dict[str, int], length: int) -> int:
    """Length of the longest common subsequence of ``tokens`` and a reference.

    The reference is given by its length and its _lcs_masks, so its masks
    are built once however many outputs are scored against it. Allison &
    Dix (IPL 1986), in the form of Hyyrö (2004): bit i of ``v`` stands for
    position i of the reference, and each token walked updates all of them
    in a few operations on one Python int. The zero bits of ``v`` count the
    LCS, the same integer the O(n*m) dynamic program gives.
    """
    full = (1 << length) - 1
    v = full
    for token in tokens:
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return length - v.bit_count()


def rouge_l(
    candidate: Union[str, List[str]], reference: Union[str, List[str], _Reference], beta: float = 1.0
) -> float:
    """Rouge-L F-score: (1 + b^2) * lcs / (len(candidate) + b^2 * len(reference)).

    The closed form avoids intermediate precision/recall rounding, so e.g.
    candidate "a b c" against reference "a c" is exactly 0.8 at beta=1.
    Either side is text or its token list as normalize_tokens splits it;
    the reference may also be one prepared by _prepare, whose masks are
    reused rather than built for this call.
    """
    cand = normalize_tokens(candidate) if isinstance(candidate, str) else candidate
    if isinstance(reference, _Reference):
        ref, masks = reference.tokens, reference.masks
    else:
        ref = normalize_tokens(reference) if isinstance(reference, str) else reference
        masks = _lcs_masks(ref)
    lcs = _lcs_length(cand, masks, len(ref))
    if lcs == 0:
        return 0.0
    return (1.0 + beta * beta) * lcs / (len(cand) + beta * beta * len(ref))


# ---------------------------------------------------------------------------
# Corpus scoring
# ---------------------------------------------------------------------------

def score_corpus(examples: Sequence[Tuple[ConstraintSpec, str]]) -> Dict[str, Any]:
    """Score model outputs against their constraint specs, in one pass.

    Returns the report: ``n_examples``, ``per_constraint_accuracy`` and
    ``constraint_counts`` (per kind, sorted), ``compositional_accuracy``, and
    ``bleu2`` and ``rouge_l`` (None without a reference_overlap constraint).
    Boolean constraints produce per-kind accuracies plus the conjunctive
    compositional accuracy; reference_overlap constraints produce corpus
    BLEU-2 and mean Rouge-L. An example passes a kind when every constraint
    of that kind it carries holds, and one without the kind passes
    vacuously. That makes the conjunction bound a theorem:
    compositional_accuracy <= min(per-constraint accuracies).

    Each output is tokenized once per example, and each distinct constraint
    is prepared (its text tokenized; a reference's n-grams counted and its
    LCS bit masks built) once per call, however many examples carry it.
    Each row's LCS walks the output's tokens over its reference's masks,
    and its BLEU-2 clip walks the output's n-grams over a copy of the
    reference's counts. BLEU counts are pooled as the loop goes.
    """
    n = len(examples)
    prepared: Dict[Constraint, Union[Callable[[List[str]], bool], _Reference]] = {}
    kind_fail: Dict[str, int] = {}
    kind_present: Dict[str, int] = {}
    all_pass = 0
    bleu_totals = [0, 0, 0, 0, 0, 0]
    rouge_scores: List[float] = []

    for spec, output in examples:
        out = normalize_tokens(output)
        present_kinds = set()
        failed_kinds = set()
        row_start = len(rouge_scores)
        for constraint in spec.constraints:
            entry = prepared.get(constraint)
            if entry is None:
                entry = prepared[constraint] = _prepare(constraint)
            if isinstance(entry, _Reference):
                _add_counts(bleu_totals, _bleu2_clip(out, entry.unigrams, entry.bigrams, len(entry.tokens)))
                rouge_scores.append(rouge_l(out, entry))
                continue
            present_kinds.add(constraint.type)
            if not entry(out):
                failed_kinds.add(constraint.type)
        if len(rouge_scores) > row_start + 1:  # set order follows the hash seed
            rouge_scores[row_start:] = sorted(rouge_scores[row_start:])
        for kind in present_kinds:
            kind_present[kind] = kind_present.get(kind, 0) + 1
        for kind in failed_kinds:
            kind_fail[kind] = kind_fail.get(kind, 0) + 1
        if not failed_kinds:
            all_pass += 1

    return {
        "n_examples": n,
        "per_constraint_accuracy": {
            kind: (n - kind_fail.get(kind, 0)) / n for kind in sorted(kind_present)
        },
        "constraint_counts": dict(sorted(kind_present.items())),
        "compositional_accuracy": (all_pass / n) if n else 1.0,
        "bleu2": _bleu2_from_counts(*bleu_totals) if rouge_scores else None,
        "rouge_l": (sum(rouge_scores) / len(rouge_scores)) if rouge_scores else None,
    }
