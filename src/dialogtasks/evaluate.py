"""Constraint extraction and scoring: boolean checks, overlap metrics, reports.

Every boolean check normalizes BOTH sides (lowercase, punctuation split into
standalone tokens), deliberately forgiving tokenization-space mismatches like
"song," versus "song ,".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .ingest import SchemaError
from .model import ComponentKind, TaskInstance
from .textutil import length_class, normalize, normalize_tokens, split_keyword_list


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BeginsWith:
    phrase: str


@dataclass(frozen=True, slots=True)
class EndsWith:
    phrase: str


@dataclass(frozen=True, slots=True)
class ContainsKeywords:
    keywords: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
class LengthClass:
    label: str


@dataclass(frozen=True, slots=True)
class ExactMatch:
    """Label-valued targets (state/evidence/action tasks) score as exact match."""

    value: str


@dataclass(frozen=True, slots=True)
class ReferenceOverlap:
    """Free-text targets score as overlap against the gold reference."""

    reference: str


Constraint = Union[BeginsWith, EndsWith, ContainsKeywords, LengthClass, ExactMatch, ReferenceOverlap]

_CONSTRAINT_TYPES = {
    "begins_with": BeginsWith,
    "ends_with": EndsWith,
    "contains_keywords": ContainsKeywords,
    "length_class": LengthClass,
    "exact_match": ExactMatch,
    "reference_overlap": ReferenceOverlap,
}

_TYPE_NAMES = {cls: name for name, cls in _CONSTRAINT_TYPES.items()}

# The one string field of every constraint type except contains_keywords.
_TEXT_FIELDS = {
    "begins_with": "phrase",
    "ends_with": "phrase",
    "length_class": "label",
    "exact_match": "value",
    "reference_overlap": "reference",
}


def constraint_to_dict(constraint: Constraint) -> Dict[str, Any]:
    name = _TYPE_NAMES[type(constraint)]
    if isinstance(constraint, ContainsKeywords):
        return {"type": name, "keywords": list(constraint.keywords)}
    field = _TEXT_FIELDS[name]
    return {"type": name, field: getattr(constraint, field)}


def constraint_from_dict(data: Dict[str, Any]) -> Constraint:
    """Parse one constraint; a missing or mistyped field raises SchemaError naming it."""
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _CONSTRAINT_TYPES:
        raise SchemaError("type")
    if kind == "contains_keywords":
        keywords = data.get("keywords")
        if not isinstance(keywords, (list, tuple)) or not all(isinstance(k, str) for k in keywords):
            raise SchemaError("keywords")
        return ContainsKeywords(tuple(keywords))
    field = _TEXT_FIELDS[kind]
    value = data.get(field)
    if not isinstance(value, str):
        raise SchemaError(field)
    return _CONSTRAINT_TYPES[kind](value)


@dataclass(frozen=True, slots=True)
class ConstraintSpec:
    """The machine-checkable constraints one task instance puts on an output.

    Held as a frozenset so unions and equality are order-free: a composite
    instance's spec equals the union of its parents' specs.
    """

    constraints: FrozenSet[Constraint]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return sorted(
            (constraint_to_dict(c) for c in self.constraints),
            key=lambda d: sorted(d.items()),
        )

    @classmethod
    def from_dicts(cls, data: Iterable[Dict[str, Any]]) -> "ConstraintSpec":
        """Parse a constraint list; SchemaError paths read ``constraints[i].field``."""
        constraints = []
        for index, item in enumerate(data):
            if not isinstance(item, dict):
                raise SchemaError(f"constraints[{index}]")
            try:
                constraints.append(constraint_from_dict(item))
            except SchemaError as exc:
                raise SchemaError(f"constraints[{index}].{exc.field_path}") from exc
        return cls(frozenset(constraints))

    def union(self, other: "ConstraintSpec") -> "ConstraintSpec":
        return ConstraintSpec(self.constraints | other.constraints)


def extract_constraints(inst: TaskInstance) -> ConstraintSpec:
    """Deterministically derive the constraint set for an instance.

    Grounding items with checkable semantics contribute boolean constraints;
    response-target instances always carry a ReferenceOverlap on the gold
    response, and label-target instances an ExactMatch on the gold label.
    """
    constraints: set = set()
    for item in inst.grounding_items:
        if item.kind == "begins_with":
            constraints.add(BeginsWith(item.value))
        elif item.kind == "ends_with":
            constraints.add(EndsWith(item.value))
        elif item.kind == "keywords":
            constraints.add(ContainsKeywords(split_keyword_list(item.value)))
        elif item.kind == "length_class":
            constraints.add(LengthClass(item.value))
    if inst.signature.target == ComponentKind.RESPONSE:
        constraints.add(ReferenceOverlap(inst.target_item.value))
    else:
        constraints.add(ExactMatch(inst.target_item.value))
    return ConstraintSpec(frozenset(constraints))


# ---------------------------------------------------------------------------
# Boolean checks
# ---------------------------------------------------------------------------

def _contains_sequence(haystack: List[str], needle: List[str]) -> bool:
    if not needle:
        return True
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def check_constraint(constraint: Constraint, output: Union[str, List[str]]) -> Optional[bool]:
    """Boolean verdict for boolean constraints; None for overlap constraints.

    ``output`` is text, or its token list as normalize_tokens splits it;
    score_corpus passes the list so that each output is tokenized once.
    """
    if isinstance(constraint, ReferenceOverlap):
        return None
    out = normalize_tokens(output) if isinstance(output, str) else output
    if isinstance(constraint, BeginsWith):
        prefix = normalize_tokens(constraint.phrase)
        return out[: len(prefix)] == prefix
    if isinstance(constraint, EndsWith):
        suffix = normalize_tokens(constraint.phrase)
        return not suffix or out[-len(suffix):] == suffix
    if isinstance(constraint, ContainsKeywords):
        return all(_contains_sequence(out, normalize_tokens(k)) for k in constraint.keywords)
    if isinstance(constraint, LengthClass):
        return length_class(len(out)) == constraint.label
    return " ".join(out) == normalize(constraint.value)


# ---------------------------------------------------------------------------
# Overlap metrics
# ---------------------------------------------------------------------------

def _bleu2_token_counts(
    cand: List[str], refs: Sequence[List[str]]
) -> Tuple[int, int, int, int, int, int]:
    """Clipped n-gram match/total counts plus candidate/effective-reference lengths.

    Clipping takes each n-gram's highest count in any one reference, which is
    the Counter union; matches are the Counter intersection with that.
    """
    if not refs:
        raise ValueError("bleu2 needs at least one reference")
    ref_unigrams = Counter(refs[0])
    ref_bigrams = Counter(zip(refs[0], refs[0][1:]))
    for ref in refs[1:]:
        ref_unigrams |= Counter(ref)
        ref_bigrams |= Counter(zip(ref, ref[1:]))
    cand_len = len(cand)
    m1 = sum((Counter(cand) & ref_unigrams).values())
    m2 = sum((Counter(zip(cand, cand[1:])) & ref_bigrams).values())
    # Effective reference length: the closest to the candidate, shorter on ties.
    ref_len = min((abs(len(r) - cand_len), len(r)) for r in refs)[1]
    return m1, cand_len, m2, max(cand_len - 1, 0), cand_len, ref_len


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


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, bit-parallel.

    Allison & Dix (IPL 1986), in the form of Hyyrö (2004): bit i of ``v``
    stands for position i of the longer sequence, and each token of the
    shorter one updates all of them in a few operations on one Python int.
    The zero bits of ``v`` count the LCS, the same integer the O(n*m)
    dynamic program gives.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: Dict[str, int] = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(
    candidate: Union[str, List[str]], reference: Union[str, List[str]], beta: float = 1.0
) -> float:
    """Rouge-L F-score: (1 + b^2) * lcs / (len(candidate) + b^2 * len(reference)).

    The closed form avoids intermediate precision/recall rounding, so e.g.
    candidate "a b c" against reference "a c" is exactly 0.8 at beta=1.
    Either side is text or its token list as normalize_tokens splits it.
    """
    cand = normalize_tokens(candidate) if isinstance(candidate, str) else candidate
    ref = normalize_tokens(reference) if isinstance(reference, str) else reference
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    return (1.0 + beta * beta) * lcs / (len(cand) + beta * beta * len(ref))


# ---------------------------------------------------------------------------
# Corpus scoring
# ---------------------------------------------------------------------------

BOOLEAN_KINDS = ("begins_with", "ends_with", "contains_keywords", "length_class", "exact_match")


@dataclass(frozen=True, slots=True)
class MetricReport:
    """Per-constraint and aggregate scores for a scored corpus.

    per_constraint_accuracy counts an example as passing a constraint kind
    when every constraint of that kind it carries holds; examples without the
    kind pass vacuously. That makes the conjunction bound a theorem:
    compositional_accuracy <= min(per-constraint accuracies).
    """

    n_examples: int
    per_constraint_accuracy: Dict[str, float]
    constraint_counts: Dict[str, int]
    compositional_accuracy: float
    bleu2: Optional[float]
    rouge_l: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_examples": self.n_examples,
            "per_constraint_accuracy": dict(sorted(self.per_constraint_accuracy.items())),
            "constraint_counts": dict(sorted(self.constraint_counts.items())),
            "compositional_accuracy": self.compositional_accuracy,
            "bleu2": self.bleu2,
            "rouge_l": self.rouge_l,
        }


def score_corpus(examples: Sequence[Tuple[ConstraintSpec, str]]) -> MetricReport:
    """Score model outputs against their constraint specs, in one pass.

    Boolean constraints produce per-kind accuracies plus the conjunctive
    compositional accuracy; ReferenceOverlap constraints produce corpus
    BLEU-2 and mean Rouge-L. Each output and each reference is tokenized
    once; BLEU counts are pooled as the loop goes.
    """
    n = len(examples)
    kind_pass: Dict[str, int] = {}
    kind_present: Dict[str, int] = {}
    all_pass = 0
    bleu_totals = [0, 0, 0, 0, 0, 0]
    rouge_scores: List[float] = []

    for spec, output in examples:
        out = normalize_tokens(output)
        example_ok = True
        present_kinds = set()
        failed_kinds = set()
        for constraint in spec.constraints:
            if isinstance(constraint, ReferenceOverlap):
                ref = normalize_tokens(constraint.reference)
                _add_counts(bleu_totals, _bleu2_token_counts(out, [ref]))
                rouge_scores.append(rouge_l(out, ref))
                continue
            kind = _TYPE_NAMES[type(constraint)]
            present_kinds.add(kind)
            if not check_constraint(constraint, out):
                failed_kinds.add(kind)
                example_ok = False
        for kind in present_kinds:
            kind_present[kind] = kind_present.get(kind, 0) + 1
        for kind in BOOLEAN_KINDS:
            if kind not in failed_kinds:
                kind_pass[kind] = kind_pass.get(kind, 0) + 1
        if example_ok:
            all_pass += 1

    per_kind = {
        kind: (kind_pass.get(kind, 0) / n if n else 1.0)
        for kind in BOOLEAN_KINDS
        if kind_present.get(kind, 0) > 0
    }
    return MetricReport(
        n_examples=n,
        per_constraint_accuracy=per_kind,
        constraint_counts={k: v for k, v in sorted(kind_present.items())},
        compositional_accuracy=(all_pass / n) if n else 1.0,
        bleu2=_bleu2_from_counts(*bleu_totals) if rouge_scores else None,
        rouge_l=(sum(rouge_scores) / len(rouge_scores)) if rouge_scores else None,
    )
