"""Composition: merge two task instances into one higher-dimensional task.

Two instances are composable only at the same dialog position, with the same
target, no output-into-input leakage, no repeated source task, and a rule in
the rule table matching their signatures in either order. Composition is
symmetric: compose(a, b) and compose(b, a) build the identical instance.
"""

from __future__ import annotations

import csv
import importlib.resources
import itertools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .model import (
    ComponentKind,
    Provenance,
    TargetItem,
    TaskInstance,
    TaskSignature,
    Turn,
    instance_sort_key,
    item_sort_key,
    parse_signature,
    signature_of,
    validate_instance,
)
from .prompts import build_instruction
from .seeding import stable_hash

REASON_DIFFERENT_CONTEXT = "different dialog context"
REASON_LEAK = "output leaks into input"
REASON_TARGETS_DIFFER = "targets differ"
REASON_DUPLICATE_TASK = "duplicate task type"
REASON_NO_RULE = "no matching rule"
REASON_DUPLICATE_ITEM = "duplicate grounding item"


class RuleFormatError(ValueError):
    """A rule file row that does not parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _pair_key(a: TaskSignature, b: TaskSignature) -> Tuple[str, str]:
    """An unordered signature pair as the sorted pair of canonical strings.

    Canonical strings are equal exactly when signatures are, and comparing
    them costs no call to the dataclass __eq__.
    """
    x, y = a.canonical_string(), b.canonical_string()
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True, slots=True)
class CompositionRule:
    """One row of the rule table.

    first/second match input signatures in either order. composed_display is
    the row's result name as written; the canonical composed signature is
    always rebuilt from the merged grounding, so display aliases that fold
    target letters into the name (e.g. ICAES-A) stay cosmetic.
    """

    rule_id: int
    first: TaskSignature
    second: TaskSignature
    composed_display: str
    common: Tuple[str, ...]
    target: ComponentKind
    # (first, second) as _pair_key gives it; find_rule compares these.
    _key: Tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", _pair_key(self.first, self.second))

    def matches(self, a: TaskSignature, b: TaskSignature) -> bool:
        return self._key == _pair_key(a, b)

    def composed(self, a: TaskSignature, b: TaskSignature) -> TaskSignature:
        return signature_of(a.grounding + b.grounding, self.target)


@dataclass(frozen=True, slots=True)
class Rejection:
    """Why a pair refused to compose."""

    reason: str
    first_task: str = ""
    second_task: str = ""


def load_rules(path: Optional[str | Path] = None) -> List[CompositionRule]:
    """Load a rule table; the packaged default when no path is given.

    Rows are id,first,second,composed,common,target; "#" lines and blanks are
    skipped. Raises RuleFormatError on malformed rows.
    """
    if path is None:
        text = (importlib.resources.files("dialogtasks.data") / "rules.csv").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    rules: List[CompositionRule] = []
    for line_number, row in enumerate(csv.reader(text.splitlines()), start=1):
        if not row or row[0].lstrip().startswith("#") or not "".join(row).strip():
            continue
        if len(row) != 6:
            raise RuleFormatError(line_number, f"expected 6 columns, got {len(row)}")
        try:
            rule = CompositionRule(
                rule_id=int(row[0]),
                first=parse_signature(row[1].strip()),
                second=parse_signature(row[2].strip()),
                composed_display=row[3].strip(),
                common=tuple(part.strip() for part in row[4].split(";") if part.strip()),
                target=ComponentKind(row[5].strip().upper()),
            )
        except ValueError as exc:
            raise RuleFormatError(line_number, str(exc)) from exc
        if not rule.composed_display:
            raise RuleFormatError(line_number, "empty composed name")
        if rule.target not in (rule.first.target, rule.second.target):
            raise RuleFormatError(line_number, "composed target matches neither input target")
        rules.append(rule)
    if not rules:
        raise RuleFormatError(0, "rule table has no rows")
    return rules


def find_rule(
    a: TaskSignature, b: TaskSignature, rules: Sequence[CompositionRule]
) -> Optional[CompositionRule]:
    """First rule matching the signature pair in either order."""
    key = _pair_key(a, b)
    for rule in rules:
        if rule._key == key:
            return rule
    return None


def _verdict(
    a: TaskInstance, b: TaskInstance, rules: Sequence[CompositionRule]
) -> Union[str, CompositionRule]:
    """The reason this pair must not compose, or the rule it composes under.

    Checks run in a fixed order so the reported reason is deterministic:
    position, leakage, target, task repetition, rule coverage, item overlap.
    Leakage outranks everything past position: a pair where one task's input
    spells out the other's answer is reported as a leak even when no rule
    covers the pair anyway.
    """
    pa, pb = a.provenance, b.provenance
    same_position = (
        pa.dataset == pb.dataset
        and pa.dialog_id == pb.dialog_id
        and pa.target_turn_index == pb.target_turn_index
    )
    if not same_position or a.context != b.context:
        return REASON_DIFFERENT_CONTEXT
    for x, y in ((a, b), (b, a)):
        for item in x.grounding_items:
            if item.value == y.target_item.value:
                return REASON_LEAK
    if a.target_item != b.target_item:
        return REASON_TARGETS_DIFFER
    if set(pa.source_tasks) & set(pb.source_tasks):
        return REASON_DUPLICATE_TASK
    rule = find_rule(a.signature, b.signature, rules)
    if rule is None:
        return REASON_NO_RULE
    merged = a.grounding_items + b.grounding_items
    if len(set(merged)) != len(merged):
        return REASON_DUPLICATE_ITEM
    return rule


def infeasibility_guard(
    a: TaskInstance, b: TaskInstance, rules: Sequence[CompositionRule]
) -> Optional[str]:
    """The reason this pair must not compose, or None if it may.

    The reasons and their order are those of compose's refusals.
    """
    verdict = _verdict(a, b, rules)
    return verdict if isinstance(verdict, str) else None


def compose(
    a: TaskInstance, b: TaskInstance, rules: Sequence[CompositionRule]
) -> Union[TaskInstance, Rejection]:
    """Compose two instances under the rule table, or explain the refusal.

    The composed instance is independent of argument order: grounding items
    are merged in canonical order, the name joins the sorted source task
    names with " + ", and the seed hashes the sorted parent seeds.
    """
    rule = _verdict(a, b, rules)
    if isinstance(rule, str):  # no rule: the reason for the refusal
        return Rejection(rule, a.task_name, b.task_name)
    items = tuple(sorted(a.grounding_items + b.grounding_items, key=item_sort_key))
    components = tuple(item.component for item in items)
    signature = signature_of(components, rule.target)
    sources = tuple(sorted(set(a.provenance.source_tasks) | set(b.provenance.source_tasks)))
    pa, pb = a.provenance, b.provenance
    composed = TaskInstance(
        signature=signature,
        task_name=" + ".join(sources),
        instruction=build_instruction(rule.target, components),
        context=a.context,
        grounding_items=items,
        target_item=a.target_item,
        provenance=Provenance(
            dataset=pa.dataset,
            dialog_id=pa.dialog_id,
            split=pa.split,
            target_turn_index=pa.target_turn_index,
            source_tasks=sources,
            seed=stable_hash("compose", *sorted((pa.seed, pb.seed))),
        ),
    )
    problems = validate_instance(composed)
    if problems:  # pragma: no cover - guard should make this unreachable
        return Rejection("; ".join(problems), a.task_name, b.task_name)
    return composed


def _dedup_key(composite: TaskInstance) -> Tuple[str, Tuple[Tuple[str, str, str, int], ...]]:
    # compose sorts a composite's items canonically, so equal item multisets
    # give equal tuples. A ComponentKind is the str of its letter.
    items = composite.grounding_items
    return (composite.task_name, tuple([(i.component, i.kind, i.value, i.turn_index) for i in items]))


def _positions(instances: Iterable[TaskInstance]) -> Iterator[List[TaskInstance]]:
    """Each dialog position's atomic, standard, non-cot members, in canonical order.

    Positions come in sorted (dataset, dialog id, target turn) order; these
    are the only instances that pair with each other.
    """
    groups: Dict[Tuple[str, str, int], List[TaskInstance]] = {}
    for inst in instances:
        if inst.signature.is_atomic and inst.style == "standard" and not inst.cot_items:
            key = (inst.provenance.dataset, inst.provenance.dialog_id, inst.provenance.target_turn_index)
            groups.setdefault(key, []).append(inst)
    for key in sorted(groups):
        yield sorted(groups[key], key=instance_sort_key)


class _Bucket:
    """The members of one position that share a context, grouped by target.

    ``groups[g]`` holds the members whose target is ``targets[g]``, and
    ``leaks[g][h]`` counts those of them that hold a grounding item whose
    value is the value of ``targets[h]``.
    """

    __slots__ = ("context", "size", "group_of", "targets", "groups", "leaks")

    def __init__(self, context: Tuple[Turn, ...]):
        self.context = context
        self.size = 0
        self.group_of: Dict[TargetItem, int] = {}
        self.targets: List[TargetItem] = []
        self.groups: List[List[TaskInstance]] = []
        self.leaks: List[List[int]] = []

    def add(self, inst: TaskInstance) -> Tuple[int, int]:
        """File a member under its target; returns its group and its index there."""
        g = self.group_of.get(inst.target_item)
        if g is None:
            g = self.group_of[inst.target_item] = len(self.groups)
            self.targets.append(inst.target_item)
            self.groups.append([])
        self.groups[g].append(inst)
        self.size += 1
        return g, len(self.groups[g]) - 1

    def count_leaks(self) -> None:
        by_value: Dict[str, List[int]] = {}
        for h, target in enumerate(self.targets):
            by_value.setdefault(target.value, []).append(h)
        self.leaks = [[0] * len(self.groups) for _ in self.groups]
        for g, group in enumerate(self.groups):
            row = self.leaks[g]
            for inst in group:
                for value in {item.value for item in inst.grounding_items}:
                    for h in by_value.get(value, ()):
                        if h != g:
                            row[h] += 1


class _Join:
    """One position's members bucketed by context, then by target.

    Only a pair within one bucket can compose. Every pair across buckets is
    refused for a different context, for a leak or for differing targets,
    and counted here by bucket sizes instead of being checked one by one;
    the counts are those _verdict would give each pair.
    """

    def __init__(self, members: List[TaskInstance]):
        self.members = members
        self.buckets: List[_Bucket] = []
        # Per member: its bucket, its target group and its index in that group.
        self.where: List[Tuple[_Bucket, int, int]] = []
        by_identity: Dict[int, _Bucket] = {}
        for inst in members:
            # Contexts are compared, never hashed: most members of a
            # position share a handful of context tuples.
            bucket = by_identity.get(id(inst.context))
            if bucket is None:
                bucket = next((b for b in self.buckets if b.context == inst.context), None)
                if bucket is None:
                    bucket = _Bucket(inst.context)
                    self.buckets.append(bucket)
                by_identity[id(inst.context)] = bucket
            self.where.append((bucket, *bucket.add(inst)))
        for bucket in self.buckets:
            bucket.count_leaks()

    def pairs(self) -> Iterator[Tuple[TaskInstance, TaskInstance, _Bucket, int]]:
        """Same-bucket pairs in itertools.combinations order, each with its bucket and group."""
        for inst, (bucket, g, index) in zip(self.members, self.where):
            for other in bucket.groups[g][index + 1:]:
                yield inst, other, bucket, g

    def pair_rejections(self, reasons: Counter) -> None:
        """Add the reasons of every pair of members across buckets."""
        n = len(self.members)
        reasons[REASON_DIFFERENT_CONTEXT] += (n * n - sum(b.size * b.size for b in self.buckets)) // 2
        for bucket in self.buckets:
            sizes = [len(group) for group in bucket.groups]
            for g, h in itertools.combinations(range(len(sizes)), 2):
                clean = (sizes[g] - bucket.leaks[g][h]) * (sizes[h] - bucket.leaks[h][g])
                reasons[REASON_LEAK] += sizes[g] * sizes[h] - clean
                reasons[REASON_TARGETS_DIFFER] += clean

    def atoms_for(
        self, composite: TaskInstance, bucket: _Bucket, g: int, reasons: Counter
    ) -> List[TaskInstance]:
        """The members sharing a composite's bucket and group; adds the reasons of all other members.

        ``bucket`` and ``g`` are those of the composite's parents.
        """
        reasons[REASON_DIFFERENT_CONTEXT] += len(self.members) - bucket.size
        values = {item.value for item in composite.grounding_items}
        for h, group in enumerate(bucket.groups):
            if h != g:
                leaks = len(group) if bucket.targets[h].value in values else bucket.leaks[h][g]
                reasons[REASON_LEAK] += leaks
                reasons[REASON_TARGETS_DIFFER] += len(group) - leaks
        return bucket.groups[g]


def compose_corpus(
    instances: Iterable[TaskInstance],
    rules: Sequence[CompositionRule],
    max_dim: int = 2,
) -> Tuple[List[TaskInstance], Counter]:
    """All composites derivable from a corpus, with rejection-reason counts.

    Pairs are enumerated within each dialog position. compose runs on the
    pairs that share a context and a target, in itertools.combinations
    order; every other pair is refused without a call and counted by
    _Join. With max_dim > 2, composites are re-paired with atomic instances
    for another round; the packaged rule table only covers atomic pairs, so
    higher rounds need a custom table. Output is deduplicated and
    canonically sorted.
    """
    if max_dim < 2:
        raise ValueError("max_dim must be >= 2")
    reasons: Counter = Counter()
    composites: List[TaskInstance] = []

    def accepted(
        pairs: Iterable[Tuple[TaskInstance, TaskInstance, _Bucket, int]], seen: set
    ) -> List[Tuple[TaskInstance, _Bucket, int]]:
        made = []
        for x, y, bucket, g in pairs:
            result = compose(x, y, rules)
            if isinstance(result, Rejection):
                reasons[result.reason] += 1
                continue
            key = _dedup_key(result)
            if key not in seen:
                seen.add(key)
                made.append((result, bucket, g))
        return made

    for members in _positions(instances):
        join = _Join(members)
        join.pair_rejections(reasons)
        seen: set = set()
        frontier = accepted(join.pairs(), seen)
        composites.extend(made for made, _, _ in frontier)
        for _ in range(3, max_dim + 1):
            frontier = accepted(
                (
                    (composite, atom, bucket, g)
                    for composite, bucket, g in frontier
                    for atom in join.atoms_for(composite, bucket, g, reasons)
                ),
                seen,
            )
            composites.extend(made for made, _, _ in frontier)
    composites.sort(key=instance_sort_key)
    return composites, +reasons  # without the reasons no pair had


def naive_corpus(
    instances: Iterable[TaskInstance], rules: Sequence[CompositionRule]
) -> List[TaskInstance]:
    """Naive baseline composites for exactly the pairs the guard would accept.

    Shares compose_corpus's pair enumeration so the baseline stays comparable
    instance-for-instance with rule-based composition.
    """
    composites = [
        naive_compose(a, b)
        for members in _positions(instances)
        for a, b, _, _ in _Join(members).pairs()
        if infeasibility_guard(a, b, rules) is None
    ]
    composites.sort(key=instance_sort_key)
    return composites


def _lower_first(text: str) -> str:
    return text[:1].lower() + text[1:]


def naive_compose(a: TaskInstance, b: TaskInstance) -> TaskInstance:
    """Baseline composition: concatenate instructions, keep items in given order.

    No infeasibility checks run; callers pair instances that share a position
    and target. Rendering a naive instance skips section shuffling and labels
    each grounding item with its bare family name.
    """
    items = a.grounding_items + b.grounding_items
    components = tuple(item.component for item in items)
    pa, pb = a.provenance, b.provenance
    return TaskInstance(
        signature=signature_of(components, a.target_item.component),
        task_name=f"{a.task_name} + {b.task_name}",
        instruction=f"{a.instruction} and {_lower_first(b.instruction)}",
        context=a.context,
        grounding_items=items,
        target_item=a.target_item,
        provenance=Provenance(
            dataset=pa.dataset,
            dialog_id=pa.dialog_id,
            split=pa.split,
            target_turn_index=pa.target_turn_index,
            source_tasks=pa.source_tasks + pb.source_tasks,
            seed=stable_hash("naive", pa.seed, pb.seed),
        ),
        style="naive",
    )
