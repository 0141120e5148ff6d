"""Composition: merge two task instances into one higher-dimensional task.

Two instances are composable only at the same dialog position, with the same
target, no output-into-input leakage, no repeated source task, and a rule in
the rule table matching their signatures in either order. Composition is
symmetric: compose(a, b) and compose(b, a) build the identical instance.
"""

from __future__ import annotations

import csv
import itertools
import pkgutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .ingest import ParseError, naming_file, read_utf8
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


class RuleFormatError(ParseError):
    """A rule file row that does not parse; carries the 1-based line number."""


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
    target letters into the name (e.g. ICAES-A) stay cosmetic. common lists
    the row's shared fields as written ("dc" and the target letter); what two
    tasks must share is decided by the guard, not by common: the same dialog
    context and the same target item, for every rule.
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


@dataclass(frozen=True, slots=True)
class Rejection:
    """Why a pair refused to compose."""

    reason: str


def load_rules(path: Optional[str | Path] = None) -> List[CompositionRule]:
    """Load a rule table; the packaged default when no path is given.

    Rows are id,first,second,composed,common,target; "#" lines and blanks are
    skipped. Each common token is "dc" or the row's target letter, and no two
    rows share a rule id or a signature pair in either order. Raises
    RuleFormatError on malformed rows and ParseError on a line that is not
    UTF-8; for a table read from ``path``, the message ends in `` (in <path>)``.
    """
    if path is None:
        return _parse_rules(pkgutil.get_data("dialogtasks", "data/rules.csv").decode("utf-8"))
    with naming_file(path):
        return _parse_rules(read_utf8(path))


def _parse_rules(text: str) -> List[CompositionRule]:
    rules: List[CompositionRule] = []
    first_lines: Dict[str, int] = {}  # each rule id and signature pair, by its first line
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
        for token in rule.common:
            if token.lower() not in ("dc", rule.target.value.lower()):
                raise RuleFormatError(line_number, f"common {token!r} is neither dc nor the target letter")
        for what in (f"rule id {rule.rule_id}", "signature pair {} and {}".format(*rule._key)):
            first = first_lines.setdefault(what, line_number)
            if first != line_number:
                raise RuleFormatError(line_number, f"{what} repeats line {first}")
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
        return Rejection(rule)
    items = tuple(sorted(a.grounding_items + b.grounding_items, key=item_sort_key))
    components = tuple(item.component for item in items)
    sources = tuple(sorted(set(a.provenance.source_tasks) | set(b.provenance.source_tasks)))
    pa, pb = a.provenance, b.provenance
    composed = TaskInstance(
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
        return Rejection("; ".join(problems))
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


# One context's members by target, in insertion order.
_Groups = Dict[TargetItem, List[TaskInstance]]


def _holding(group: List[TaskInstance], value: str) -> int:
    """How many members of a group hold a grounding item of this value."""
    count = 0
    for inst in group:
        for item in inst.grounding_items:
            if item.value == value:
                count += 1
                break
    return count


class _Join:
    """One position's members grouped by context, then by target.

    Per distinct context one dict maps each target to its members, in
    insertion order. Only a pair within one target group can compose. Every
    other pair is refused for a different context, for a leak or for
    differing targets, and counted here in closed form from the groups; the
    counts are those _verdict would give each pair.
    """

    def __init__(self, members: List[TaskInstance]):
        self.members = members
        self.contexts: List[Tuple[Tuple[Turn, ...], _Groups]] = []
        self.by_identity: Dict[int, _Groups] = {}
        # Per member: its group and where its later group-mates start.
        self.where: List[Tuple[List[TaskInstance], int]] = []
        for inst in members:
            group = self.groups_of(inst.context).setdefault(inst.target_item, [])
            group.append(inst)
            self.where.append((group, len(group)))

    def groups_of(self, context: Tuple[Turn, ...]) -> _Groups:
        # Contexts are compared, never hashed: most members of a position
        # share a handful of context tuples, and a composite shares its
        # parents' tuple.
        groups = self.by_identity.get(id(context))
        if groups is None:
            groups = next((g for c, g in self.contexts if c == context), None)
            if groups is None:
                groups = {}
                self.contexts.append((context, groups))
            self.by_identity[id(context)] = groups
        return groups

    def pairs(self) -> Iterator[Tuple[TaskInstance, TaskInstance]]:
        """Same-group pairs in itertools.combinations order."""
        for inst, (group, later) in zip(self.members, self.where):
            for other in group[later:]:
                yield inst, other

    def refusals(self, reasons: Counter) -> None:
        """Add the reasons of every pair of members in different groups."""
        n = len(self.members)
        sizes = [sum(map(len, groups.values())) for _, groups in self.contexts]
        reasons[REASON_DIFFERENT_CONTEXT] += (n * n - sum(size * size for size in sizes)) // 2
        for _, groups in self.contexts:
            for (t, g), (u, h) in itertools.combinations(groups.items(), 2):
                clean = (len(g) - _holding(g, u.value)) * (len(h) - _holding(h, t.value))
                reasons[REASON_LEAK] += len(g) * len(h) - clean
                reasons[REASON_TARGETS_DIFFER] += clean

    def atoms_for(self, composite: TaskInstance, reasons: Counter) -> List[TaskInstance]:
        """The members sharing a composite's context and target; adds the reasons of all others."""
        groups = self.groups_of(composite.context)
        reasons[REASON_DIFFERENT_CONTEXT] += len(self.members) - sum(map(len, groups.values()))
        values = {item.value for item in composite.grounding_items}
        t = composite.target_item
        for u, h in groups.items():
            if u != t:
                leaks = len(h) if u.value in values else _holding(h, t.value)
                reasons[REASON_LEAK] += leaks
                reasons[REASON_TARGETS_DIFFER] += len(h) - leaks
        return groups[t]


def compose_corpus(
    instances: Iterable[TaskInstance],
    rules: Sequence[CompositionRule],
    max_dim: int = 2,
) -> Tuple[List[TaskInstance], Counter]:
    """All composites derivable from a corpus, with rejection-reason counts.

    Pairs are enumerated within each dialog position. compose runs on the
    pairs that share a context and a target, in itertools.combinations
    order; every other pair is refused without a call and counted by
    _Join. With max_dim > 2, the last round's composites are re-paired with
    atomic instances for another round, until a round composes nothing; the
    packaged rule table only covers atomic pairs, so higher rounds need a
    custom table. Output is deduplicated and canonically sorted.
    """
    if max_dim < 2:
        raise ValueError("max_dim must be >= 2")
    reasons: Counter = Counter()
    composites: List[TaskInstance] = []

    def accepted(pairs: Iterable[Tuple[TaskInstance, TaskInstance]], seen: set) -> List[TaskInstance]:
        made = []
        for x, y in pairs:
            result = compose(x, y, rules)
            if isinstance(result, Rejection):
                reasons[result.reason] += 1
                continue
            key = _dedup_key(result)
            if key not in seen:
                seen.add(key)
                made.append(result)
        return made

    for members in _positions(instances):
        join = _Join(members)
        join.refusals(reasons)
        seen: set = set()
        frontier = accepted(join.pairs(), seen)
        composites.extend(frontier)
        for _ in range(3, max_dim + 1):
            if not frontier:  # a round that composed nothing leaves nothing to extend
                break
            frontier = accepted(
                ((composite, atom) for composite in frontier for atom in join.atoms_for(composite, reasons)),
                seen,
            )
            composites.extend(frontier)
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
        for a, b in _Join(members).pairs()
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
    pa, pb = a.provenance, b.provenance
    return TaskInstance(
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
