"""Corpus export: instance serialization, task-balanced sampling, JSONL output.

Everything here is deterministic in (inputs, seed): records are written with
sorted keys, corpora are sorted canonically before writing, and no file
contains timestamps or absolute paths, so re-running an export produces
byte-identical files.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .evaluate import extract_constraints
from .ingest import SchemaError, read_jsonl, write_jsonl
from .model import SPLITS, DialogItem, ParseMemo, Provenance, TaskInstance, Turn, example_id, instance_sort_key
from .prompts import RenderOptions, render_corpus
from .seeding import stable_hash

# The encoding of write_jsonl, for the values of a text row that are encoded whole.
_encode = JSONEncoder(sort_keys=True, ensure_ascii=True).encode


@dataclass(frozen=True, slots=True)
class SamplingPlan:
    """Per-group instance caps.

    Atomic tasks are capped per task name across the whole corpus; composite
    tasks are capped per (task name, dataset). A cap of 0 or less means no
    cap for that class.
    """

    atomic_quota: int = 5000
    composite_quota: int = 1000

    def to_dict(self) -> Dict[str, int]:
        return {"atomic_quota": self.atomic_quota, "composite_quota": self.composite_quota}


def _group_key(inst: TaskInstance) -> Tuple[str, ...]:
    if inst.signature.is_atomic:
        return ("atomic", inst.task_name)
    return ("composite", inst.task_name, inst.provenance.dataset)


def sample(instances: Iterable[TaskInstance], plan: SamplingPlan, seed: int) -> List[TaskInstance]:
    """Cap each sampling group at its quota, deterministically in (corpus, seed).

    Groups are sampled independently with a seed derived from the group key,
    over a canonically sorted population, so neither input order nor the
    presence of other groups changes what a group keeps.
    """
    groups: Dict[Tuple[str, ...], List[TaskInstance]] = {}
    for inst in instances:
        groups.setdefault(_group_key(inst), []).append(inst)
    kept: List[TaskInstance] = []
    for key, population in groups.items():
        quota = plan.atomic_quota if key[0] == "atomic" else plan.composite_quota
        if quota > 0 and len(population) > quota:
            population.sort(key=instance_sort_key)
            population = random.Random(stable_hash(seed, "sample", *key)).sample(population, quota)
        kept += population
    kept.sort(key=instance_sort_key)
    return kept


def assign_splits(instances: Iterable[TaskInstance]) -> Dict[str, List[TaskInstance]]:
    """Group instances by their provenance's split; ValueError names one whose split is not in SPLITS."""
    by_split: Dict[str, List[TaskInstance]] = {name: [] for name in SPLITS}
    for inst in instances:
        members = by_split.get(inst.provenance.split)
        if members is None:
            raise ValueError(
                f"instance {example_id(inst.provenance, inst.style)} has split {inst.provenance.split!r}"
            )
        members.append(inst)
    return by_split


def _dialog_key(inst: TaskInstance) -> Tuple[str, str]:
    return (inst.provenance.dataset, inst.provenance.dialog_id)


class _Texts(dict):
    """The JSON text of each value that rows of one file share, encoded the first time it is looked up.

    A string is quoted as ``ensure_ascii`` quotes it, a source_tasks tuple
    encoded as a list and an item as its to_dict. A text row holds its keys
    in sorted order with json's separators and integers written with str(),
    so it is the line write_jsonl writes for the row's dict. It holds every
    value it met: keep one no longer than the write of one file.
    """

    def __missing__(self, value: Any) -> str:
        text = self[value] = _encode(value if isinstance(value, (str, tuple)) else value.to_dict())
        return text

    def items_text(self, items: Tuple[DialogItem, ...]) -> str:
        return f"[{', '.join(map(self.__getitem__, items))}]"

    def provenance_text(self, p: Provenance) -> str:
        return (f'{{"dataset": {self[p.dataset]}, "dialog_id": {self[p.dialog_id]}, "seed": {p.seed}, '
                f'"source_tasks": {self[p.source_tasks]}, "split": {self[p.split]}, '
                f'"target_turn_index": {p.target_turn_index}}}')


def write_instances(instances: Sequence[TaskInstance], path: str | Path) -> Dict[str, Any]:
    """Write one instance per line, serializing each dialog's turns once.

    Per (dataset, dialog id), the longest context among the dialog's
    instances stands for the dialog's turns. Every instance whose context is
    a prefix of them stores that prefix's length as ``context_turns`` in
    place of ``context``, and the first such row of the dialog also carries
    the turns as ``dialog_turns``. Any other instance is written inline, as
    to_dict gives it.
    """
    turns: Dict[Tuple[str, str], Tuple[Turn, ...]] = {}
    for inst in instances:
        key = _dialog_key(inst)
        if len(inst.context) > len(turns.get(key, ())):
            turns[key] = inst.context
    return write_jsonl(_instance_rows(instances, turns), path)


def _instance_rows(
    instances: Iterable[TaskInstance], turns: Dict[Tuple[str, str], Tuple[Turn, ...]]
) -> Iterator[Union[str, Dict[str, Any]]]:
    """The rows of write_instances: JSON text for a row with ``context_turns``, to_dict for an inline one."""
    written = set()
    texts = _Texts()
    for inst in instances:
        key = _dialog_key(inst)
        dialog = turns.get(key, ())
        n = len(inst.context)
        if inst.context != dialog[:n]:
            yield inst.to_dict()
            continue
        cot = f'"cot_items": {texts.items_text(inst.cot_items)}, ' if inst.cot_items else ""
        dialog_turns = ""
        if key not in written:
            written.add(key)
            dialog_turns = f'"dialog_turns": {_encode([turn.to_dict() for turn in dialog])}, '
        yield (
            f'{{"context_turns": {n}, {cot}{dialog_turns}"grounding_items": {texts.items_text(inst.grounding_items)}, '
            f'"instruction": {texts[inst.instruction]}, "provenance": {texts.provenance_text(inst.provenance)}, '
            f'"signature": {texts[inst.signature.canonical_string()]}, "style": {texts[inst.style]}, '
            f'"target_item": {texts[inst.target_item]}, "task_name": {texts[inst.task_name]}}}'
        )


def read_instances(path: str | Path) -> List[TaskInstance]:
    """Read an instance JSONL file written by write_instances.

    Every row parses through one ParseMemo, so each dialog's turns are
    parsed once, the rows referencing a prefix of them by ``context_turns``
    share one context tuple per (dialog, length), and each distinct
    signature, item, target item and source_tasks list of the file is
    parsed once and shared by the rows that hold it, as are repeated
    strings. Rows with an inline ``context`` load as well. A malformed row
    raises SchemaError naming its top-level field and line, and so does a
    row whose example_id an earlier row already had, naming that row's line:
    export would write the id twice.
    """
    memo = ParseMemo()
    instances: List[TaskInstance] = []
    first_line: Dict[str, int] = {}
    for line_number, data in read_jsonl(path):
        try:
            inst = TaskInstance.from_dict(data, memo)
        except SchemaError as exc:
            raise SchemaError(exc.field_path, line_number, exc.problem) from exc
        key = example_id(inst.provenance, inst.style)
        earlier = first_line.setdefault(key, line_number)
        if earlier != line_number:
            raise SchemaError("provenance", line_number, f"instance {key!r} is already on line {earlier}")
        instances.append(inst)
    return instances


def constraint_records(instances: Iterable[TaskInstance]) -> List[str]:
    """One row per instance, as the JSON text of its line: id, task, signature, checkable constraints.

    extract_constraints reads only an instance's grounding items and target
    item, so within one call the rows that hold the same two share one
    constraint list, built, sorted and encoded once.
    """
    bodies: Dict[Tuple[Any, ...], str] = {}
    texts = _Texts()
    rows = []
    for inst in instances:
        key = (inst.grounding_items, inst.target_item)
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = _encode(extract_constraints(inst).to_dicts())
        rows.append(
            f'{{"constraints": {body}, "id": {_quote(example_id(inst.provenance, inst.style))}, '
            f'"signature": {texts[inst.signature.canonical_string()]}, "task": {texts[inst.task_name]}}}'
        )
    return rows


def _counts(values: Iterable[Any]) -> Dict[Any, int]:
    return dict(sorted(Counter(values).items()))


def corpus_stats(instances: Sequence[TaskInstance]) -> Dict[str, Any]:
    """Shape of a corpus as stats.json holds it: counts by task, signature, dimension, split, dataset, style."""
    n_atomic = sum(1 for inst in instances if inst.signature.is_atomic)
    dimensions = _counts(inst.signature.dimension() for inst in instances)
    return {
        "n_instances": len(instances),
        "n_atomic": n_atomic,
        "n_compositional": len(instances) - n_atomic,
        "by_task": _counts(inst.task_name for inst in instances),
        "by_signature": _counts(inst.signature.canonical_string() for inst in instances),
        "by_dimension": {str(k): v for k, v in dimensions.items()},
        "by_split": _counts(inst.provenance.split for inst in instances),
        "by_dataset": _counts(inst.provenance.dataset for inst in instances),
        "by_style": _counts(inst.style for inst in instances),
    }


def _by_dialog(instances: Iterable[TaskInstance]) -> Iterator[List[TaskInstance]]:
    """Runs of consecutive instances from one dialog, in input order.

    Corpora sorted by instance_sort_key hold each dialog's instances in one
    run, so rendering or extracting per run keeps one dialog's results alive
    at a time while the output order stays that of the input.
    """
    for _, run in groupby(instances, key=_dialog_key):
        yield list(run)


def _rendered_rows(instances: Iterable[TaskInstance], seed: int, options: Optional[RenderOptions],
                   errors: List[Dict[str, Any]], failed: Set[int]) -> Iterator[str]:
    """The JSON text of each example's row, rendering one dialog at a time.

    A row holds the example's instance's id, task, signature, dataset, split
    and provenance with its input and output text. Extends ``errors`` with
    render_corpus's error records and ``failed`` with their instances' id().
    """
    texts = _Texts()
    for group in _by_dialog(instances):
        rendered, group_errors = render_corpus(group, seed, options)
        if group_errors:
            errors.extend(group_errors)
            kept = {id(example.instance) for example in rendered}
            failed.update(id(inst) for inst in group if id(inst) not in kept)
        for example in rendered:
            inst = example.instance
            p = inst.provenance
            yield (
                f'{{"dataset": {texts[p.dataset]}, "id": {_quote(example_id(p, inst.style))}, '
                f'"input": {_quote(example.input_text)}, "output": {_quote(example.output_text)}, '
                f'"provenance": {texts.provenance_text(p)}, "signature": {texts[inst.signature.canonical_string()]}, '
                f'"split": {texts[p.split]}, "task": {texts[inst.task_name]}}}'
            )


def export_corpus(
    instances: Sequence[TaskInstance],
    out_dir: str | Path,
    seed: int,
    plan: Optional[SamplingPlan] = None,
    options: Optional[RenderOptions] = None,
    emit_constraints: bool = False,
) -> Dict[str, Any]:
    """Sample, split, render, and write a corpus; returns the export manifest.

    Writes <split>.jsonl for train/dev/test (plus constraints-<split>.jsonl
    when requested) and stats.json into out_dir. An instance that fails to
    render is left out of both split files; stats.json counts every sampled
    instance. The manifest holds per-file counts and checksums and any
    render errors; the caller persists it.
    """
    plan = plan or SamplingPlan()
    sampled = sample(instances, plan, seed)
    by_split = assign_splits(sampled)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: Dict[str, Dict[str, Any]] = {}
    all_errors: List[Dict[str, Any]] = []
    for split in sorted(by_split):
        members = by_split[split]
        failed: Set[int] = set()
        manifest = write_jsonl(_rendered_rows(members, seed, options, all_errors, failed), out_dir / f"{split}.jsonl")
        files[manifest["name"]] = manifest
        if emit_constraints:
            if failed:
                members = [inst for inst in members if id(inst) not in failed]
            rows = (row for group in _by_dialog(members) for row in constraint_records(group))
            manifest = write_jsonl(rows, out_dir / f"constraints-{split}.jsonl")
            files[manifest["name"]] = manifest
    manifest = write_jsonl([corpus_stats(sampled)], out_dir / "stats.json")
    files[manifest["name"]] = manifest
    return {
        "seed": seed,
        "plan": plan.to_dict(),
        "files": files,
        "render_errors": all_errors,
    }
