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
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .evaluate import extract_constraints
from .ingest import SchemaError, read_jsonl, write_jsonl
from .model import SPLITS, ParseMemo, TaskInstance, Turn, example_id, instance_sort_key
from .prompts import RenderOptions, render_corpus
from .seeding import stable_hash


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
    for key in sorted(groups):
        population = sorted(groups[key], key=instance_sort_key)
        quota = plan.atomic_quota if key[0] == "atomic" else plan.composite_quota
        if quota > 0 and len(population) > quota:
            rng = random.Random(stable_hash(seed, "sample", *key))
            population = rng.sample(population, quota)
        kept.extend(population)
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
) -> Iterator[Dict[str, Any]]:
    written = set()
    for inst in instances:
        key = _dialog_key(inst)
        dialog = turns.get(key, ())
        n = len(inst.context)
        if inst.context != dialog[:n]:
            yield inst.to_dict()
            continue
        row = inst.to_dict(context=False)
        row["context_turns"] = n
        if key not in written:
            written.add(key)
            row["dialog_turns"] = [turn.to_dict() for turn in dialog]
        yield row


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


def constraint_records(instances: Iterable[TaskInstance]) -> List[Dict[str, Any]]:
    """One row per instance: id, task, signature, checkable constraints.

    extract_constraints reads only an instance's grounding items and target
    item, so within one call the rows that hold the same two share one
    constraint list, built and sorted once.
    """
    bodies: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
    rows = []
    for inst in instances:
        key = (inst.grounding_items, inst.target_item)
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = extract_constraints(inst).to_dicts()
        rows.append({
            "id": example_id(inst.provenance, inst.style),
            "task": inst.task_name,
            "signature": inst.signature.canonical_string(),
            "constraints": body,
        })
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


def write_rendered(
    instances: Iterable[TaskInstance],
    path: str | Path,
    seed: int,
    options: Optional[RenderOptions] = None,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Render instances one dialog at a time, streaming the examples to a JSONL file.

    Returns the file's manifest and render_corpus's error records.
    """
    errors: List[Dict[str, Any]] = []

    def records() -> Iterator[Dict[str, Any]]:
        for group in _by_dialog(instances):
            rendered, group_errors = render_corpus(group, seed, options)
            errors.extend(group_errors)
            for example in rendered:
                yield example.to_record()

    return write_jsonl(records(), path), errors


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
    when requested) and stats.json into out_dir. The manifest holds per-file
    counts and checksums and any render errors; the caller persists it.
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
        manifest, errors = write_rendered(members, out_dir / f"{split}.jsonl", seed, options)
        all_errors.extend(errors)
        files[manifest["name"]] = manifest
        if emit_constraints:
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
