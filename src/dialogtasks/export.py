"""Corpus export: instance serialization, task-balanced sampling, JSONL output.

Everything here is deterministic in (inputs, seed): records are written with
sorted keys, corpora are sorted canonically before writing, and no file
contains timestamps or absolute paths, so re-running an export produces
byte-identical files.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .evaluate import extract_constraints
from .ingest import ExportManifest, SchemaError, read_jsonl, write_jsonl
from .model import TaskInstance, Turn, instance_sort_key, turns_from_dicts
from .prompts import RenderOptions, render_corpus
from .seeding import stable_hash

SPLIT_NAMES = ("train", "dev", "test")


@dataclass(frozen=True)
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
    """Group instances by the split recorded in their provenance."""
    by_split: Dict[str, List[TaskInstance]] = {name: [] for name in SPLIT_NAMES}
    for inst in instances:
        by_split.setdefault(inst.provenance.split, []).append(inst)
    return by_split


def _dialog_key(inst: TaskInstance) -> Tuple[str, str]:
    return (inst.provenance.dataset, inst.provenance.dialog_id)


def write_instances(instances: Sequence[TaskInstance], path: str | Path) -> ExportManifest:
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
        row = replace(inst, context=()).to_dict()
        del row["context"]
        row["context_turns"] = n
        if key not in written:
            written.add(key)
            row["dialog_turns"] = [turn.to_dict() for turn in dialog]
        yield row


# A dialog's turns as read from an instance file, and the prefixes of them
# handed out so far, by length.
_DialogTurns = Tuple[Tuple[Turn, ...], Dict[int, Tuple[Turn, ...]]]


def read_instances(path: str | Path) -> List[TaskInstance]:
    """Read an instance JSONL file written by write_instances.

    Each dialog's turns are parsed once, and the rows referencing a prefix
    of them by ``context_turns`` share one context tuple per (dialog,
    length). Rows with an inline ``context`` load through from_dict alone.
    A malformed row raises SchemaError naming its top-level field and line.
    """
    dialogs: Dict[Tuple[str, str], _DialogTurns] = {}
    instances: List[TaskInstance] = []
    for line_number, data in read_jsonl(path):
        try:
            if "context_turns" in data:
                data["context"] = _shared_context(data, dialogs)
            instances.append(TaskInstance.from_dict(data))
        except SchemaError as exc:
            raise SchemaError(exc.field_path, line_number, exc.problem) from exc
    return instances


def _shared_context(data: Dict[str, Any], dialogs: Dict[Tuple[str, str], _DialogTurns]) -> Tuple[Turn, ...]:
    """Resolve a row's ``context_turns``, first storing any ``dialog_turns`` it carries.

    ``dialogs`` holds the turns of every dialog seen so far in the file.
    """
    try:
        key = (str(data["provenance"]["dataset"]), str(data["provenance"]["dialog_id"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError("provenance") from exc
    if "dialog_turns" in data:
        try:
            dialogs[key] = (turns_from_dicts(data.pop("dialog_turns")), {})
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SchemaError("dialog_turns") from exc
    n = data.pop("context_turns")
    if key not in dialogs:
        raise SchemaError(
            "context_turns",
            problem=f"context_turns refers to dialog {key[0]}/{key[1]}, "
            "whose dialog_turns are on no earlier line",
        )
    turns, prefixes = dialogs[key]
    if type(n) is not int or not 0 <= n <= len(turns):
        raise SchemaError("context_turns")
    context = prefixes.get(n)
    if context is None:
        context = prefixes[n] = turns[:n]
    return context


def instance_id(inst: TaskInstance) -> str:
    """Join key between rendered examples, constraint rows, and model outputs."""
    return inst.provenance.key()


def constraint_records(instances: Iterable[TaskInstance]) -> List[Dict[str, Any]]:
    """One row per instance: id, task, signature, checkable constraints."""
    records = []
    for inst in instances:
        records.append(
            {
                "id": instance_id(inst),
                "task": inst.task_name,
                "signature": inst.signature.canonical_string(),
                "constraints": extract_constraints(inst).to_dicts(),
            }
        )
    return records


@dataclass(frozen=True)
class CorpusStats:
    """Shape of a corpus: counts by task, signature, dimension, split, dataset."""

    n_instances: int
    n_atomic: int
    n_compositional: int
    by_task: Dict[str, int]
    by_signature: Dict[str, int]
    by_dimension: Dict[int, int]
    by_split: Dict[str, int]
    by_dataset: Dict[str, int]
    by_style: Dict[str, int]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_instances": self.n_instances,
            "n_atomic": self.n_atomic,
            "n_compositional": self.n_compositional,
            "by_task": dict(sorted(self.by_task.items())),
            "by_signature": dict(sorted(self.by_signature.items())),
            "by_dimension": {str(k): v for k, v in sorted(self.by_dimension.items())},
            "by_split": dict(sorted(self.by_split.items())),
            "by_dataset": dict(sorted(self.by_dataset.items())),
            "by_style": dict(sorted(self.by_style.items())),
        }


def corpus_stats(instances: Sequence[TaskInstance]) -> CorpusStats:
    by_task: Counter = Counter()
    by_signature: Counter = Counter()
    by_dimension: Counter = Counter()
    by_split: Counter = Counter()
    by_dataset: Counter = Counter()
    by_style: Counter = Counter()
    n_atomic = 0
    for inst in instances:
        by_task[inst.task_name] += 1
        by_signature[inst.signature.canonical_string()] += 1
        by_dimension[inst.signature.dimension()] += 1
        by_split[inst.provenance.split] += 1
        by_dataset[inst.provenance.dataset] += 1
        by_style[inst.style] += 1
        if inst.signature.is_atomic:
            n_atomic += 1
    return CorpusStats(
        n_instances=len(instances),
        n_atomic=n_atomic,
        n_compositional=len(instances) - n_atomic,
        by_task=dict(by_task),
        by_signature=dict(by_signature),
        by_dimension=dict(by_dimension),
        by_split=dict(by_split),
        by_dataset=dict(by_dataset),
        by_style=dict(by_style),
    )


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
) -> Tuple[ExportManifest, List[Dict[str, Any]]]:
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sampled = sample(instances, plan, seed)
    by_split = assign_splits(sampled)
    files: Dict[str, Dict[str, Any]] = {}
    all_errors: List[Dict[str, Any]] = []
    for split in sorted(by_split):
        members = by_split[split]
        manifest, errors = write_rendered(members, out_dir / f"{split}.jsonl", seed, options)
        all_errors.extend(errors)
        files[manifest.name] = manifest.to_dict()
        if emit_constraints:
            rows = (row for group in _by_dialog(members) for row in constraint_records(group))
            manifest = write_jsonl(rows, out_dir / f"constraints-{split}.jsonl")
            files[manifest.name] = manifest.to_dict()
    stats = corpus_stats(sampled)
    stats_manifest = write_jsonl([stats.to_dict()], out_dir / "stats.json")
    files[stats_manifest.name] = stats_manifest.to_dict()
    return {
        "seed": seed,
        "plan": plan.to_dict(),
        "files": files,
        "render_errors": all_errors,
    }
