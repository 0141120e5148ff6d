"""Per-layer tracing from outside the program.

``install`` wraps public functions of ``dialogtasks`` and rebinds each
wrapper at every ``dialogtasks`` module that holds the original, so calls
made through ``from .x import f`` bindings are seen too. No source under
``src/`` changes.

Three kinds of hook:

- ``span``: a stage-level call. It records one span (name, start, end,
  parent) and adds its self time, the part of its duration not covered by
  nested spans or timed per-item calls.
- ``item``: a per-item call. It adds to a call count and a total time; no
  span is recorded, because there are tens of thousands of them.
- ``count``: a per-item call that is only counted, for functions so small
  that timing each call would distort the run.

Private helpers are not wrapped, so they stay in their caller's self time.
Spans are kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import importlib
import inspect
import os
import re
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN, ITEM, COUNT = "span", "item", "count"

# Rejection reasons of composer.compose_corpus, reported as
# composer.rejected.<slug>. Reasons outside this list still show up in the
# shape counts of every run.
REJECTION_SLUGS = (
    "different_dialog_context",
    "output_leaks_into_input",
    "targets_differ",
    "duplicate_task_type",
    "no_matching_rule",
    "duplicate_grounding_item",
)


def slug(reason: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", reason.lower()).strip("_")


# --- counters: (recorder, bound arguments, result) -> None -----------------

def _count_load_corpus(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    rec.counts["ingest.dialogs"] += len(result[0])


def _count_derive(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    from dialogtasks.registry import REGISTRY

    tasks = args.get("tasks")
    n_tasks = len(list(tasks)) if tasks is not None else len(REGISTRY)
    positions = sum(max(len(d.turns) - 1, 0) for d in args["dialogs"])
    rec.counts["registry.instances"] += len(result)
    rec.counts["registry.target_positions"] += positions
    rec.counts["registry.task_positions"] += positions * n_tasks


def _count_compose(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    composites, reasons = result
    rec.counts["composer.composites"] += len(composites)
    for reason, n in reasons.items():
        rec.rejections[reason] += n


def _count_render(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    rec.counts["prompts.rendered"] += len(result[0])
    rec.counts["prompts.render_errors"] += len(result[1])


def _count_sample(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    rec.counts["export.sample_offered"] += len(args["instances"])
    rec.counts["export.sample_kept"] += len(result)


def _count_constraint_records(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    rec.counts["export.constraint_rows"] += len(result)


def _count_write_jsonl(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    rec.counts["export.output_bytes"] += os.path.getsize(args["path"])


def _count_write_instances(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    rec.counts["export.instance_rows"] += len(args["instances"])
    rec.counts["export.instance_bytes"] += os.path.getsize(args["path"])


def _count_score(rec: "Recorder", args: Dict[str, Any], result: Any) -> None:
    rec.counts["evaluate.examples"] += len(args["examples"])


# (metric stem, module, attribute, kind, counter). The stem's first part is
# the layer. An attribute "Class.method" wraps a method on the class.
HOOKS: Tuple[Tuple[str, str, str, str, Optional[Callable[..., None]]], ...] = (
    ("ingest.load_corpus", "ingest", "load_corpus", SPAN, _count_load_corpus),
    ("registry.derive_corpus", "registry", "derive_corpus", SPAN, _count_derive),
    ("composer.compose_corpus", "composer", "compose_corpus", SPAN, _count_compose),
    ("composer.compose", "composer", "compose", ITEM, None),
    ("prompts.apply_cot", "prompts", "apply_cot", SPAN, None),
    ("prompts.render_corpus", "prompts", "render_corpus", SPAN, _count_render),
    ("export.sample", "export", "sample", SPAN, _count_sample),
    ("export.constraint_records", "export", "constraint_records", SPAN, _count_constraint_records),
    ("export.write_jsonl", "export", "write_jsonl", SPAN, _count_write_jsonl),
    ("export.corpus_stats", "export", "corpus_stats", SPAN, None),
    ("export.write_instances", "export", "write_instances", SPAN, _count_write_instances),
    ("export.read_instances", "export", "read_instances", SPAN, None),
    ("model.to_dict", "model", "TaskInstance.to_dict", ITEM, None),
    ("model.from_dict", "model", "TaskInstance.from_dict", ITEM, None),
    ("evaluate.from_dicts", "evaluate", "ConstraintSpec.from_dicts", ITEM, None),
    ("evaluate.score_corpus", "evaluate", "score_corpus", SPAN, _count_score),
    ("evaluate.check_constraint", "evaluate", "check_constraint", ITEM, None),
    ("evaluate.rouge_l", "evaluate", "rouge_l", ITEM, None),
    ("evaluate.corpus_bleu2", "evaluate", "corpus_bleu2", SPAN, None),
    ("evaluate.extract_constraints", "evaluate", "extract_constraints", COUNT, None),
    ("textutil.normalize_tokens", "textutil", "normalize_tokens", COUNT, None),
    ("cli.tasks", "cli", "cmd_tasks", SPAN, None),
    ("cli.compose", "cli", "cmd_compose", SPAN, None),
    ("cli.export", "cli", "cmd_export", SPAN, None),
    ("cli.eval", "cli", "cmd_eval", SPAN, None),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline", SPAN, None),
)

# Hooks whose counters give the shape counts of untraced runs.
SHAPE_HOOKS = ("registry.derive_corpus", "composer.compose_corpus")

# A span hook called inside one of these spans is that caller's private
# helper: write_instances writes through write_jsonl, and those bytes and
# that time belong to the instance file, not to the exported corpus.
HELPER_OF = {"export.write_jsonl": ("export.write_instances",)}


class _Frame:
    __slots__ = ("span_id", "name", "start", "covered")

    def __init__(self, span_id: int, name: str, start: float):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.covered = 0.0


class Recorder:
    """Spans, self times, call counts and result counts of one repetition.

    With ``timed`` false only the result counters run: no clock is read and
    no span is kept. Untraced repetitions use that for their shape counts.
    """

    def __init__(self, run_id: str, timed: bool = True):
        self.run_id = run_id
        self.timed = timed
        self.spans: List[Dict[str, Any]] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.rejections: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[_Frame] = []
        self._opened = 0
        self._in_item = False
        self._origin = time.perf_counter()

    def enter(self, name: str) -> _Frame:
        self._opened += 1
        frame = _Frame(self._opened, name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def leave(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.self_s[frame.name] += duration - frame.covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.covered += duration
        self.spans.append(
            {
                "run": self.run_id,
                "id": frame.span_id,
                "parent": parent.span_id if parent else None,
                "name": frame.name,
                "start": frame.start - self._origin,
                "end": end - self._origin,
            }
        )

    def current(self) -> Optional[str]:
        return self._stack[-1].name if self._stack else None

    # --- wrappers ----------------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)
        helper_of = HELPER_OF.get(name, ())

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.timed:
                result = fn(*args, **kwargs)
            elif self.current() in helper_of:
                return fn(*args, **kwargs)
            else:
                frame = self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.leave(frame)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return wrapper

    def item_wrapper(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        calls = self.calls
        seconds = self.self_s

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            if self._in_item:
                return fn(*args, **kwargs)
            self._in_item = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._in_item = False
                seconds[name] += elapsed
                if self._stack:
                    self._stack[-1].covered += elapsed

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _program_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "dialogtasks" or name.startswith("dialogtasks."))
    ]


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every program-module binding of ``original`` at ``replacement``."""
    for module in _program_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder, stems: Optional[Tuple[str, ...]] = None) -> None:
    """Install the hooks named by ``stems`` (all by default) into ``rec``.

    A hook whose target no longer exists is skipped and listed in
    ``rec.missing``, so a renamed function shows up in the report instead
    of failing the run.
    """
    for stem, module_name, attr, kind, counter in HOOKS:
        if stems is not None and stem not in stems:
            continue
        try:
            module = importlib.import_module(f"dialogtasks.{module_name}")
        except ImportError:
            rec.missing.append(stem)
            continue
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(method) if owner is not None else None
        if raw is None:
            rec.missing.append(stem)
            continue
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if kind == SPAN:
            wrapped = rec.span_wrapper(stem, fn, counter)
        elif kind == ITEM:
            wrapped = rec.item_wrapper(stem, fn)
        else:
            wrapped = rec.count_wrapper(stem, fn)
        if owner_name:
            setattr(owner, method, classmethod(wrapped) if is_classmethod else wrapped)
        else:
            _rebind(fn, wrapped)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition, by name."""
    metrics: Dict[str, float] = {}
    for stem, _module, _attr, kind, _counter in HOOKS:
        if kind in (ITEM, COUNT):
            metrics[f"{stem}_calls"] = rec.calls[stem]
        if kind in (SPAN, ITEM):
            metrics[f"{stem}_s"] = rec.self_s[stem]
    counts = rec.counts
    for name in (
        "ingest.dialogs",
        "registry.instances",
        "registry.target_positions",
        "composer.composites",
        "prompts.rendered",
        "prompts.render_errors",
        "export.constraint_rows",
        "export.instance_rows",
        "export.instance_bytes",
        "export.output_bytes",
        "evaluate.examples",
    ):
        metrics[name] = counts[name]
    metrics["registry.derive_yield"] = _ratio(counts["registry.instances"], counts["registry.task_positions"])
    metrics["composer.accept_ratio"] = _ratio(counts["composer.composites"], rec.calls["composer.compose"])
    metrics["export.sample_kept_ratio"] = _ratio(counts["export.sample_kept"], counts["export.sample_offered"])
    by_slug = Counter({slug(reason): n for reason, n in rec.rejections.items()})
    for name in REJECTION_SLUGS:
        metrics[f"composer.rejected.{name}"] = by_slug[name]
    return metrics


def layer_shares(rec: Recorder) -> Dict[str, float]:
    """Self time per layer as a share of the root span (the timed region)."""
    total = sum(rec.self_s.values())
    shares: Counter = Counter()
    for stem, seconds in rec.self_s.items():
        shares[stem.split(".", 1)[0]] += seconds
    return {layer: _ratio(seconds, total) for layer, seconds in sorted(shares.items())}
