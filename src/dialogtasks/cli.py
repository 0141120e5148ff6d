"""Command line interface.

Subcommands mirror the pipeline stages: ingest, tasks, compose, render,
export, eval, stats, validate, and run (all stages from one INI config).
Exit codes: 0 success, 1 validation failure, 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .composer import compose_corpus, load_rules, naive_corpus
from .evaluate import ConstraintSpec, score_corpus
from .export import SamplingPlan, corpus_stats, export_corpus, read_instances, write_instances, write_rendered
from .ingest import (
    ADAPTERS,
    ParseError,
    SchemaError,
    SynthConfig,
    load_corpus,
    read_jsonl,
    synth_corpus,
    write_corpus,
)
from .model import validate_instance
from .pipeline import CONFIG_TEMPLATE, PipelineConfig, run_pipeline
from .prompts import RenderOptions, apply_cot
from .registry import derive_corpus, list_tasks

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _print_json(data: Any) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _seed(args: argparse.Namespace) -> int:
    return 0 if args.seed is None else args.seed


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.synth is not None:
        dialogs = synth_corpus(_seed(args), args.synth, SynthConfig(dataset=args.dataset))
    else:
        dialogs, _ = load_corpus(args.input, args.adapter)
    manifest = write_corpus(dialogs, args.out)
    _print_json(manifest.to_dict())
    return EXIT_OK


def cmd_tasks(args: argparse.Namespace) -> int:
    if args.list:
        for task in list_tasks():
            print(f"{task.name:36s} {task.signature:8s} {task.description}")
        return EXIT_OK
    dialogs, _ = load_corpus(args.corpus)
    names = [n.strip() for n in args.tasks.split(",") if n.strip()] if args.tasks else None
    instances = derive_corpus(dialogs, _seed(args), tasks=names)
    manifest = write_instances(instances, args.out)
    _print_json(manifest.to_dict())
    return EXIT_OK


def cmd_compose(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    rules = load_rules(args.rules)
    if args.naive:
        composites = naive_corpus(instances, rules)
        summary: Dict[str, Any] = {"composites": len(composites), "style": "naive"}
    else:
        composites, reasons = compose_corpus(instances, rules, max_dim=args.max_dim)
        summary = {
            "composites": len(composites),
            "style": "standard",
            "rejections": dict(sorted(reasons.items())),
        }
    manifest = write_instances(composites, args.out)
    _print_json({**summary, "file": manifest.to_dict()})
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    instances = apply_cot(instances, args.cot, _seed(args))
    options = RenderOptions(
        block_shuffle=args.block_shuffle == "on", generic_fallback=args.generic_fallback
    )
    manifest, errors = write_rendered(instances, args.out, _seed(args), options)
    _print_json({"file": manifest.to_dict(), "errors": errors})
    if errors:
        print(f"{len(errors)} instance(s) failed to render", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _read_plan(path: str) -> SamplingPlan:
    """A sampling plan from a JSON object; absent quotas keep their defaults."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise SchemaError("(plan)", problem=f"plan file {path} does not hold a JSON object")
    quotas = SamplingPlan().to_dict()
    for key in quotas:
        try:
            quotas[key] = int(data.get(key, quotas[key]))
        except (OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(key, problem=f"missing or invalid field {key} in plan file {path}") from exc
    return SamplingPlan(**quotas)


def cmd_export(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    plan = _read_plan(args.plan) if args.plan else SamplingPlan()
    if args.atomic_quota is not None:
        plan = SamplingPlan(args.atomic_quota, plan.composite_quota)
    if args.composite_quota is not None:
        plan = SamplingPlan(plan.atomic_quota, args.composite_quota)
    manifest = export_corpus(
        instances,
        args.out,
        _seed(args),
        plan=plan,
        emit_constraints=args.emit_constraints,
    )
    (Path(args.out) / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _print_json(manifest)
    return EXIT_OK


def _string_field(record: Dict[str, Any], key: str, line_number: int) -> str:
    value = record.get(key)
    if not isinstance(value, str):
        raise SchemaError(key, line_number)
    return value


def collect_outputs(output_rows: Iterable[Tuple[int, Dict[str, Any]]]) -> Tuple[Dict[str, str], int]:
    """Map each output row's id to its output; also count repeated rows.

    A row repeating an earlier row's id and output is counted. The same id
    with a different output is ambiguous and raises SchemaError naming the
    id; a missing or non-string ``id`` or ``output`` raises SchemaError
    naming the line and the field.
    """
    outputs: Dict[str, str] = {}
    duplicates = 0
    for line_number, record in output_rows:
        example_id = _string_field(record, "id", line_number)
        output = _string_field(record, "output", line_number)
        first = outputs.get(example_id)
        if first is None:
            outputs[example_id] = output
        elif first == output:
            duplicates += 1
        else:
            raise SchemaError(
                "output", line_number,
                f"id {example_id!r} already has a different output on an earlier line",
            )
    return outputs, duplicates


def join_constraints(
    constraint_rows: Iterable[Tuple[int, Dict[str, Any]]], outputs: Dict[str, str]
) -> Tuple[List[Tuple[ConstraintSpec, str]], Dict[str, int]]:
    """Pair every constraint row with its output from collect_outputs.

    Returns the examples to score and the counts ``n_missing_outputs``
    (constraint rows without an output, scored against the empty string)
    and ``n_unknown_outputs`` (output ids no constraint row has, not scored).
    A missing or mistyped ``id`` or constraint field raises SchemaError
    naming the line and the field path.
    """
    examples = []
    known = set()
    missing = 0
    for line_number, record in constraint_rows:
        example_id = _string_field(record, "id", line_number)
        constraints = record.get("constraints")
        if not isinstance(constraints, list):
            raise SchemaError("constraints", line_number)
        try:
            spec = ConstraintSpec.from_dicts(constraints)
        except SchemaError as exc:
            raise SchemaError(exc.field_path, line_number) from exc
        known.add(example_id)
        if example_id not in outputs:
            missing += 1
        examples.append((spec, outputs.get(example_id, "")))
    counts = {
        "n_missing_outputs": missing,
        "n_unknown_outputs": sum(1 for example_id in outputs if example_id not in known),
    }
    return examples, counts


@contextlib.contextmanager
def _naming_file(path: str) -> Iterator[None]:
    """Append ``(in <path>)`` to a ParseError or SchemaError raised inside."""
    try:
        yield
    except (ParseError, SchemaError) as exc:
        exc.args = (f"{exc} (in {path})",)
        raise


def cmd_eval(args: argparse.Namespace) -> int:
    with _naming_file(args.outputs):
        outputs, duplicates = collect_outputs(read_jsonl(args.outputs))
    with _naming_file(args.constraints):
        examples, counts = join_constraints(read_jsonl(args.constraints), outputs)
    data = {"n_duplicate_outputs": duplicates, **counts, **score_corpus(examples).to_dict()}
    if args.report:
        Path(args.report).write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    _print_json(data)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    _print_json(corpus_stats(instances).to_dict())
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    bad = 0
    for inst in instances:
        problems = validate_instance(inst)
        if problems:
            bad += 1
            print(f"{inst.provenance.key()}: {'; '.join(problems)}")
    print(f"{len(instances) - bad}/{len(instances)} instances valid")
    return EXIT_INVALID if bad else EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    if args.print_config:
        print(CONFIG_TEMPLATE, end="")
        return EXIT_OK
    config = PipelineConfig.from_ini(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    manifest = run_pipeline(config)
    _print_json(manifest)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="run seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="dialogtasks",
        description="Derive, compose, render, export, and score dialog task corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load or generate a dialog corpus")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="source corpus file (JSONL)")
    source.add_argument("--synth", type=int, metavar="N", help="generate N synthetic dialogs")
    p.add_argument("--adapter", default="canonical", choices=sorted(ADAPTERS))
    p.add_argument("--dataset", default="synth", help="dataset name for synthetic dialogs")
    p.add_argument("--out", required=True, help="canonical corpus output path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tasks", parents=[common], help="list task types or derive instances")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="print the task registry and exit")
    mode.add_argument("--derive", action="store_true", help="derive instances from --corpus")
    p.add_argument("--corpus", help="canonical corpus to derive from")
    p.add_argument("--tasks", help="comma-separated task names (default: all)")
    p.add_argument("--out", help="instance output path")
    p.set_defaults(func=cmd_tasks)

    p = sub.add_parser("compose", parents=[common], help="compose atomic instances")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--rules", help="rule table CSV (default: packaged)")
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--naive", action="store_true", help="naive concatenation baseline")
    p.add_argument("--out", required=True, help="composite output path")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("render", parents=[common], help="render instances to prompts")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--cot", default="none", help='"none" or "random-K"')
    p.add_argument("--block-shuffle", choices=("on", "off"), default="on")
    p.add_argument("--generic-fallback", action="store_true")
    p.add_argument("--out", required=True, help="rendered output path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("export", parents=[common], help="sample, render, and write split corpora")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--plan", help="sampling plan JSON file")
    p.add_argument("--atomic-quota", type=int, default=None)
    p.add_argument("--composite-quota", type=int, default=None)
    p.add_argument("--emit-constraints", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", parents=[common], help="score model outputs against constraints")
    p.add_argument("--constraints", required=True, help="constraint rows (JSONL)")
    p.add_argument("--outputs", required=True, help="model outputs keyed by id (JSONL)")
    p.add_argument("--report", help="write the metric report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", parents=[common], help="summarize an instance file")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", parents=[common], help="check instance invariants")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", parents=[common], help="run the full pipeline from a config")
    p.add_argument("--config", help="pipeline INI file")
    p.add_argument("--print-config", action="store_true", help="print a template config and exit")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tasks" and args.derive and not (args.corpus and args.out):
        parser.error("tasks --derive requires --corpus and --out")
    if args.command == "run" and not args.print_config and not args.config:
        parser.error("run requires --config (or --print-config)")
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
