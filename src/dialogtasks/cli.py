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
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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
    write_json,
)
from .model import _checked, _checked_name, example_id, validate_instance
from .pipeline import CONFIG_TEMPLATE, PipelineConfig, run_pipeline
from .prompts import RenderOptions, apply_cot
from .registry import derive_corpus, list_tasks
from .textutil import split_keyword_list

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _print_json(data: Any) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _utf8(value: str) -> str:
    """An option value a seed hashes, which must encode as UTF-8 (see model._checked_name)."""
    try:
        return _checked_name(value, "option")
    except SchemaError:
        raise argparse.ArgumentTypeError(f"not UTF-8: {value!r}") from None


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.synth is not None:
        dialogs = synth_corpus(args.seed, args.synth, SynthConfig(dataset=args.dataset))
    else:
        dialogs, _ = load_corpus(args.input, args.adapter)
    _print_json(write_corpus(dialogs, args.out))
    return EXIT_OK


def cmd_tasks(args: argparse.Namespace) -> int:
    if args.list:
        for task in list_tasks():
            print(f"{task.name:36s} {task.signature:8s} {task.description}")
        return EXIT_OK
    dialogs, _ = load_corpus(args.corpus)
    names = None if args.tasks is None else split_keyword_list(args.tasks)
    instances = derive_corpus(dialogs, args.seed, tasks=names)
    _print_json(write_instances(instances, args.out))
    return EXIT_OK


def cmd_compose(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    rules = load_rules(args.rules)
    if args.naive:
        composites = naive_corpus(instances, rules)
        summary: Dict[str, Any] = {"composites": len(composites), "style": "naive"}
    else:
        # --max-dim defaults to None, not 2, so that argparse refuses "--naive --max-dim 2" too.
        max_dim = 2 if args.max_dim is None else args.max_dim
        composites, reasons = compose_corpus(instances, rules, max_dim=max_dim)
        summary = {
            "composites": len(composites),
            "style": "standard",
            "rejections": dict(sorted(reasons.items())),
        }
    _print_json({**summary, "file": write_instances(composites, args.out)})
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    instances = apply_cot(instances, args.cot, args.seed)
    options = RenderOptions(
        block_shuffle=args.block_shuffle == "on", generic_fallback=args.generic_fallback
    )
    manifest, errors = write_rendered(instances, args.out, args.seed, options)
    _print_json({"file": manifest, "errors": errors})
    if errors:
        print(f"{len(errors)} instance(s) failed to render", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    manifest = export_corpus(
        instances,
        args.out,
        args.seed,
        plan=SamplingPlan(args.atomic_quota, args.composite_quota),
        emit_constraints=args.emit_constraints,
    )
    write_json(manifest, Path(args.out) / "manifest.json")
    _print_json(manifest)
    return EXIT_OK


def collect_outputs(output_rows: Iterable[Tuple[int, Dict[str, Any]]]) -> Tuple[Dict[str, Optional[str]], int]:
    """Map each output row's id to its output; also count repeated rows.

    Equal outputs share one string object. A row repeating an earlier row's
    id and output is counted. The same id with a different output is
    ambiguous and raises SchemaError naming the id; a missing or non-string
    ``id`` or ``output`` raises SchemaError naming the line and the field.
    """
    outputs: Dict[str, Optional[str]] = {}
    strings: Dict[str, str] = {}
    duplicates = 0
    for line_number, record in output_rows:
        try:
            row_id = _checked(record.get("id"), str, "id")
            output = _checked(record.get("output"), str, "output")
        except SchemaError as exc:
            raise SchemaError(exc.field_path, line_number) from exc
        first = outputs.get(row_id)
        if first is None:
            outputs[row_id] = strings.setdefault(output, output)
        elif first == output:
            duplicates += 1
        else:
            raise SchemaError(
                "output", line_number,
                f"id {row_id!r} already has a different output on an earlier line",
            )
    return outputs, duplicates


def join_constraints(
    constraint_rows: Iterable[Tuple[int, Dict[str, Any]]], outputs: Dict[str, Optional[str]]
) -> Tuple[List[Tuple[ConstraintSpec, str]], Dict[str, int]]:
    """Pair every constraint row with its output from collect_outputs.

    Returns the examples to score and the counts ``n_missing_outputs``
    (constraint rows without an output, scored against the empty string)
    and ``n_unknown_outputs`` (output ids no constraint row has, not scored).
    A missing or mistyped ``id`` or constraint field raises SchemaError
    naming the line and the field path; so does an ``id`` an earlier row
    already has, as which constraints its output answers is then ambiguous.

    The join consumes ``outputs``: it takes each id's output by setting the
    id's value to None, so that dict holds every output id once and
    afterwards maps exactly the unknown ids to their outputs. Only the ids
    of rows without an output are kept beside it. Each distinct constraint
    is parsed once per call, and rows holding the same constraints, in any
    order, share one ConstraintSpec.
    """
    examples = []
    parsed: Dict[Tuple[str, Any], Any] = {}
    specs: Dict[FrozenSet[Any], ConstraintSpec] = {}
    missing = set()
    for line_number, record in constraint_rows:
        try:
            row_id = _checked(record.get("id"), str, "id")
            output = outputs.get(row_id, "")
            if output is None or row_id in missing:
                raise SchemaError("id", problem=f"id {row_id!r} already has constraints on an earlier line")
            spec = ConstraintSpec.from_dicts(_checked(record.get("constraints"), list, "constraints"), parsed)
        except SchemaError as exc:
            raise SchemaError(exc.field_path, line_number, exc.problem) from exc
        if row_id in outputs:
            outputs[row_id] = None
        else:
            missing.add(row_id)
        examples.append((specs.setdefault(spec.constraints, spec), output))
    counts = {
        "n_missing_outputs": len(missing),
        "n_unknown_outputs": sum(1 for output in outputs.values() if output is not None),
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
    data = {"n_duplicate_outputs": duplicates, **counts, **score_corpus(examples)}
    if args.report:
        write_json(data, args.report)
    _print_json(data)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    _print_json(corpus_stats(instances))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    instances = read_instances(args.infile)
    bad = 0
    for inst in instances:
        problems = validate_instance(inst)
        if problems:
            bad += 1
            print(f"{example_id(inst.provenance, inst.style)}: {'; '.join(problems)}")
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
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="run seed (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="dialogtasks",
        description="Derive, compose, render, export, and score dialog task corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[seeded], help="load or generate a dialog corpus")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="source corpus file (JSONL)")
    source.add_argument("--synth", type=int, metavar="N", help="generate N synthetic dialogs")
    p.add_argument("--adapter", default="canonical", choices=sorted(ADAPTERS))
    p.add_argument("--dataset", type=_utf8, default="synth", help="dataset name for synthetic dialogs")
    p.add_argument("--out", required=True, help="canonical corpus output path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tasks", parents=[seeded], help="list task types or derive instances")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="print the task registry and exit")
    mode.add_argument("--derive", action="store_true", help="derive instances from --corpus")
    p.add_argument("--corpus", help="canonical corpus to derive from")
    p.add_argument("--tasks", help="comma-separated task names (default: all)")
    p.add_argument("--out", help="instance output path")
    p.set_defaults(func=cmd_tasks)

    p = sub.add_parser("compose", help="compose atomic instances")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--rules", help="rule table CSV (default: packaged)")
    style = p.add_mutually_exclusive_group()
    style.add_argument("--max-dim", type=int, help="largest composite dimension (default 2)")
    style.add_argument("--naive", action="store_true", help="naive concatenation baseline")
    p.add_argument("--out", required=True, help="composite output path")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("render", parents=[seeded], help="render instances to prompts")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--cot", default="none", help='"none" or "random-K"')
    p.add_argument("--block-shuffle", choices=("on", "off"), default="on")
    p.add_argument("--generic-fallback", action="store_true")
    p.add_argument("--out", required=True, help="rendered output path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("export", parents=[seeded], help="sample, render, and write split corpora")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    quotas = SamplingPlan()
    p.add_argument("--atomic-quota", type=int, default=quotas.atomic_quota,
                   help="instances kept per atomic task (default %(default)s; 0 keeps all)")
    p.add_argument("--composite-quota", type=int, default=quotas.composite_quota,
                   help="instances kept per composite task and dataset (default %(default)s; 0 keeps all)")
    p.add_argument("--emit-constraints", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="score model outputs against constraints")
    p.add_argument("--constraints", required=True, help="constraint rows (JSONL)")
    p.add_argument("--outputs", required=True, help="model outputs keyed by id (JSONL)")
    p.add_argument("--report", help="write the metric report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="summarize an instance file")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run the full pipeline from a config")
    p.add_argument("--config", help="pipeline INI file")
    p.add_argument("--seed", type=int, help="run seed (default: the config's [run] seed)")
    p.add_argument("--print-config", action="store_true", help="print a template config and exit")
    p.set_defaults(func=cmd_run)

    # main reports its own argument checks through the subcommand's parser,
    # so that the usage line names the subcommand, as argparse's own do.
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tasks" and args.derive and not (args.corpus and args.out):
        args.parser.error("tasks --derive requires --corpus and --out")
    if args.command == "ingest" and args.synth is not None and args.synth < 1:
        args.parser.error("argument --synth: must be >= 1")
    if args.command == "compose" and args.max_dim is not None and args.max_dim < 2:
        args.parser.error("argument --max-dim: must be >= 2")
    if args.command == "run" and not args.print_config and not args.config:
        args.parser.error("run requires --config (or --print-config)")
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
