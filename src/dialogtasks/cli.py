"""Command line interface.

Subcommands mirror the pipeline stages: ingest, tasks, compose, export
(cot, sample, render and write), eval, stats, validate, and run (all
stages from one INI config).
Exit codes: 0 success, 1 validation failure, 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .composer import compose_corpus, load_rules, naive_corpus
from .evaluate import ConstraintSpec, score_corpus
from .export import corpus_stats, read_instances, write_instances
from .ingest import SchemaError, load_corpus, naming_file, read_jsonl, write_corpus, write_json
from .model import _checked, example_id, validate_instance
from .pipeline import CONFIG_TEMPLATE, ConfigError, PipelineConfig, export_instances, load_dialogs, run_pipeline
from .prompts import apply_cot
from .registry import derive_corpus, list_tasks

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _print_json(data: Any) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


_OPTIONS = {field.name: field.metadata["option"] or "--" + field.name.replace("_", "-")
            for field in dataclasses.fields(PipelineConfig)}


def _option(container: Any, name: str, help: str) -> None:
    """Add the option of PipelineConfig field ``name``, typed as its config key is read, with no
    default of its own: _config keeps the field's value when it is left out. ``{default}`` in
    help shows that value."""
    field, spelling = PipelineConfig.__dataclass_fields__[name], _OPTIONS[name]
    if isinstance(field.default, bool):
        kind: Dict[str, Any] = {"action": argparse.BooleanOptionalAction}
    else:
        kind = {"type": int if isinstance(field.default, int) else field.metadata["read"],
                "metavar": spelling[2:].upper().replace("-", "_")}
    shown = str(field.default).lower() if isinstance(field.default, bool) else field.default
    container.add_argument(spelling, dest=name, default=argparse.SUPPRESS, help=help.format(default=shown), **kind)


def _config(args: argparse.Namespace, base: PipelineConfig = PipelineConfig()) -> PipelineConfig:
    """``base`` with the run keys given as options; a value its check refuses is a usage error."""
    try:
        return dataclasses.replace(base, **{name: value for name, value in vars(args).items() if name in _OPTIONS})
    except ConfigError as exc:
        args.parser.error(f"argument {_OPTIONS[exc.field]}: {exc.problem}")


def cmd_ingest(args: argparse.Namespace) -> int:
    dialogs, _ = load_dialogs(_config(args))
    _print_json(write_corpus(dialogs, args.out))
    return EXIT_OK


def cmd_tasks(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.list:
        for task in list_tasks():
            print(f"{task.name:36s} {task.signature:8s} {task.description}")
        return EXIT_OK
    dialogs, _ = load_corpus(args.corpus)
    instances = derive_corpus(dialogs, config.seed, tasks=config.tasks)
    _print_json(write_instances(instances, args.out))
    return EXIT_OK


def cmd_compose(args: argparse.Namespace) -> int:
    config = _config(args)
    instances = read_instances(args.infile)
    rules = load_rules(config.rules_path)
    if args.naive:
        composites = naive_corpus(instances, rules)
        summary: Dict[str, Any] = {"composites": len(composites), "style": "naive"}
    else:
        composites, reasons = compose_corpus(instances, rules, max_dim=config.max_dim)
        summary = {"composites": len(composites), "style": "standard", "rejections": dict(sorted(reasons.items()))}
    _print_json({**summary, "file": write_instances(composites, args.out)})
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    config = _config(args)
    manifest = export_instances(apply_cot(read_instances(args.infile), config.cot, config.seed), config, args.out)
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


def cmd_eval(args: argparse.Namespace) -> int:
    with naming_file(args.outputs):
        outputs, duplicates = collect_outputs(read_jsonl(args.outputs))
    with naming_file(args.constraints):
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
    _print_json(run_pipeline(_config(args, PipelineConfig.from_ini(args.config))))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogtasks",
        description="Derive, compose, render, export, and score dialog task corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # _option adds each option that sets a PipelineConfig field.
    p = sub.add_parser("ingest", help="load or generate a dialog corpus")
    _option(p, "seed", "run seed (default {default})")
    source = p.add_mutually_exclusive_group(required=True)
    _option(source, "input_path", "source corpus file (JSONL)")
    _option(source, "synth_dialogs", "generate SYNTH synthetic dialogs")
    _option(p, "adapter", "source corpus adapter (default {default})")
    _option(p, "synth_dataset", "dataset name for synthetic dialogs (default {default})")
    p.add_argument("--out", required=True, help="canonical corpus output path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tasks", help="list task types or derive instances")
    _option(p, "seed", "run seed (default {default})")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="print the task registry and exit")
    mode.add_argument("--derive", action="store_true", help="derive instances from --corpus")
    p.add_argument("--corpus", help="canonical corpus to derive from")
    _option(p, "tasks", "comma-separated task names (default: all)")
    p.add_argument("--out", help="instance output path")
    p.set_defaults(func=cmd_tasks)

    p = sub.add_parser("compose", help="compose atomic instances")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    _option(p, "rules_path", "rule table CSV (default: packaged)")
    style = p.add_mutually_exclusive_group()
    _option(style, "max_dim", "largest composite dimension (default {default})")
    style.add_argument("--naive", action="store_true", help="naive concatenation baseline")
    p.add_argument("--out", required=True, help="composite output path")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("export", help="apply cot, sample, render, and write split corpora")
    _option(p, "seed", "run seed (default {default})")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    _option(p, "atomic_quota", "instances kept per atomic task (default {default}; 0 keeps all)")
    _option(p, "composite_quota", "instances kept per composite task and dataset (default {default}; 0 keeps all)")
    _option(p, "cot", '"none" or "random-K" (default {default})')
    _option(p, "block_shuffle", "shuffle the items within each grounding block (default {default})")
    _option(p, "generic_fallback", "render a kind the phrase table lacks with a generic phrase (default {default})")
    _option(p, "emit_constraints", "also write constraints-<split>.jsonl (default {default})")
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
    _option(p, "seed", "run seed (default: the config's [run] seed)")
    p.add_argument("--print-config", action="store_true", help="print a template config and exit")
    p.set_defaults(func=cmd_run)

    # main reports its own argument checks through the subcommand's parser,
    # so that the usage line names the subcommand, as argparse's own do.
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # as parse_args reports them, but under the subcommand's usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "tasks" and args.derive and not (args.corpus and args.out):
        args.parser.error("tasks --derive requires --corpus and --out")
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
