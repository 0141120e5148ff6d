"""CLI subcommands, exit codes, and the end-to-end config-driven run."""

import dataclasses
import hashlib
import json
import os

import pytest

from dialogtasks import cli
from dialogtasks.export import read_instances
from dialogtasks.model import example_id
from dialogtasks.pipeline import PipelineConfig, run_pipeline
from dialogtasks.registry import REGISTRY


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus_path(tmp_path, capsys):
    path = tmp_path / "dialogs.jsonl"
    code, _, _ = _run(capsys, "ingest", "--synth", "12", "--out", str(path), "--seed", "5")
    assert code == cli.EXIT_OK
    return path


@pytest.fixture()
def instances_path(tmp_path, corpus_path, capsys):
    path = tmp_path / "instances.jsonl"
    code, _, _ = _run(
        capsys, "tasks", "--derive", "--corpus", str(corpus_path), "--out", str(path)
    )
    assert code == cli.EXIT_OK
    return path


def test_tasks_list_prints_whole_registry(capsys):
    code, out, _ = _run(capsys, "tasks", "--list")
    assert code == cli.EXIT_OK
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == len(REGISTRY) == 18
    assert any(l.startswith("response_generation ") for l in lines)
    assert any("ICA-R" in l for l in lines)


def test_ingest_synth_writes_manifest_json(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    code, out, _ = _run(capsys, "ingest", "--synth", "7", "--out", str(path))
    assert code == cli.EXIT_OK
    manifest = json.loads(out)
    assert manifest["count"] == 7
    assert manifest["dataset"] == "synth"
    assert path.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_ingest_synth_below_one_exits_two_naming_the_option(tmp_path, capsys, count):
    path = tmp_path / "c.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["ingest", "--synth", count, "--out", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dialogtasks ingest ")
    assert "dialogtasks ingest: error: argument --synth: must be >= 1" in err
    assert not path.exists()


def test_ingest_dataset_not_utf8_exits_two_naming_the_option(tmp_path, capsys):
    # A byte that is not UTF-8 reaches argv as a lone surrogate, which the
    # synthetic dialogs' seeds, hashing the dataset as UTF-8, cannot encode.
    path = tmp_path / "c.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["ingest", "--synth", "2", "--dataset", "s\udcff", "--out", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dialogtasks ingest ")
    assert "dialogtasks ingest: error: argument --dataset: " in err
    assert not path.exists()


def test_ingest_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = _run(
        capsys, "ingest", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")
    )
    assert code == cli.EXIT_IO
    assert "error:" in err


def test_tasks_derive_requires_corpus_and_out(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tasks", "--derive"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dialogtasks tasks ")
    assert "dialogtasks tasks: error: tasks --derive requires --corpus and --out" in err


def test_tasks_derive_unknown_task_is_error(tmp_path, corpus_path, capsys):
    code, _, err = _run(
        capsys,
        "tasks", "--derive", "--corpus", str(corpus_path),
        "--tasks", "no_such_task", "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == cli.EXIT_IO
    assert "no_such_task" in err


@pytest.mark.parametrize("tasks", [",", " , ", ""])
def test_tasks_derive_selection_of_no_task_exits_two(tmp_path, corpus_path, capsys, tasks):
    out_path = tmp_path / "x.jsonl"
    code, out, err = _run(
        capsys, "tasks", "--derive", "--corpus", str(corpus_path), "--tasks", tasks, "--out", str(out_path)
    )
    assert code == cli.EXIT_IO
    assert out == "" and "names no task" in err
    assert not out_path.exists()


def test_tasks_derive_task_named_twice_exits_two(tmp_path, corpus_path, capsys):
    # Deriving the task twice would write each of its ids twice.
    out_path = tmp_path / "x.jsonl"
    code, out, err = _run(
        capsys, "tasks", "--derive", "--corpus", str(corpus_path),
        "--tasks", "act_prediction,emotion_prediction,act_prediction", "--out", str(out_path),
    )
    assert code == cli.EXIT_IO
    assert out == "" and "'act_prediction' more than once" in err
    assert not out_path.exists()


def test_compose_and_stats_round_trip(tmp_path, instances_path, capsys):
    out_path = tmp_path / "composites.jsonl"
    code, out, _ = _run(capsys, "compose", "--in", str(instances_path), "--out", str(out_path))
    assert code == cli.EXIT_OK
    summary = json.loads(out)
    assert summary["style"] == "standard"
    assert summary["composites"] == summary["file"]["count"] > 0
    assert summary["rejections"]

    code, out, _ = _run(capsys, "stats", "--in", str(out_path))
    assert code == cli.EXIT_OK
    stats = json.loads(out)
    assert stats["n_instances"] == summary["composites"]
    assert stats["n_atomic"] == 0

    assert _run(capsys, "validate", "--in", str(out_path))[0] == cli.EXIT_OK
    rendered = tmp_path / "rendered.jsonl"
    code, out, _ = _run(capsys, "render", "--in", str(out_path), "--cot", "random-1", "--out", str(rendered))
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["errors"] == [] and report["file"]["count"] == summary["composites"]


def test_compose_naive_baseline(tmp_path, instances_path, capsys):
    out_path = tmp_path / "naive.jsonl"
    code, out, _ = _run(
        capsys, "compose", "--in", str(instances_path), "--naive", "--out", str(out_path)
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["style"] == "naive"
    assert all(inst.style == "naive" for inst in read_instances(out_path))
    assert _run(capsys, "validate", "--in", str(out_path))[0] == cli.EXIT_OK
    # The naive layout is unshuffled, so two render seeds write the same bytes.
    rendered = []
    for seed in ("7", "8"):
        path = tmp_path / f"naive-{seed}.jsonl"
        code, out, _ = _run(capsys, "render", "--in", str(out_path), "--seed", seed, "--out", str(path))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["file"]["count"] > 0 and report["errors"] == []
        rendered.append(path.read_bytes())
    assert rendered[0] == rendered[1]


@pytest.mark.parametrize("max_dim", ["1", "2", "5"])
def test_compose_naive_refuses_max_dim(tmp_path, instances_path, capsys, max_dim):
    # Naive composition has no dimension bound, so a --max-dim beside --naive
    # would be ignored; argparse refuses the pair, even at the default value.
    out_path = tmp_path / "naive.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["compose", "--in", str(instances_path), "--naive", "--max-dim", max_dim, "--out", str(out_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dialogtasks compose ") and "not allowed with argument" in err
    assert not out_path.exists()


def test_compose_max_dim_below_two_is_a_usage_error(tmp_path, instances_path, capsys):
    out_path = tmp_path / "composites.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["compose", "--in", str(instances_path), "--max-dim", "1", "--out", str(out_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dialogtasks compose ")
    assert "dialogtasks compose: error: argument --max-dim: must be >= 2" in err
    assert not out_path.exists()


def test_standard_and_naive_composites_export_and_score_together(tmp_path, capsys):
    # Eleven dialogs at seed 7 put some in each split.
    corpus, atomic = tmp_path / "dialogs.jsonl", tmp_path / "atomic.jsonl"
    assert _run(capsys, "ingest", "--synth", "11", "--seed", "7", "--out", str(corpus))[0] == cli.EXIT_OK
    _run(capsys, "tasks", "--derive", "--corpus", str(corpus), "--seed", "7", "--out", str(atomic))
    both = tmp_path / "both.jsonl"
    for extra in ((), ("--naive",)):
        part = tmp_path / f"composite{'-'.join(extra)}.jsonl"
        assert _run(capsys, "compose", "--in", str(atomic), *extra, "--out", str(part))[0] == cli.EXIT_OK
        with both.open("a", encoding="utf-8") as out:
            out.write(part.read_text(encoding="utf-8"))
    out_dir = tmp_path / "export"
    code, _, _ = _run(
        capsys, "export", "--in", str(both), "--seed", "7", "--emit-constraints", "--out", str(out_dir)
    )
    assert code == cli.EXIT_OK
    for name in ("train", "dev", "test", "constraints-train", "constraints-dev", "constraints-test"):
        ids = [json.loads(line)["id"] for line in (out_dir / f"{name}.jsonl").open(encoding="utf-8")]
        assert ids and len(ids) == len(set(ids)), name
    train = [json.loads(line) for line in (out_dir / "train.jsonl").open(encoding="utf-8")]
    naive = [row for row in train if row["id"].endswith("#naive")]
    assert 0 < len(naive) < len(train)
    assert {row["id"].removesuffix("#naive") for row in naive} <= {row["id"] for row in train}
    outputs = tmp_path / "gold.jsonl"
    outputs.write_text("".join(json.dumps({"id": r["id"], "output": r["output"]}) + "\n" for r in train))
    code, out, _ = _run(
        capsys, "eval", "--constraints", str(out_dir / "constraints-train.jsonl"), "--outputs", str(outputs)
    )
    assert code == cli.EXIT_OK
    # Gold outputs meet every constraint and overlap their references in full.
    report = json.loads(out)
    assert report["compositional_accuracy"] == report["bleu2"] == report["rouge_l"] == 1.0


def test_render_writes_prompt_records(tmp_path, instances_path, capsys):
    out_path = tmp_path / "rendered.jsonl"
    code, out, _ = _run(
        capsys, "render", "--in", str(instances_path), "--cot", "random-1",
        "--out", str(out_path), "--seed", "3",
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["errors"] == []
    first = json.loads(out_path.read_text(encoding="utf-8").splitlines()[0])
    assert first["input"].startswith("Instruction: ")
    assert {"id", "output", "task", "signature"} <= set(first)


def test_render_bad_cot_mode_is_error(tmp_path, instances_path, capsys):
    code, _, err = _run(
        capsys, "render", "--in", str(instances_path), "--cot", "always",
        "--out", str(tmp_path / "r.jsonl"),
    )
    assert code == cli.EXIT_IO
    assert "cot" in err


def test_validate_accepts_derived_instances(instances_path, capsys):
    code, out, _ = _run(capsys, "validate", "--in", str(instances_path))
    assert code == cli.EXIT_OK
    assert out.strip().endswith("instances valid")


def test_validate_flags_corrupted_instance(tmp_path, instances_path, capsys):
    lines = instances_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["instruction"] = ""
    broken = tmp_path / "broken.jsonl"
    broken.write_text(json.dumps(record) + "\n" + "\n".join(lines[1:]) + "\n", encoding="utf-8")
    code, out, _ = _run(capsys, "validate", "--in", str(broken))
    assert code == cli.EXIT_INVALID
    assert "empty instruction" in out
    assert f"{len(lines) - 1}/{len(lines)} instances valid" in out


def test_validate_names_a_broken_naive_composite_by_its_export_id(tmp_path, instances_path, capsys):
    naive = tmp_path / "naive.jsonl"
    assert _run(capsys, "compose", "--in", str(instances_path), "--naive", "--out", str(naive))[0] == cli.EXIT_OK
    lines = naive.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["instruction"] = ""
    broken = tmp_path / "broken.jsonl"
    broken.write_text(json.dumps(record) + "\n" + "\n".join(lines[1:]) + "\n", encoding="utf-8")
    code, out, _ = _run(capsys, "validate", "--in", str(broken))
    assert code == cli.EXIT_INVALID
    first = read_instances(broken)[0]
    expected = example_id(first.provenance, first.style)
    assert expected.endswith("#naive")
    assert out.splitlines()[0] == f"{expected}: empty instruction"


@pytest.mark.parametrize("bad_row", ["[1]", '{"grounding_items": 5}'])
def test_malformed_instance_row_exits_two(tmp_path, instances_path, capsys, bad_row):
    lines = instances_path.read_text(encoding="utf-8").splitlines()
    if bad_row.startswith("{"):
        bad_row = json.dumps({**json.loads(lines[0]), **json.loads(bad_row)})
    broken = tmp_path / "broken.jsonl"
    broken.write_text(lines[0] + "\n" + bad_row + "\n", encoding="utf-8")
    for command in ("stats", "validate", "compose", "render", "export"):
        argv = [command, "--in", str(broken)]
        if command in ("compose", "render", "export"):
            argv += ["--out", str(tmp_path / f"{command}.out")]
        code, _, err = _run(capsys, *argv)
        assert code == cli.EXIT_IO, command
        assert err.startswith("error: line 2: "), command


def test_instance_turn_item_outside_s_e_a_exits_two(tmp_path, instances_path, capsys):
    lines = instances_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["dialog_turns"][0]["items"][0]["component"] = "R"
    broken = tmp_path / "broken.jsonl"
    broken.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, _, err = _run(capsys, "stats", "--in", str(broken))
    assert code == cli.EXIT_IO
    assert err.startswith("error: line 1: missing or invalid field dialog_turns")
    # An instance row's grounding and cot items are held to the same rule.
    derived = next(i for i in read_instances(instances_path) if i.task_name == "act_generation")
    for field in ("grounding_items", "cot_items"):
        record = derived.to_dict()
        record[field] = [dict(record["grounding_items"][0], component="R")]
        broken.write_text(json.dumps(record) + "\n", encoding="utf-8")
        for command in ("stats", "validate", "render", "export"):
            out_dir = tmp_path / f"{field}-{command}"
            argv = [command, "--in", str(broken)] + (["--out", str(out_dir)] if command in ("render", "export") else [])
            code, out, err = _run(capsys, *argv)
            assert code == cli.EXIT_IO, (field, command)
            assert err.startswith(f"error: line 1: missing or invalid field {field}"), (field, command)
            assert out == "" and not out_dir.exists(), (field, command)


def _act_generation_row(instances_path):
    record = next(i for i in read_instances(instances_path) if i.task_name == "act_generation").to_dict()
    assert record["signature"] == "ICA-R"
    return record


def _assert_every_instance_reader_refuses(tmp_path, capsys, record, message):
    """stats, validate, compose, render and export each exit 2 on the one-row file, naming its line, and write nothing."""
    broken = tmp_path / "broken.jsonl"
    broken.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for command in ("stats", "validate", "compose", "render", "export"):
        out_path = tmp_path / command
        argv = [command, "--in", str(broken)] + (["--out", str(out_path)] if command in ("compose", "render", "export") else [])
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_IO, command
        assert err == f"error: line 1: {message}\n", command
        assert out == "" and not out_path.exists(), command


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("target_item", "A", "signature ICA-R is not the shape of the row's items, ICA-A"),
        ("target_item", "C", "missing or invalid field target_item"),
        ("style", "Naive", "missing or invalid field style"),
    ],
)
def test_instance_target_or_style_the_format_does_not_allow_exits_two(
    tmp_path, instances_path, capsys, field, value, message
):
    """A row validate would refuse is not composed, rendered or exported either."""
    record = _act_generation_row(instances_path)
    if field == "target_item":
        record[field]["component"] = value
    else:
        record[field] = value
    _assert_every_instance_reader_refuses(tmp_path, capsys, record, message)


@pytest.mark.parametrize("field", ["task_name", "dataset", "dialog_id", "source_tasks"])
def test_instance_name_holding_a_lone_surrogate_exits_two(tmp_path, instances_path, capsys, field):
    # JSON's "\ud800" decodes to a lone surrogate, which the render and
    # sample seeds, hashing these strings as UTF-8, cannot encode.
    record = _act_generation_row(instances_path)
    if field == "task_name":
        record[field] += "\ud800"
        message = "missing or invalid field task_name"
    else:
        provenance = record["provenance"]
        provenance[field] = ["act_generation\ud800"] if field == "source_tasks" else provenance[field] + "\ud800"
        message = "missing or invalid field provenance"
    _assert_every_instance_reader_refuses(tmp_path, capsys, record, message)


@pytest.mark.parametrize("command", ["export", "compose"])
def test_unknown_option_is_reported_under_its_subcommand(tmp_path, capsys, command):
    out = tmp_path / "e"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--in", "i.jsonl", "--plan", "p.json", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: dialogtasks {command} ")
    assert f"dialogtasks {command}: error: unrecognized arguments: --plan p.json" in err
    assert not out.exists()


def test_export_quota_flags_set_the_plan(tmp_path, instances_path, capsys):
    code, out, _ = _run(
        capsys, "export", "--in", str(instances_path), "--atomic-quota", "3", "--composite-quota", "2",
        "--out", str(tmp_path / "export"),
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["plan"] == {"atomic_quota": 3, "composite_quota": 2}


@pytest.mark.parametrize("command", ["validate", "eval"])
def test_row_nested_too_deeply_exits_two_naming_its_line(tmp_path, capsys, command):
    rows = tmp_path / "rows.jsonl"
    rows.write_text("\n" + "[" * 100_000 + "\n", encoding="utf-8")
    argv = ["--in", str(rows)] if command == "validate" else ["--constraints", str(rows), "--outputs", str(rows)]
    code, out, err = _run(capsys, command, *argv)
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.startswith("error: line 2: ") and "recursion" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("split", ["../escaped", "validation", "", "Train"])
def test_instance_split_outside_train_dev_test_exits_two(tmp_path, instances_path, capsys, split):
    # Export names a file after each split, so "../escaped" would write
    # beside the output directory.
    lines = instances_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["provenance"]["split"] = split
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out" / "sub"
    for command in ("export", "validate", "stats"):
        argv = [command, "--in", str(broken)] + (["--out", str(out_dir)] if command == "export" else [])
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_IO, command
        assert err.startswith("error: line 2: missing or invalid field provenance"), command
    assert not (tmp_path / "out").exists()


def test_repeated_dialog_id_stops_tasks(tmp_path, corpus_path, capsys):
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
    out = tmp_path / "atomic.jsonl"
    code, _, err = _run(capsys, "tasks", "--derive", "--corpus", str(doubled), "--out", str(out))
    assert code == cli.EXIT_IO
    assert err.startswith(f"error: line {len(lines) + 1}: dialog_id ")
    assert "already on line 1" in err
    assert not out.exists()


@pytest.mark.parametrize("adapter", ["canonical", "act_emotion", "persona_list"])
@pytest.mark.parametrize("field", ["dataset", "dialog_id"])
def test_corpus_name_holding_a_lone_surrogate_exits_two(tmp_path, corpus_path, capsys, adapter, field):
    # Dialog ids and datasets key the seeds of derive, render and sample.
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[field] += "\ud800"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n", encoding="utf-8")
    commands = [("ingest", "--input", str(broken), "--adapter", adapter)]
    if adapter == "canonical":
        commands.append(("tasks", "--derive", "--corpus", str(broken)))
    for argv in commands:
        out_path = tmp_path / f"{argv[0]}.jsonl"
        code, out, err = _run(capsys, *argv, "--out", str(out_path))
        assert code == cli.EXIT_IO, argv
        assert err == f"error: line 2: missing or invalid field {field}\n", argv
        assert out == "" and not out_path.exists(), argv


_REQUIRED_ARGS = {
    "ingest": ["--synth", "1", "--out", "o"],
    "tasks": ["--list"],
    "compose": ["--in", "i", "--out", "o"],
    "render": ["--in", "i", "--out", "o"],
    "export": ["--in", "i", "--out", "o"],
    "eval": ["--constraints", "c", "--outputs", "o"],
    "stats": ["--in", "i"],
    "validate": ["--in", "i"],
    "run": ["--print-config"],
}


@pytest.mark.parametrize("command", sorted(_REQUIRED_ARGS))
def test_seed_only_where_the_output_depends_on_it(capsys, command):
    argv = [command, *_REQUIRED_ARGS[command], "--seed", "1"]
    if command in ("compose", "eval", "stats", "validate"):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    else:
        assert cli.build_parser().parse_args(argv).seed == 1


def test_export_then_eval_round_trip(tmp_path, instances_path, capsys):
    out_dir = tmp_path / "export"
    code, _, _ = _run(
        capsys, "export", "--in", str(instances_path), "--out", str(out_dir),
        "--atomic-quota", "30", "--emit-constraints",
    )
    assert code == cli.EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert "train.jsonl" in manifest["files"]

    # Perfect outputs: echo each example's gold output back, keyed by id.
    outputs_path = tmp_path / "outputs.jsonl"
    rows = []
    for line in (out_dir / "train.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        rows.append(json.dumps({"id": record["id"], "output": record["output"]}))
    outputs_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    report_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "eval", "--constraints", str(out_dir / "constraints-train.jsonl"),
        "--outputs", str(outputs_path), "--report", str(report_path),
    )
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["n_missing_outputs"] == 0
    assert report["compositional_accuracy"] == 1.0
    for value in report["per_constraint_accuracy"].values():
        assert value == 1.0
    assert json.loads(report_path.read_text(encoding="utf-8")) == report


def test_eval_missing_outputs_counted(tmp_path, instances_path, capsys):
    out_dir = tmp_path / "export"
    _run(
        capsys, "export", "--in", str(instances_path), "--out", str(out_dir),
        "--atomic-quota", "10", "--emit-constraints",
    )
    outputs_path = tmp_path / "empty-outputs.jsonl"
    outputs_path.write_text("", encoding="utf-8")
    code, out, _ = _run(
        capsys, "eval", "--constraints", str(out_dir / "constraints-train.jsonl"),
        "--outputs", str(outputs_path),
    )
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["n_missing_outputs"] == report["n_examples"] > 0


def test_run_print_config_emits_template(tmp_path, capsys):
    code, out, _ = _run(capsys, "run", "--print-config")
    assert code == cli.EXIT_OK
    assert "[run]" in out and "[sample]" in out
    # The template itself parses as a valid config.
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(out)
    assert parser.getint("run", "seed") == 0
    # Its values are the defaults it says they are.
    template = tmp_path / "pipeline.ini"
    template.write_text(out, encoding="utf-8")
    assert PipelineConfig.from_ini(template) == PipelineConfig()


def test_run_requires_config(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dialogtasks run ")
    assert "dialogtasks run: error: run requires --config (or --print-config)" in err


def test_staged_commands_write_the_export_of_run_at_cot_none(tmp_path, capsys):
    """tasks --derive, compose and export on the concatenated instances write run's corpus bytes."""
    corpus, atomic, composite = tmp_path / "dialogs.jsonl", tmp_path / "atomic.jsonl", tmp_path / "composite.jsonl"
    assert _run(capsys, "ingest", "--synth", "30", "--seed", "7", "--out", str(corpus))[0] == cli.EXIT_OK
    _run(capsys, "tasks", "--derive", "--corpus", str(corpus), "--seed", "7", "--out", str(atomic))
    assert _run(capsys, "compose", "--in", str(atomic), "--out", str(composite))[0] == cli.EXIT_OK
    both = tmp_path / "both.jsonl"
    both.write_bytes(atomic.read_bytes() + composite.read_bytes())
    staged, whole = tmp_path / "staged", tmp_path / "run"
    code, _, _ = _run(capsys, "export", "--in", str(both), "--seed", "7", "--emit-constraints", "--out", str(staged))
    assert code == cli.EXIT_OK
    config = tmp_path / "pipeline.ini"
    config.write_text(
        f"[run]\nseed = 7\n\n[corpus]\ninput = {corpus}\n\n[render]\ncot = none\n\n[output]\ndir = {whole}\n",
        encoding="utf-8",
    )
    assert _run(capsys, "run", "--config", str(config))[0] == cli.EXIT_OK
    for split in ("train", "dev", "test"):
        for name in (f"{split}.jsonl", f"constraints-{split}.jsonl"):
            assert (staged / name).stat().st_size > 0, name
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name
    assert (staged / "stats.json").read_bytes() == (whole / "stats.json").read_bytes()


def test_run_full_pipeline_from_config(tmp_path, capsys):
    out_dir = tmp_path / "run-out"
    config = tmp_path / "pipeline.ini"
    config.write_text(
        "[run]\nseed = 4\n\n"
        "[corpus]\nsynth_dialogs = 10\n\n"
        "[sample]\natomic_quota = 25\ncomposite_quota = 10\n\n"
        f"[output]\ndir = {out_dir}\n",
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, "run", "--config", str(config))
    assert code == cli.EXIT_OK
    manifest = json.loads(out)
    assert manifest["config"]["seed"] == 4
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "train.jsonl").exists()
    # Seed override from the command line wins over the config file.
    code, out, _ = _run(capsys, "run", "--config", str(config), "--seed", "9")
    assert code == cli.EXIT_OK
    assert json.loads(out)["config"]["seed"] == 9


def test_run_bad_cot_mode_exits_two_before_any_stage(tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = tmp_path / "pipeline.ini"
    config.write_text(
        f"[corpus]\nsynth_dialogs = 5\n\n[render]\ncot = random--1\n\n[output]\ndir = {out_dir}\n",
        encoding="utf-8",
    )
    code, out, err = _run(capsys, "run", "--config", str(config))
    assert code == cli.EXIT_IO
    assert out == ""
    assert "cot mode 'random--1'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "section, problem",
    [
        ("[tasks]\ninclude = no_such_task\n", "no_such_task"),
        ("[compose]\nmax_dim = 1\n", "max_dim"),
        ("[compose]\nrules = missing-rules.csv\n", "missing-rules.csv"),
        ("[tasks]\ninclude = ,\n", "names no task"),
        ("[tasks]\ninclude = act_prediction, act_prediction, emotion_prediction\n", "'act_prediction' more than once"),
        ("[tasks]\ninclude =\n", "names no task"),
    ],
)
def test_run_config_error_exits_two_before_any_stage_writes(tmp_path, capsys, section, problem):
    out_dir = tmp_path / "out"
    config = tmp_path / "pipeline.ini"
    config.write_text(f"[corpus]\nsynth_dialogs = 5\n\n{section}\n[output]\ndir = {out_dir}\n", encoding="utf-8")
    code, out, err = _run(capsys, "run", "--config", str(config))
    assert code == cli.EXIT_IO
    assert out == ""
    assert problem in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[run]\nseed = 1\nseed = 2\n", "option 'seed' in section 'run' already exists"),
        ("seed = 1\n[run]\n", "no section headers"),
        ("[compose]\nmax-dim = 3\n", "unknown key 'max-dim' in [compose]"),
        ("[sampel]\natomic_quota = 3\n", "unknown section [sampel]"),
        ("[sampel]\n", "unknown section [sampel]"),
        ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
        ("[run]\nseed = x\n", "[run] seed: invalid literal for int()"),
        ("[render]\nblock_shuffle = maybe\n", "[render] block_shuffle: Not a boolean: maybe"),
        # Written through surrogateescape, "\udce9" is the byte 0xe9, which is not UTF-8.
        ("[corpus]\nsynth_dialogs = 5\nsynth_dataset = caf\udce9\n", "line 3: byte 0xe9 is not UTF-8"),
    ],
)
def test_run_config_malformed_or_unknown_exits_two_before_any_stage_writes(tmp_path, capsys, text, problem):
    out_dir = tmp_path / "out"
    config = tmp_path / "pipeline.ini"
    config.write_text(f"{text}\n[output]\ndir = {out_dir}\n", encoding="utf-8", errors="surrogateescape")
    code, out, err = _run(capsys, "run", "--config", str(config))
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.startswith(f"error: config {config}: ") and problem in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "corpus, problem",
    [
        ("synth_dialogs = 0", "synth_dialogs must be >= 1"),
        ("synth_dialogs = -3", "synth_dialogs must be >= 1"),
        ("input = {tmp}/missing.jsonl", "missing.jsonl"),
        ("input = {tmp}/bad.jsonl", "line 2"),
        ("input = {tmp}/good.jsonl\nadapter = nope", "unknown adapter: 'nope'"),
        ("adapter = nope", "unknown adapter: 'nope'"),
    ],
)
def test_run_corpus_error_exits_two_before_any_stage_writes(tmp_path, corpus_path, capsys, corpus, problem):
    (tmp_path / "good.jsonl").write_bytes(corpus_path.read_bytes())
    (tmp_path / "bad.jsonl").write_bytes(corpus_path.read_bytes().split(b"\n")[0] + b"\n{\n")
    out_dir = tmp_path / "out"
    config = tmp_path / "pipeline.ini"
    config.write_text(f"[corpus]\n{corpus.format(tmp=tmp_path)}\n\n[output]\ndir = {out_dir}\n", encoding="utf-8")
    code, out, err = _run(capsys, "run", "--config", str(config))
    assert code == cli.EXIT_IO
    assert out == ""
    assert problem in err
    assert not out_dir.exists()


def test_unknown_task_error_prints_its_message_unquoted(tmp_path, corpus_path, capsys):
    derive = ("tasks", "--derive", "--corpus", str(corpus_path), "--tasks", "nope", "--out", str(tmp_path / "x.jsonl"))
    config = tmp_path / "pipeline.ini"
    config.write_text(f"[tasks]\ninclude = nope\n\n[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    for argv in (derive, ("run", "--config", str(config))):
        assert _run(capsys, *argv) == (cli.EXIT_IO, "", "error: unknown task: 'nope'\n")


def test_manifest_names_and_hashes_every_file_it_lists(tmp_path):
    out_dir = tmp_path / "out"
    manifest = run_pipeline(PipelineConfig(synth_dialogs=8, atomic_quota=20, out_dir=str(out_dir)))
    assert manifest == json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    files = manifest["export"]["files"]
    assert set(files) == {
        f"{prefix}{split}.jsonl" for prefix in ("", "constraints-") for split in ("train", "dev", "test")
    } | {"stats.json"}
    for name, entry in files.items():
        data = (out_dir / name).read_bytes()
        assert entry == {"name": name, "count": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}
    dialogs = (out_dir / "dialogs.jsonl").read_bytes()
    assert dialogs.count(b"\n") == 8
    assert manifest["corpus"] == {
        "dataset": "synth",
        "count": 8,
        "split": "mixed",
        "checksum": hashlib.sha256(dialogs).hexdigest(),
    }


def test_every_config_key_reads_back_at_a_non_default_value(tmp_path):
    config = tmp_path / "pipeline.ini"
    config.write_text(
        "[run]\nseed = 11\n\n"
        "[corpus]\ninput = dialogs.jsonl\nadapter = act_emotion\nsynth_dialogs = 7\nsynth_dataset = other\n\n"
        "[tasks]\ninclude = act_prediction, emotion_tagging\n\n"
        "[compose]\nenabled = false\nrules = rules.csv\nmax_dim = 3\n\n"
        "[render]\ncot = random-2\nblock_shuffle = false\ngeneric_fallback = true\n\n"
        "[sample]\natomic_quota = 9\ncomposite_quota = 4\n\n"
        "[output]\ndir = elsewhere\nemit_constraints = false\n",
        encoding="utf-8",
    )
    expected = PipelineConfig(
        seed=11, input_path="dialogs.jsonl", adapter="act_emotion", synth_dialogs=7, synth_dataset="other",
        tasks=("act_prediction", "emotion_tagging"), compose_enabled=False, rules_path="rules.csv", max_dim=3,
        cot="random-2", block_shuffle=False, generic_fallback=True, atomic_quota=9, composite_quota=4,
        out_dir="elsewhere", emit_constraints=False,
    )
    parsed = PipelineConfig.from_ini(config)
    defaults = PipelineConfig()
    for field in dataclasses.fields(PipelineConfig):
        value = getattr(parsed, field.name)
        assert value == getattr(expected, field.name) != getattr(defaults, field.name), field.name
        assert type(value) is type(getattr(expected, field.name)), field.name


def test_config_values_are_read_literally(tmp_path):
    config = tmp_path / "pipeline.ini"
    config.write_text("[corpus]\nsynth_dataset = 100%(x)s\n\n[output]\ndir = out%x\n", encoding="utf-8")
    parsed = PipelineConfig.from_ini(config)
    assert (parsed.synth_dataset, parsed.out_dir) == ("100%(x)s", "out%x")


@pytest.mark.parametrize("mode", ["random--1", "random-one", "always"])
def test_pipeline_config_rejects_bad_cot_mode(mode, tmp_path):
    with pytest.raises(ValueError, match=f"cot mode '{mode}'"):
        PipelineConfig(cot=mode)
    config = PipelineConfig(synth_dialogs=5, out_dir=str(tmp_path / "out"))
    object.__setattr__(config, "cot", mode)  # a config built past its own check
    with pytest.raises(ValueError, match=f"cot mode '{mode}'"):
        run_pipeline(config)
    assert not (tmp_path / "out").exists()


def test_random_zero_cot_exports_what_no_cot_does(tmp_path):
    for mode in ("none", "random-0"):
        run_pipeline(PipelineConfig(synth_dialogs=5, cot=mode, out_dir=str(tmp_path / mode)))
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "stats.json"):
        assert (tmp_path / "none" / name).read_bytes() == (tmp_path / "random-0" / name).read_bytes()


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def _failing_rename_onto(monkeypatch, name):
    """Make every rename onto a file called ``name`` fail, as a crash would."""
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError(f"simulated crash before {name} was in place")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("document", ["export manifest", "eval report", "run manifest"])
def test_json_documents_appear_whole_or_not_at_all(tmp_path, instances_path, capsys, monkeypatch, document):
    out_dir = tmp_path / "export"
    assert _run(
        capsys, "export", "--in", str(instances_path), "--out", str(out_dir),
        "--atomic-quota", "10", "--emit-constraints",
    )[0] == cli.EXIT_OK
    outputs_path = tmp_path / "outputs.jsonl"
    outputs_path.write_text("", encoding="utf-8")
    target_dir = tmp_path / "run" if document == "run manifest" else out_dir
    target = target_dir / ("report.json" if document == "eval report" else "manifest.json")
    target_dir.mkdir(exist_ok=True)
    target.write_text("earlier content\n", encoding="utf-8")
    _failing_rename_onto(monkeypatch, target.name)
    if document == "export manifest":
        code, _, err = _run(capsys, "export", "--in", str(instances_path), "--out", str(out_dir))
        assert code == cli.EXIT_IO and "simulated crash" in err
    elif document == "eval report":
        code, _, err = _run(
            capsys, "eval", "--constraints", str(out_dir / "constraints-train.jsonl"),
            "--outputs", str(outputs_path), "--report", str(target),
        )
        assert code == cli.EXIT_IO and "simulated crash" in err
    else:
        with pytest.raises(OSError, match="simulated crash"):
            run_pipeline(PipelineConfig(seed=3, synth_dialogs=3, out_dir=str(target_dir)))
    assert target.read_text(encoding="utf-8") == "earlier content\n"
    assert [name for name in os.listdir(target_dir) if name.endswith(".tmp")] == []
