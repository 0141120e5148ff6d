"""Tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench

Each test reads the last two lines of a ``perfbench/run.py`` run, started as
a user would: the report and the result. The runs are shared between the
tests and made two at a time, once per session, to keep the suite short.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Run name -> (checkout, arguments). "broken" and "bare" are checkouts made
# by the fixture below.
RUNS = {
    **{f"traced-{w}": ("repo", ["--workload", w, "--trace", "1"]) for w in WORKLOADS},
    "tampered-pinned": ("repo", ["--workload", "score_outputs", "--seed", "7", "--tamper-rep", "1"]),
    "tampered-unpinned": ("repo", ["--workload", "build_corpus", "--seed", "11", "--tamper-rep", "1"]),
    "program-raises": ("broken", ["--workload", "build_corpus"]),
    "no-program": ("bare", ["--workload", "build_corpus"]),
}


def bench(root, args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--size", "tiny", "--seconds", "0", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def copy_benchmark(root):
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("checkouts")
    # Only the benchmark: dialogtasks cannot be imported.
    copy_benchmark(base / "bare")
    # The program, with run_pipeline raising on every call.
    copy_benchmark(base / "broken")
    shutil.copytree(ROOT / "src", base / "broken" / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with (base / "broken" / "src" / "dialogtasks" / "pipeline.py").open("a", encoding="utf-8") as handle:
        handle.write("\n\ndef run_pipeline(*args, **kwargs):\n    raise RuntimeError('broken')\n")
    roots = {"repo": ROOT, "broken": base / "broken", "bare": base / "bare"}
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = pool.map(lambda run: bench(roots[run[0]], run[1]), RUNS.values())
        return dict(zip(RUNS, procs))


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def assert_metrics(metrics, declared):
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), name


def test_end_to_end_metrics_are_printed_with_units(runs):
    report, result = result_of(runs["tampered-unpinned"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 3
    assert_metrics(result["metrics"], BENCH["end_to_end"])
    assert set(report["end_to_end"]) == {m["name"] for m in BENCH["end_to_end"]} | {"error_rate"}
    assert report["end_to_end"]["error_rate"]["unit"] == "ratio"
    assert report["end_to_end"]["wall_s"]["n"] == result["attempted"]
    assert {"python", "nproc", "platform"} <= set(report["env"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(runs, workload):
    report, result = result_of(runs[f"traced-{workload}"])
    assert result["correct"] and result["failed"] == 0
    assert report["end_to_end"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert_metrics(result["metrics"], BENCH["per_layer"])
    assert report["missing_hooks"] == []
    assert report["pinned"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    shape = report["shape"]
    if workload == "score_outputs":
        assert values["evaluate.examples"] == shape["items"] > 0
        assert values["evaluate.rouge_l_calls"] > 0
        assert values["composer.compose_calls"] == values["registry.instances"] == 0
        assert max(report["layer_shares"], key=report["layer_shares"].get) == "evaluate"
    else:
        assert values["registry.instances"] == shape["atomic"] > 0
        assert values["composer.composites"] == shape["composites"] > 0
        assert values["ingest.dialogs"] == shape["dialogs"]
        assert values["prompts.rendered"] == shape["items"]
        assert values["evaluate.score_corpus_s"] == values["evaluate.examples"] == 0
    if workload == "build_corpus":
        assert values["model.to_dict_calls"] == values["model.from_dict_calls"] == 0
        assert values["pipeline.run_pipeline_s"] > 0
    if workload == "staged_roundtrip":
        assert values["model.from_dict_calls"] == values["export.instance_rows"] > 0
        assert values["export.instance_bytes"] == shape["instance_bytes"]


@pytest.mark.parametrize("run", ["tampered-pinned", "tampered-unpinned"])
def test_altered_output_counts_as_failed(runs, run):
    """Against the pins (seed 7) and against the other repetitions (seed 11)."""
    report, result = result_of(runs[run])
    assert not result["correct"]
    assert result["failed"] == 1
    assert report["end_to_end"]["error_rate"]["value"] == pytest.approx(1 / result["attempted"])
    assert any(error.startswith("rep 1: output digests differ") for error in report["errors"])


def test_program_that_always_raises_gives_an_incorrect_result(runs):
    report, result = result_of(runs["program-raises"])
    assert not result["correct"]
    assert result["attempted"] >= 3
    assert result["failed"] == result["attempted"]
    assert report["end_to_end"]["error_rate"]["value"] == 1.0
    assert_metrics(result["metrics"], BENCH["end_to_end"])
    assert result["metrics"]["wall_s"]["value"] == 0


def test_fails_without_the_program(runs):
    proc = runs["no-program"]
    assert proc.returncode != 0
    assert proc.stdout == ""
