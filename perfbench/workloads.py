"""The benchmark's workloads: seeded input generation and the timed region.

Imported only inside a child process, after ``dialogtasks`` has been
imported from the checkout's ``src/``. The timed region of every workload
goes through a documented entry point of the program: ``run_pipeline`` for
the one-shot path, ``cli.main`` for the staged README quickstart and for
scoring. Everything else here builds fixtures or reads results back.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List

from dialogtasks import cli, pipeline
from dialogtasks.ingest import SynthConfig, synth_corpus, write_corpus
from spec import CONSTRAINT_FILES, EXPORT_FILES, RENDERED_FILES, SIZES, TURNS


def make_dialogs(seed: int, n_dialogs: int, min_turns: int, max_turns: int) -> List[Any]:
    """``n_dialogs`` synthetic dialogs whose turn counts are a fixed multiset.

    Turn counts cycle through ``min_turns..max_turns``; for each count the
    lowest-indexed dialogs of that length from ``synth_corpus(seed, ...)``
    are kept, in index order. Fixing the multiset keeps the amount of work
    nearly the same from seed to seed, so the seed changes what the dialogs
    say but hardly how long a run takes.
    """
    span = max_turns - min_turns + 1
    wanted = Counter(min_turns + i % span for i in range(n_dialogs))
    config = SynthConfig(min_turns=min_turns, max_turns=max_turns)
    pool_size = 2 * n_dialogs * span
    while True:
        left = Counter(wanted)
        chosen = []
        for dialog in synth_corpus(seed, pool_size, config):
            if left[len(dialog.turns)] > 0:
                left[len(dialog.turns)] -= 1
                chosen.append(dialog)
        if len(chosen) == n_dialogs:
            return chosen
        pool_size *= 2


def _lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for line in handle if line.strip())


def _size(paths: List[Path]) -> int:
    return sum(path.stat().st_size for path in paths)


def _cli(argv: List[str]) -> None:
    """Run one CLI command in-process, its stdout going to a buffer."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dialogtasks {argv[0]} exited with code {code}")


def _target_positions(dialogs_path: Path) -> int:
    with dialogs_path.open(encoding="utf-8") as handle:
        return sum(len(json.loads(line)["turns"]) - 1 for line in handle if line.strip())


# ---------------------------------------------------------------------------
# Set-up: inputs generated from the seed, written into the inputs directory
# ---------------------------------------------------------------------------

def _setup_dialogs(name: str, size: str, seed: int, inputs: Path) -> None:
    low, high = TURNS[name]
    write_corpus(make_dialogs(seed, SIZES[name][size], low, high), inputs / "dialogs.jsonl")


def _setup_score(name: str, size: str, seed: int, inputs: Path) -> None:
    """A constraint file from a full export, plus seeded mock model outputs.

    Outputs mix kinds a real checkpoint produces, so checks fail and lengths
    differ: about 30% gold, 30% gold with about a fifth of its tokens
    dropped, 20% another example's gold, 20% gold with another example's
    gold appended; about 2% of ids get no output at all.
    """
    _setup_dialogs(name, size, seed, inputs)
    export = inputs / "export"
    pipeline.run_pipeline(
        pipeline.PipelineConfig(seed=seed, input_path=str(inputs / "dialogs.jsonl"), out_dir=str(export))
    )
    (inputs / "constraints.jsonl").write_bytes((export / "constraints-train.jsonl").read_bytes())
    with (export / "train.jsonl").open(encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    rng = random.Random(f"perfbench-outputs-{seed}")
    lines = []
    for row in rows:
        gold = row["output"]
        draw = rng.random()
        if draw < 0.30:
            output = gold
        elif draw < 0.60:
            output = " ".join(token for token in gold.split(" ") if rng.random() >= 0.2)
        elif draw < 0.80:
            output = rows[rng.randrange(len(rows))]["output"]
        else:
            output = gold + " " + rows[rng.randrange(len(rows))]["output"]
        if rng.random() < 0.02:
            continue
        lines.append(json.dumps({"id": row["id"], "output": output}, sort_keys=True))
    (inputs / "outputs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Timed regions. Each returns a callable that reads the shape back afterwards.
# ---------------------------------------------------------------------------

def _run_build_corpus(seed: int, inputs: Path, out: Path) -> Callable[[], Dict[str, Any]]:
    # Called through the module so that a traced run sees the rebound name.
    pipeline.run_pipeline(
        pipeline.PipelineConfig(
            seed=seed,
            input_path=str(inputs / "dialogs.jsonl"),
            cot="random-1",
            out_dir=str(out / "export"),
        )
    )

    def shape() -> Dict[str, Any]:
        export = out / "export"
        return {
            "items": sum(_lines(export / name) for name in RENDERED_FILES),
            "constraint_rows": sum(_lines(export / name) for name in CONSTRAINT_FILES),
            "instance_bytes": 0,
            "output_bytes": _size([export / name for name in EXPORT_FILES]),
        }

    return shape


def _run_staged_roundtrip(seed: int, inputs: Path, out: Path) -> Callable[[], Dict[str, Any]]:
    atomic, composite, export = out / "atomic.jsonl", out / "composite.jsonl", out / "export"
    _cli(["tasks", "--derive", "--corpus", str(inputs / "dialogs.jsonl"),
          "--seed", str(seed), "--out", str(atomic)])
    _cli(["compose", "--in", str(atomic), "--out", str(composite)])
    _cli(["export", "--in", str(composite), "--seed", str(seed),
          "--emit-constraints", "--out", str(export)])

    def shape() -> Dict[str, Any]:
        return {
            "items": sum(_lines(export / name) for name in RENDERED_FILES),
            "constraint_rows": sum(_lines(export / name) for name in CONSTRAINT_FILES),
            "instance_bytes": _size([atomic, composite]),
            "output_bytes": _size([export / name for name in EXPORT_FILES]),
        }

    return shape


def _run_score_outputs(seed: int, inputs: Path, out: Path) -> Callable[[], Dict[str, Any]]:
    report = out / "report.json"
    _cli(["eval", "--constraints", str(inputs / "constraints.jsonl"),
          "--outputs", str(inputs / "outputs.jsonl"), "--report", str(report)])

    def shape() -> Dict[str, Any]:
        data = json.loads(report.read_text(encoding="utf-8"))
        return {
            "items": data["n_examples"],
            "constraint_rows": _lines(inputs / "constraints.jsonl"),
            "output_rows": _lines(inputs / "outputs.jsonl"),
            "missing_outputs": data["n_missing_outputs"],
        }

    return shape


WORKLOADS = {
    "build_corpus": (_setup_dialogs, _run_build_corpus),
    "staged_roundtrip": (_setup_dialogs, _run_staged_roundtrip),
    "score_outputs": (_setup_score, _run_score_outputs),
}


def setup(name: str, size: str, seed: int, inputs: Path) -> None:
    """Write the workload's inputs for ``seed`` into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name][0](name, size, seed, inputs)


def dialog_shape(inputs: Path) -> Dict[str, int]:
    dialogs = inputs / "dialogs.jsonl"
    return {"dialogs": _lines(dialogs), "target_positions": _target_positions(dialogs)}


def run(name: str, seed: int, inputs: Path, out: Path) -> Callable[[], Dict[str, Any]]:
    """The timed region; returns a callable that reads the run's shape back."""
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name][1](seed, inputs, out)
