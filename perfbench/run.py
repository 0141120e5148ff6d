"""Benchmark for building, round-tripping and scoring dialogtasks corpora.

    python3 perfbench/run.py --workload build_corpus --seed 7 --seconds 25 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its ``src/``. Each workload is a closed loop with
one client: repetitions run one at a time, each in a fresh child process,
until ``--seconds`` have passed (at least three repetitions). Inputs are
generated from ``--seed`` during set-up, before any timing.

Every repetition's outputs are checked. For a seed with pinned digests in
``digests.json`` they must match the pins; for any other seed every
repetition must agree with the others. Shape counts (dialogs, positions,
instances, rejections per reason, rows, bytes) must repeat exactly too. A
repetition fails on a child error, a digest mismatch or a shape change.
Only a failed set-up (for example, ``dialogtasks`` cannot be imported) ends
the run with exit code 2 and no result; once repetitions have been
attempted the result line is printed, with ``correct`` false if any failed
and zero timings if none ran to the end.

Standard output ends with two JSON lines: a report (environment, shape,
digests, every end-to-end metric including ``error_rate``, and for
``--trace 1`` the self-time share of each layer), then the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
untraced and traced repetitions alternate and the metrics are the
per-layer ones, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from spec import DEFAULT_SEED, EXPORT_FILES, REPORT_KEYS, SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "digests.json"

MIN_REPS = 3  # untraced repetitions per run
MIN_TRACED_REPS = 2  # of each kind, with --trace 1
SETUP_PROBES = 5  # import-only children per run, for setup_s
RUN_LIMIT_S = 170.0  # a child still running this long into a run is killed
LAST_START_S = 120.0  # no repetition starts later than this into a run


class BenchError(Exception):
    """Set-up failed, so no repetition was attempted."""


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_digests(inputs: Path) -> Dict[str, str]:
    return {path.name: sha256_file(path) for path in sorted(inputs.glob("*.jsonl"))}


def output_digests(workload: str, out: Path) -> Dict[str, str]:
    if workload == "score_outputs":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        fields = json.dumps({key: report[key] for key in REPORT_KEYS}, sort_keys=True)
        return {"report": hashlib.sha256(fields.encode("utf-8")).hexdigest()}
    return {name: sha256_file(out / "export" / name) for name in EXPORT_FILES}


def tamper(workload: str, out: Path) -> None:
    """Alter one checked output, as a broken program would (tests only)."""
    if workload == "score_outputs":
        path = out / "report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["compositional_accuracy"] += 0.5
        path.write_text(json.dumps(report), encoding="utf-8")
    else:
        with (out / "export" / "train.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("{}\n")


class Child:
    """Runs child.py jobs inside one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.jobs = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, job: Dict[str, Any]) -> Tuple[Optional[Dict[str, Any]], float, str]:
        """Run one job; returns (result or None, set-up seconds, error message)."""
        self.jobs += 1
        job_path = self.work / f"job{self.jobs}.json"
        result_path = self.work / f"result{self.jobs}.json"
        job = {**job, "root": str(ROOT), "result": str(result_path)}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        started = time.monotonic()
        proc = subprocess.Popen(
            # -I -S: no site-packages and no environment, so set-up time is
            # the interpreter plus the program's own imports (stdlib only).
            [sys.executable, "-I", "-S", str(HERE / "child.py"), str(job_path)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    pid, status, rusage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result_path.exists():
            return None, 0.0, f"child exited with code {proc.returncode}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
        return result, result["setup_done"] - started, ""


def load_pins(size: str, seed: int, workload: str) -> Optional[Dict[str, Any]]:
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    return pins.get(size, {}).get(str(seed), {}).get(workload)


def majority(values: List[str]) -> str:
    """The most common value; the earliest one on a tie; an empty JSON object if none."""
    return Counter(values).most_common(1)[0][0] if values else "{}"


def run_benchmark(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    start = time.monotonic()
    child = Child(work)
    inputs = work / "inputs"
    setup_job = {"kind": "setup", "workload": args.workload, "size": args.size,
                 "seed": args.seed, "inputs": str(inputs)}
    result, _, error = child.run(setup_job)
    if result is None:
        raise BenchError(f"set-up failed: {error}")
    inputs_digests = input_digests(inputs)

    setup_samples = []
    for _ in range(SETUP_PROBES):
        result, setup_s, error = child.run({"kind": "probe"})
        if result is None:
            raise BenchError(f"set-up probe failed: {error}")
        setup_samples.append(setup_s)

    reps: List[Dict[str, Any]] = []
    errors: List[str] = []
    loop_start = time.monotonic()
    while True:
        untraced = sum(1 for rep in reps if not rep["trace"])
        traced = len(reps) - untraced
        if args.trace:
            enough = untraced >= MIN_TRACED_REPS and traced >= MIN_TRACED_REPS
        else:
            enough = untraced >= MIN_REPS
        now = time.monotonic()
        if (enough and now - loop_start >= args.seconds) or now - start > LAST_START_S:
            break
        index = len(reps)
        trace = bool(args.trace) and index % 2 == 1
        out = work / f"rep{index}"
        job = {"kind": "rep", "workload": args.workload, "seed": args.seed, "rep": index,
               "trace": trace, "inputs": str(inputs), "out": str(out),
               "spans": str(work / f"spans{index}.jsonl")}
        result, setup_s, error = child.run(job)
        rep = {"index": index, "trace": trace, "ok": result is not None, "result": result}
        if result is not None:
            setup_samples.append(setup_s)
            if index == args.tamper_rep:
                tamper(args.workload, out)
            try:
                rep["digest"] = json.dumps(output_digests(args.workload, out), sort_keys=True)
            except (OSError, KeyError, ValueError) as exc:
                rep["ok"] = False
                error = f"outputs unreadable: {exc!r}"
            rep["shape"] = json.dumps(result["shape"], sort_keys=True)
        if error:
            errors.append(f"rep {index}: {error}")
        reps.append(rep)
        shutil.rmtree(out, ignore_errors=True)

    pins = load_pins(args.size, args.seed, args.workload)
    done = [rep for rep in reps if rep["ok"]]
    expected_digest = (json.dumps(pins["outputs"], sort_keys=True) if pins
                       else majority([rep["digest"] for rep in done]))
    expected_shape = majority([rep["shape"] for rep in done])
    for rep in done:
        if rep["digest"] != expected_digest:
            rep["ok"] = False
            errors.append(f"rep {rep['index']}: output digests differ from "
                          + ("the pins" if pins else "the other repetitions"))
        elif rep["shape"] != expected_shape:
            rep["ok"] = False
            errors.append(f"rep {rep['index']}: shape counts differ from the other repetitions")
    inputs_ok = pins is None or pins["inputs"] == inputs_digests

    return {
        "reps": reps,
        "errors": errors,
        "setup_samples": setup_samples,
        "inputs": inputs_digests,
        "outputs": json.loads(expected_digest),
        "pinned": pins is not None,
        "inputs_ok": inputs_ok,
        "shape": json.loads(expected_shape),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(
    args: argparse.Namespace, bench: Dict[str, Any], run: Dict[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The report line and the result line of a finished run."""
    reps = run["reps"]
    attempted = len(reps)
    failed = sum(1 for rep in reps if not rep["ok"])
    # Timings come from every repetition that ran to the end (0 if none
    # did); a wrong output already makes the run incorrect.
    ran = [rep for rep in reps if rep["result"] is not None]
    plain = [rep["result"] for rep in ran if not rep["trace"]]
    traced = [rep["result"] for rep in ran if rep["trace"]]
    walls = [r["wall_s"] for r in plain]
    values: Dict[str, Any] = {
        "wall_s": _median(walls),
        "items_per_s": _median([r["shape"]["items"] / r["wall_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "setup_s": _median(run["setup_samples"]),
        "error_rate": failed / attempted,
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["error_rate"] = "ratio"
    end_to_end = {name: {"value": values[name], "unit": units[name]} for name in values}
    end_to_end["wall_s"].update(n=len(walls), samples=walls)
    end_to_end["peak_rss_mb"]["samples"] = [r["peak_rss_mb"] for r in plain]
    end_to_end["setup_s"]["n"] = len(run["setup_samples"])

    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "attempted": attempted,
        "failed": failed,
        "errors": run["errors"],
        "end_to_end": end_to_end,
        "shape": run["shape"],
        "inputs": run["inputs"],
        "outputs": run["outputs"],
        "pinned": run["pinned"],
        "missing_hooks": ran[0]["result"]["missing_hooks"] if ran else [],
    }
    if args.trace:
        layer_names = [m["name"] for m in bench["per_layer"]]
        layers = {name: _median([r["layers"].get(name, 0.0) for r in traced]) for name in layer_names
                  if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - values["wall_s"]
        report["traced_wall_s"] = [r["wall_s"] for r in traced]
        layers_seen = sorted({layer for r in traced for layer in r["shares"]})
        report["layer_shares"] = {
            layer: round(_median([r["shares"].get(layer, 0.0) for r in traced]), 4)
            for layer in layers_seen
        }
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in layer_names}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    result = {
        "correct": failed == 0 and run["inputs_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    parser.add_argument("--tamper-rep", type=int, default=-1, metavar="K",
                        help="alter the outputs of repetition K before checking (tests only)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    # A terminated run still kills its child and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    args = parse_args(argv, [name for name in names if name in SIZES])
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = run_benchmark(args, work)
        if args.trace:
            traces = ROOT / ".perfbench_work" / "traces"
            traces.mkdir(exist_ok=True)
            with (traces / f"{args.workload}-seed{args.seed}.jsonl").open("w", encoding="utf-8") as handle:
                for path in sorted(work.glob("spans*.jsonl")):
                    handle.write(path.read_text(encoding="utf-8"))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report, result = summarize(args, bench, run)
    for error in run["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
