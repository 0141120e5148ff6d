"""One benchmark process: import the program from the checkout, then do one job.

    python3 perfbench/child.py JOB.json

The job file names its kind:

- ``probe``: import only, to sample set-up time.
- ``setup``: write a workload's inputs for a seed.
- ``rep``: run one repetition of a workload, traced or not.

Every kind first imports ``dialogtasks`` from ``<root>/src`` and loads the
rule table, then records ``time.monotonic()``; ``run.py`` subtracts the
moment it started this process to get the set-up time. The result is
written as JSON to the job's ``result`` path. On failure the process exits
non-zero and the reason is on stderr.
"""

import json
import sys
import time
from pathlib import Path

EXIT_NO_PROGRAM = 3


def _run_rep(job: dict) -> dict:
    import tracing
    import workloads

    name, traced = job["workload"], job["trace"]
    rec = tracing.Recorder(f"{name}-seed{job['seed']}-rep{job['rep']}", timed=traced)
    tracing.install(rec, None if traced else tracing.SHAPE_HOOKS)
    inputs, out = Path(job["inputs"]), Path(job["out"])

    start = time.perf_counter()
    frame = rec.enter(f"bench.{name}") if traced else None
    read_shape = workloads.run(name, job["seed"], inputs, out)
    if frame is not None:
        rec.leave(frame)
    wall_s = time.perf_counter() - start

    shape = {**workloads.dialog_shape(inputs), **read_shape()}
    if rec.counts["registry.target_positions"]:
        shape["atomic"] = rec.counts["registry.instances"]
        shape["composites"] = rec.counts["composer.composites"]
        shape["rejections"] = dict(sorted(rec.rejections.items()))
    result = {"wall_s": wall_s, "shape": shape, "missing_hooks": rec.missing}
    if traced:
        result["layers"] = tracing.layer_metrics(rec)
        result["shares"] = tracing.layer_shares(rec)
        with open(job["spans"], "w", encoding="utf-8") as handle:
            for span in rec.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    try:
        import dialogtasks
        import dialogtasks.cli
        from dialogtasks.composer import load_rules
    except ImportError as exc:
        print(f"perfbench: cannot import dialogtasks from {src}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    load_rules()
    setup_done = time.monotonic()
    if Path(dialogtasks.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: dialogtasks was imported from {dialogtasks.__file__}, not {src}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    result: dict = {"setup_done": setup_done}
    if job["kind"] == "setup":
        import workloads

        workloads.setup(job["workload"], job["size"], job["seed"], Path(job["inputs"]))
    elif job["kind"] == "rep":
        result.update(_run_rep(job))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
