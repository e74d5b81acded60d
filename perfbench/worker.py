"""Runs one workload in a fresh interpreter and prints its raw figures as JSON.

Modes:
  setup    import the program, generate the inputs, print when ready
  measure  timed passes with tracing off, then the checks
  trace    untraced and traced passes in turn, then the checks

Usage: PYTHONPATH=ROOT/src python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE
(run.py starts it so).
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MODULES = {
    "deloop-orbits": "wl_deloop",
    "tables-classes": "wl_tables",
    "frames-compare": "wl_frames",
    "cli-verbs": "wl_cli",
}


def load(root, workload, seed):
    """The workload's inputs; ``morpheq`` comes from ``PYTHONPATH``, set by run.py."""
    src = root / "src"
    module = importlib.import_module(MODULES[workload])
    program = Path(sys.modules["morpheq"].__file__).resolve()
    if src.resolve() not in program.parents:
        raise SystemExit(f"morpheq was imported from {program}, not from {src}")
    return module.Workload(root, seed)


def new_run():
    return {"passes": [], "attempted": 0, "failed": 0, "errors": []}


def run_pass(tasks, out, tracer=None):
    """One whole pass over the task list, appended to ``out``.

    A collection runs before each task, outside the timed region; so does
    each task's check, right after it.  A task that raises counts as
    failed and as a check error, and its time is None.
    """
    times = []
    for task in tasks:
        gc.collect()
        out["attempted"] += 1
        t0 = time.perf_counter()
        try:
            result = tracer.call("task", task.run) if tracer else task.run()
        except Exception as exc:
            out["failed"] += 1
            out["errors"].append(f"{task.label}: raised {exc!r}")
            times.append(None)
            sys.stderr.write(f"{task.label} failed:\n{traceback.format_exc()}")
            continue
        times.append(time.perf_counter() - t0)
        out["errors"] += task.check(result)
        del result
    out["passes"].append(times)


def run_passes(tasks, seconds, min_passes):
    """Whole passes until ``seconds`` have gone by and ``min_passes`` are done."""
    out = new_run()
    start = time.perf_counter()
    while len(out["passes"]) < min_passes or time.perf_counter() - start < seconds:
        run_pass(tasks, out)
    return out


def run_traced(tasks, seconds, tracer):
    """Untraced and traced passes in turn, at least one of each.

    Alternating keeps a drift in machine speed from reading as tracing
    overhead.
    """
    plain, traced = new_run(), new_run()
    start = time.perf_counter()
    while not traced["passes"] or time.perf_counter() - start < seconds:
        run_pass(tasks, plain)
        tracer.pass_index = len(traced["passes"])
        tracer.install()
        try:
            run_pass(tasks, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def pass_times(passes):
    """The time of each pass in which no task failed: the sum of its task times."""
    return [sum(times) for times in passes if None not in times]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-verbs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv):
    root, workload, seed, seconds, mode = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4]
    wl = load(root, workload, seed)
    result = {"ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    in_process = mode == "trace" and workload == "cli-verbs"
    tasks = wl.tasks(in_process=True) if in_process else wl.tasks()
    if mode == "measure":
        run = run_passes(tasks, seconds, wl.MIN_PASSES)
        result.update(task_times=run["passes"], peak_rss_mb=peak_rss_mb(workload))
        runs = [run]
    else:
        import tracing

        tracer = tracing.Tracer()
        plain, traced = run_traced(tasks, seconds, tracer)
        layers = tracer.metrics(len(traced["passes"]))
        plain_s, traced_s = pass_times(plain["passes"]), pass_times(traced["passes"])
        if plain_s and traced_s:
            layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        out_dir = root / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
        tracer.write(trace_file)
        result.update(layers=layers, trace_file=str(trace_file.relative_to(root)),
                      untraced_pass_s=plain_s, traced_pass_s=traced_s)
        runs = [plain, traced]
    errors = [e for r in runs for e in r["errors"]] + wl.finish()
    result.update(
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        errors=errors,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
