"""The benchmark's single command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
its ``src/``.  With ``--trace 0`` the last line of standard output is
one JSON object with every end-to-end metric, with ``--trace 1`` every
per-layer metric.  Exits 2 without a result when the checkout holds no
program source.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# fresh worker processes per measured run, each given an equal share of the
# run; cli-verbs already starts a fresh interpreter per task
PROCESSES = {"deloop-orbits": 3, "tables-classes": 5, "frames-compare": 3, "cli-verbs": 1}
WORKLOADS = tuple(PROCESSES)
# How one task's timings in a run are reduced before task_ms_p50 takes the
# median over the task list.  This host runs at two speeds about 1.6x apart,
# in stretches of seconds to minutes, and noise only adds time.  The median
# tasks of frames-compare take about 2 ms and are timed a dozen times a run,
# so one preemption can add a large share to a timing; their fastest timing
# was the steadiest figure in every comparison made (spread over ten seeds
# 0.148 against 0.153 for the mean; 0.082 against 0.177 over eight).  The
# other workloads keep the mean: with five timings per task in tables-classes
# the minimum was steadier in one comparison and less steady in another
# (0.051 against 0.084, 0.162 against 0.109), and with two or three
# (cli-verbs, deloop-orbits) it jumps between the two speeds (deloop-orbits:
# 0.32 against 0.167).
TASK_STAT = {"deloop-orbits": statistics.fmean, "tables-classes": statistics.fmean,
             "frames-compare": min, "cli-verbs": statistics.fmean}
SETUP_PROBES = 9  # fresh interpreters timed for setup_s, besides the measuring workers
IMPORT_PROBES = 3
CHILD_TIMEOUT = 170


def child_env():
    """The environment of every child: the program is imported from the checkout's src/."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def worker(workload, seed, seconds, mode):
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(seconds), mode]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker ({mode}) exited {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, processes):
    """The timed passes split over ``processes`` fresh workers, with set-up probes around them.

    setup_s is the time from starting a fresh interpreter until it is
    ready for its first task (imports plus input generation), taken as
    the median over the probes and the measuring workers.  The probes
    are spread before, between and after the workers, so that they
    sample the machine's speed over the whole run.  The passes
    of all workers are pooled, so that the speed one process happens to
    get does not set the result alone: pass_s is the mean pass time,
    task_ms_p50 the median over the task list of each task's timings
    reduced by ``TASK_STAT``.  The machine's speed can change by half
    within seconds; a mean follows the share of the run spent at each
    speed, where a median over a few passes would jump from one speed to
    the other.
    """
    setups, outs = [], []
    for i in range(processes + 1):
        probes = SETUP_PROBES * (i + 1) // (processes + 1) - SETUP_PROBES * i // (processes + 1)
        for _ in range(probes):
            t0, out = worker(workload, seed, 0, "setup")
            setups.append(out["ready"] - t0)
        if i < processes:
            t0, out = worker(workload, seed, seconds / processes, "measure")
            setups.append(out["ready"] - t0)
            outs.append(out)
    passes = [p for o in outs for p in o["task_times"] if None not in p]
    if not passes:
        raise SystemExit(f"{workload}: a task failed in every pass")
    times = [sum(p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.fmean(times),
        "task_ms_p50": statistics.median(TASK_STAT[workload](ts) for ts in zip(*passes)) * 1e3,
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
    }
    merged = {
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "errors": [e for o in outs for e in o["errors"]],
        "pass_s": times,
        "setup_s": setups,
    }
    return metrics, merged


def import_times():
    """Import cost of the CLI module: whole, and numpy and jsonschema within it."""
    whole, numpy_ms, jsonschema_ms = [], [], []
    probe = "import time; t = time.perf_counter(); import morpheq.cli; print(time.perf_counter() - t)"
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        whole.append(float(out.stdout) * 1e3)
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import morpheq.cli"],
                             cwd=ROOT, env=child_env(), capture_output=True, text=True,
                             timeout=60, check=True)
        cumulative = {}
        for line in out.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e3
        numpy_ms.append(cumulative["numpy"])
        jsonschema_ms.append(cumulative["jsonschema"])
    return {
        "cli.import_ms": statistics.median(whole),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
        "cli.import_jsonschema_ms": statistics.median(jsonschema_ms),
    }


def units():
    """Each metric's unit, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morpheq" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program source at {SRC / 'morpheq'}\n")
        return 2

    if args.trace:
        _, out = worker(args.workload, args.seed, args.seconds, "trace")
        metrics = {**out["layers"], **import_times()}
    else:
        metrics, out = measure(args.workload, args.seed, args.seconds, PROCESSES[args.workload])
    for error in out["errors"][:20]:
        sys.stderr.write(f"check failed: {error}\n")
    sys.stderr.write(json.dumps({k: v for k, v in out.items() if k not in ("errors", "layers")}) + "\n")
    unit = units()
    result = {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
