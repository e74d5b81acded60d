"""Steadiness of the benchmark: run one workload on several seeds and summarize.

    python3 perfbench/steady.py --workload NAME [--runs 10]

Each run is a separate ``run.py --trace 0`` call on seeds 1..runs, with
the run length from BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (q3 - q1) / median, and the bound from BENCHMARK.json; a
spread under a third of its bound is marked "steady".  The raw results go to
``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, "exit": proc.returncode, **last})
        share = last["failed"] / last["attempted"]
        print(f"seed {seed}: exit {proc.returncode} correct {last['correct']} attempted {last['attempted']} "
              f"failed share {share} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(last["metrics"].items())), flush=True)

    print(f"\n{args.workload}: {len(results)} runs")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else "NOT STEADY"
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6} {verdict}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(results, indent=1))
    return 0 if all(r["correct"] and r["exit"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
