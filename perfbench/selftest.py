"""Self-test of the output checks: right answers pass, wrong answers are caught.

    PYTHONPATH=src python3 perfbench/selftest.py

For each workload it runs a few real tasks, confirms their checks pass,
then hands the same checks deliberately wrong answers (a flipped
verdict, a moved partition block, a perturbed constant, a changed exit
code, ...) and confirms that each one is reported.  Runs in seconds and
exits 1 if any wrong answer slips through, so no check passes vacuously.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from morpheq.catkernel import Violation
from task import Task

import actions
import worker
import wl_cli
import wl_deloop
import wl_frames
import wl_tables

ROOT = Path(__file__).resolve().parent.parent

RESULTS = []


def expect(name, errors, caught):
    ok = bool(errors) == caught
    RESULTS.append(ok)
    what = "caught" if errors else "passed"
    print(f"{'ok ' if ok else 'BAD'} {name}: {what}" + (f" ({errors[0][:90]})" if errors else ""))


def deloop():
    raw = actions.fixed_actions()["swap-on-3"]
    action, verdicts = wl_deloop.decide_all(raw, 1)
    check = lambda v: wl_deloop.check("swap-on-3 L=1", raw, 1, (action, v))  # noqa: E731
    expect("deloop: real answer", check(verdicts), False)
    expect("deloop: flipped verdict", check({**verdicts, ("a", "b"): (False, None)}), True)
    moved = {**verdicts, ("a", "c"): verdicts[("a", "b")], ("c", "a"): verdicts[("b", "a")]}
    expect("deloop: c moved into the block of a", check(moved), True)
    ok, w = verdicts[("a", "b")]
    expect("deloop: non-empty comparison chain",
           check({**verdicts, ("a", "b"): (ok, dataclasses.replace(w, u1="[c]"))}), True)
    expect("deloop: 2-cell with the wrong boundary",
           check({**verdicts, ("a", "b"): (ok, dataclasses.replace(w, phi=w.psi))}), True)
    unit_label = w.phi.rsplit("#", 1)[0] + "#" + raw["unit"]  # the unit does not send a to b
    expect("deloop: 2-cell id that is no transporter",
           check({**verdicts, ("a", "b"): (ok, dataclasses.replace(w, phi=unit_label))}), True)


def tables():
    wl = wl_tables.Workload(ROOT, 7)
    by_label = {t.label: t for t in wl.tasks()}
    lawful = by_label["validate swap-on-3 L=1"]
    expect("tables: lawful slice", lawful.check(lawful.run()), False)
    expect("tables: lawful slice reported broken", lawful.check([Violation("vcomp-assoc", "(x, y, z)")]), True)
    tampered = next(t for t in by_label.values() if t.label.startswith("tampered"))
    expect("tables: tampered table", tampered.check(tampered.run()), False)
    expect("tables: tampered table reported lawful", tampered.check([]), True)
    expect("tables: tampered table, wrong law",
           tampered.check([Violation("interchange-orders", "(x, y)")]), True)
    classes = by_label["classes c2-three-pairs L=1"]
    blocks = classes.run()
    expect("tables: slice classes", classes.check(blocks), False)
    moved = [list(b) for b in blocks]
    moved[1].append(moved[2].pop())
    expect("tables: slice classes with a moved block member", classes.check([b for b in moved if b]), True)
    rand = next(t for t in by_label.values() if t.label.startswith("classes random") and len(t.run()) > 1)
    blocks = rand.run()
    expect("tables: random instance classes", rand.check(blocks), False)
    merged = [sorted(blocks[0] + blocks[1])] + blocks[2:]
    expect("tables: random instance classes with two blocks merged", rand.check(merged), True)


def frames():
    wl = wl_frames.Workload(ROOT, 3)
    cases = [c for c in wl.cases if c.n == 4][:2]  # one equivalent, one kernel mismatch
    for case in cases:
        out = wl_frames.compare(case)
        expect(f"frames: {case.label}", wl.check(case, out), False)
        fv, onb, dv, bv = out
        expect(f"frames: {case.label}, flipped verdict",
               wl.check(case, (fv, onb, dataclasses.replace(dv, equivalent=not dv.equivalent), bv)), True)
        expect(f"frames: {case.label}, perturbed lower frame bound",
               wl.check(case, (dataclasses.replace(fv, lower=fv.lower * (1 + 1e-6)), onb, dv, bv)), True)
    case = cases[0]
    fv, onb, dv, bv = wl_frames.compare(case)
    k1 = dv.forward.k1 * (1 + 1e-6)
    wrong = dataclasses.replace(dv, forward=dataclasses.replace(dv.forward, k1=k1))
    expect("frames: perturbed constant k1", wl.check(case, (fv, onb, wrong, bv)), True)
    expect("frames: swapped onb witness", wl.check(case, (fv, onb[::-1], dv, bv)), True)
    expect("frames: constants against scipy", wl.finish(), False)
    wl.constants = [(case, (k1, dv.forward.k2), (dv.backward.k1, dv.backward.k2))]
    expect("frames: perturbed constant against scipy", wl.finish(), True)


def cli():
    wl = wl_cli.Workload(ROOT, 5)
    tasks = {t.label: t for t in wl.tasks(in_process=True)}
    orbit = tasks["orbit-check z2_orbit.json json"]
    code, out = orbit.run()
    expect("cli: orbit-check report", orbit.check((code, out)), False)
    expect("cli: changed exit code", orbit.check((1, out)), True)
    doc = json.loads(out)
    doc["pairs"][1]["orbit"] = not doc["pairs"][1]["orbit"]
    expect("cli: flipped verdict field", orbit.check((code, json.dumps(doc).encode())), True)
    text = tasks["frame mercedes.json text"]
    code, out = text.run()
    expect("cli: frame text report", text.check((code, out)), False)
    expect("cli: report bytes differ on a second call", text.check((code, out.replace(b" = ", b" =  ", 1))), True)
    bumped = out.replace(b"lower_bound = 1.", b"lower_bound = 2.")
    expect("cli: perturbed frame bound", wl.check("fresh label", "text", text.check.args[2], False,
                                                 (code, bumped)), True)
    broken = tasks["validate broken.json json"]
    code, out = broken.run()
    expect("cli: broken instance", broken.check((code, out)), False)
    doc = json.loads(out)
    doc["violations"] = doc["violations"][1:]
    expect("cli: broken instance missing one violation", broken.check((code, json.dumps(doc).encode())), True)


def timing():
    out = worker.new_run()
    worker.run_pass([Task("raises", lambda: 1 / 0, lambda result: [])], out)
    expect("timing: a task that raises", out["errors"], True)
    expect("timing: no pass time for a pass with a failed task", worker.pass_times(out["passes"]), False)


def main():
    for part in (timing, deloop, tables, frames, cli):
        part()
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad}/{len(RESULTS)} self-test cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
