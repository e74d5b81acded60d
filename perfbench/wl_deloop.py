"""deloop-orbits: orbit membership decided through freshly built delooped slices.

Each task builds a new GroupAction and decides every ordered pair of
letters with ``delooped_equivalent`` at one chain bound, so it pays for
the slice build once, as a user's first call does.  Slice construction
dominates; the witness search is the rest and ``validate()`` never runs.
"""

from __future__ import annotations

import random
from functools import partial

from morpheq import group_action as ga

import actions
import reference
from task import Task, mismatch

BOUNDS = (0, 1, 2)
# the schema's largest chain bound, on the two actions whose L = 3 slice is small
DEEP = (("swap-on-3", 3), ("trivial-c2", 3))
# (|G|, |E|, L) of the seeded random actions.  Each costs 70-110 ms on every
# seed tried, above the fixed tasks around the median, so task_ms_p50 does
# not depend on the seed.
RANDOM_CLASSES = ((4, 2, 2), (2, 4, 2), (3, 3, 2)) * 2
# Sixteen more seeded random actions of the size of c4-plus-fixed-point at
# L = 1 (20-30 ms each), placed after every second task of the list above.
# The median task then lies inside this group, which is timed at moments
# spread over the whole pass, so task_ms_p50 averages the machine's speed
# over the pass instead of taking it from a few short calls.
SPREAD_CLASS, SPREAD_TASKS = (4, 5, 1), 16


class Workload:
    MIN_PASSES = 1

    def __init__(self, root, seed):
        rng = random.Random(seed)
        fixed = actions.fixed_actions()
        self.cases = [(name, raw, bound) for name, raw in fixed.items() for bound in BOUNDS]
        self.cases += [(name, fixed[name], bound) for name, bound in DEEP]
        for i, (n, size, bound) in enumerate(RANDOM_CLASSES):
            raw = actions.random_action(rng, n, size)
            self.cases.append((f"random{i}-c{n}-on-{size}", raw, bound))
        n, size, bound = SPREAD_CLASS
        spread = [(f"spread{i}-c{n}-on-{size}", actions.random_action(rng, n, size), bound)
                  for i in range(SPREAD_TASKS)]
        cases, self.cases = self.cases, []
        for i, case in enumerate(cases):
            self.cases.append(case)
            if i % 2 and spread:
                self.cases.append(spread.pop(0))

    def tasks(self):
        return [
            Task(f"{name} L={bound}", partial(decide_all, raw, bound),
                 partial(check, f"{name} L={bound}", raw, bound))
            for name, raw, bound in self.cases
        ]

    def finish(self):
        return []


def decide_all(raw, bound):
    action = actions.build(ga, raw)
    verdicts = {
        (x, y): ga.delooped_equivalent(action, x, y, bound)
        for x in action.carrier
        for y in action.carrier
    }
    return action, verdicts


def check(label, raw, bound, output):
    """Verdicts against orbit membership, the partition, and every witness."""
    action, verdicts = output
    carrier = raw["carrier"]
    orb = reference.orbits(carrier, raw["elements"], raw["act"])
    errors = []
    pairs = {(x, y) for x in carrier for y in carrier}
    if set(verdicts) != pairs:
        return [f"{label}: decided {len(verdicts)} pairs, expected {len(pairs)}"]
    for (x, y), (ok, witness) in sorted(verdicts.items()):
        want = y in orb[x]
        if ok != want:
            errors.append(mismatch(label, f"verdict ({x}, {y})", ok, want))
        elif ok:
            errors += check_witness(label, raw, ga.deloop_slice(action, bound), x, y, witness)
        elif witness is not None:
            errors.append(f"{label}: ({x}, {y}) is a no but carries a witness")
    got = reference.partition_from_relation(carrier, lambda a, b: verdicts[(a, b)][0])
    want = reference.blocks_of(set(orb.values()))
    if got != want:
        errors.append(mismatch(label, "partition", got, want))
    return errors


def _letters(word):
    inner = word[1:-1]
    return inner.split(",") if inner else []


def check_witness(label, raw, slice_, x, y, w):
    """The eight boundaries, read from the slice's own tables.

    The comparison chains must be the empty chain, and each 2-cell must
    relabel its source chain into its target by group elements that
    really transport letter to letter.
    """
    where = f"{label}: witness ({x}, {y})"
    errors = []
    for part in ("u1", "u2", "v1", "v2"):
        if getattr(w, part) != reference.EMPTY:
            errors.append(mismatch(where, part, getattr(w, part), reference.EMPTY))
    d = slice_.two_category
    comp = d.skeleton.compose_table
    cells = d.two_cells
    m, mt = reference.word_id((x,)), reference.word_id((y,))
    try:
        xs = comp[(w.u1, comp[(m, w.u2)])]
        ys = comp[(w.v1, comp[(mt, w.v2)])]
        for part, src, tgt in (("phi", xs, mt), ("phi_tilde", mt, xs), ("psi", ys, m), ("psi_tilde", m, ys)):
            cid = getattr(w, part)
            cell = cells[cid]
            if (cell.src, cell.tgt) != (src, tgt):
                errors.append(mismatch(where, f"{part} boundary", (cell.src, cell.tgt), (src, tgt)))
                continue
            labels = cid.rsplit("#", 1)[1].split(",") if "#" in cid else []
            moves = list(zip(labels, _letters(src), _letters(tgt)))
            if len(labels) != len(_letters(src)) or any(raw["act"][(g, a)] != b for g, a, b in moves):
                errors.append(f"{where}: {part} = {cid!r} is not a transporter relabelling")
    except KeyError as exc:
        errors.append(f"{where}: names an id missing from the tables: {exc}")
    return errors
