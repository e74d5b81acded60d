"""tables-classes: validate() and equivalence_classes() on prebuilt tables.

The inputs are delooped slices, seeded tampered copies of slice tables
(each breaking one named law), and seeded small lawful instances built
with validation on.  Slice building happens in set-up, so validate()
and the witness search carry the timed work.
"""

from __future__ import annotations

import random
from functools import partial

from morpheq import catkernel, equivalence
from morpheq import group_action as ga

import actions
import reference
from task import Task, mismatch

VALIDATE_SLICES = (
    [(name, 0) for name in actions.fixed_actions()]
    + [("swap-on-3", 1), ("trivial-c2", 1), ("regular-c3", 1), ("c2-three-pairs", 1),
       ("trivial-c6-point", 1), ("trivial-c2", 2)]
)
# regular-c4 at L = 1 takes about 12 s of validate() alone, longer than a run
CLASSES_SLICES = (
    [(name, 1) for name in actions.fixed_actions()]
    + [("swap-on-3", 2), ("regular-c3", 2), ("trivial-c2", 2)]
)
TAMPER_BASES = (("swap-on-3", 1), ("trivial-c2", 1))
TAMPERS = (
    "one:compose-missing", "one:unit-left", "vcomp-missing", "vcomp-boundary",
    "whisker-left-missing", "whisker-right-boundary", "id2-boundary",
    "vcomp-unit-left", "whisker-left-unit",
)
# the shapes and sizes are fixed per slot, so validate() costs the same on every seed
RANDOM_SHAPES = (("cyclic", 1), ("cyclic", 2), ("cyclic", 3), ("cyclic", 6)) + (("cap", 5),) * 4 + (("parallel", 4),) * 4
# Sixteen more seeded lawful instances of one shape, six parallel arrows
# (validate() 1.30 ms on every seed tried, within 2 %), validated once each
# after every third task of the list above.  The other tasks cost from 0.1 ms
# to 1.2 s with no two alike near the middle, so without these the median
# task fell between two tasks 1.2 and 1.6 ms apart, whichever came first on
# the run.  With them, 30 tasks cost less and 28 more, and the median task
# lies inside this group, timed at moments spread over the whole pass.
SPREAD_SHAPE, SPREAD_TASKS = ("parallel", 6), 16


class Workload:
    MIN_PASSES = 1

    def __init__(self, root, seed):
        rng = random.Random(seed)
        fixed = actions.fixed_actions()
        slices = {}
        for key in set(VALIDATE_SLICES) | set(CLASSES_SLICES) | set(TAMPER_BASES):
            slices[key] = ga.deloop_slice(actions.build(ga, fixed[key[0]]), key[1])
        self.validate_cases = [(f"validate {n} L={b}", slices[(n, b)].two_category)
                               for n, b in VALIDATE_SLICES]
        self.classes_cases = [
            (f"classes {n} L={b}", slices[(n, b)].equiv,
             reference.slice_partition(fixed[n]["carrier"], fixed[n]["elements"], fixed[n]["act"], b))
            for n, b in CLASSES_SLICES
        ]
        self.tamper_cases = []
        for i, law in enumerate(TAMPERS):
            base = TAMPER_BASES[i % len(TAMPER_BASES)]
            tables = actions.tables_of(slices[base].two_category)
            tamper(rng, tables, law)
            d = catkernel.Finite2Category(*_positional(tables), validate=False)
            self.tamper_cases.append((f"tampered {base[0]} L={base[1]} {law}", d, law))
        self.random_cases = []
        for i, (shape, size) in enumerate(RANDOM_SHAPES):
            raw = random_instance(rng, shape, size)
            self.random_cases.append((f"random{i}-{shape}", to_program(raw), raw))
        self.spread_cases = [(f"spread{i}-{SPREAD_SHAPE[0]}", to_program(random_instance(rng, *SPREAD_SHAPE)))
                             for i in range(SPREAD_TASKS)]

    def tasks(self):
        out = [Task(label, partial(validate, d), partial(check_lawful, label))
               for label, d in self.validate_cases]
        out += [Task(label, partial(classes, e), partial(check_partition, label, want))
                for label, e, want in self.classes_cases]
        out += [Task(label, partial(validate, d), partial(check_tampered, label, law))
                for label, d, law in self.tamper_cases]
        for label, e, raw in self.random_cases:
            out.append(Task(f"validate {label}", partial(validate, e.d), partial(check_lawful, label)))
            out.append(Task(f"classes {label}", partial(classes, e), partial(check_search, label, raw)))
        spread = [Task(f"validate {label}", partial(validate, e.d), partial(check_lawful, label))
                  for label, e in self.spread_cases]
        tasks = []
        for i, task in enumerate(out):
            tasks.append(task)
            if i % 3 == 2 and spread:
                tasks.append(spread.pop(0))
        return tasks

    def finish(self):
        return []


# the program's functions are looked up at call time, so that a traced run sees them


def validate(d):
    return d.validate()


def classes(e):
    return equivalence.equivalence_classes(e)


# ------------------------------------------------------------ checks


def check_lawful(label, report):
    return [] if report == [] else [mismatch(label, "violations", [str(v) for v in report[:3]], [])]


def check_partition(label, want, got):
    return [] if got == want else [mismatch(label, "partition", got, want)]


def check_tampered(label, law, report):
    codes = {v.code for v in report}
    return [] if law in codes else [mismatch(label, "violation codes", sorted(codes), f"to include {law}")]


def check_search(label, raw, got):
    return check_partition(label, reference.classes(raw), got)


# ------------------------------------------------------------ tampering


def _positional(t):
    return (
        t["objects"],
        [(i, dom, cod) for i, (dom, cod) in t["one_cells"].items()],
        t["identity"],
        t["compose"],
        [(i, src, tgt) for i, (src, tgt) in t["two_cells"].items()],
        t["identity2"],
        t["vcomp"],
        t["whisker_left"],
        t["whisker_right"],
    )


def tamper(rng, t, law):
    """Change one seeded entry of ``t`` so that exactly the law ``law`` breaks."""
    cells = t["two_cells"]
    ones = t["one_cells"]

    def pick(table):
        return rng.choice(sorted(table))

    def other_boundary(cid):
        return pick({c for c, b in cells.items() if b != cells[cid]})

    def with_twin():
        twins = {}
        for c, b in cells.items():
            twins.setdefault(b, []).append(c)
        a = pick({c for c, b in cells.items() if len(twins[b]) > 1})
        return a, pick({c for c in twins[cells[a]] if c != a})

    if law == "one:compose-missing":
        del t["compose"][pick(t["compose"])]
    elif law == "one:unit-left":
        ids = set(t["identity"].values())
        f = pick({m for m in ones if m not in ids})
        g = pick({m for m in ones if m != f and ones[m] == ones[f]})
        t["compose"][(t["identity"][ones[f][1]], f)] = g
    elif law == "vcomp-missing":
        del t["vcomp"][pick(t["vcomp"])]
    elif law == "vcomp-boundary":
        key = pick(t["vcomp"])
        t["vcomp"][key] = other_boundary(t["vcomp"][key])
    elif law == "whisker-left-missing":
        del t["whisker_left"][pick(t["whisker_left"])]
    elif law == "whisker-right-boundary":
        key = pick(t["whisker_right"])
        t["whisker_right"][key] = other_boundary(t["whisker_right"][key])
    elif law == "id2-boundary":
        f = pick(ones)
        t["identity2"][f] = pick({c for c, (src, _) in cells.items() if src != f})
    elif law == "vcomp-unit-left":
        a, twin = with_twin()
        t["vcomp"][(t["identity2"][cells[a][1]], a)] = twin
    elif law == "whisker-left-unit":
        a, twin = with_twin()
        ident = t["identity"][ones[cells[a][0]][1]]
        t["whisker_left"][(ident, a)] = twin
    else:
        raise ValueError(f"no tampering for {law!r}")


# ------------------------------------------------------------ random lawful instances


def random_instance(rng, shape, size):
    """A thin 2-category on a small category, with random parameter maps.

    Cells form a preorder on each hom-set that composition preserves,
    so every 2-category law holds by construction.  ``size`` fixes the
    number of cells: the congruence step of Z/6, the cap of the
    truncated monoid, or the number of parallel arrows.
    """
    if shape == "cyclic":
        k, step = 6, size
        names = [f"g{a}" for a in range(k)]
        arrows = {g: ("*", "*") for g in names}
        compose = {(names[a], names[b]): names[(a + b) % k] for a in range(k) for b in range(k)}
        rel = {(names[a], names[b]) for a in range(k) for b in range(k) if (a - b) % step == 0}
        scale = [rng.randrange(k) for _ in range(2)]
        taus = [{names[a]: names[(c * a) % k] for a in range(k)} for c in scale]
        sigma = {g: rng.choice(names) for g in names}
        return _raw(["*"], arrows, {"*": "g0"}, compose, rel, sigma, *taus)
    if shape == "cap":
        r = size
        names = [f"t{a}" for a in range(r + 1)]
        arrows = {t: ("*", "*") for t in names}
        compose = {(names[a], names[b]): names[min(a + b, r)] for a in range(r + 1) for b in range(r + 1)}
        up = rng.random() < 0.5
        rel = {(names[a], names[b]) for a in range(r + 1) for b in range(r + 1) if (a <= b) == up or a == b}
        scale = [rng.randrange(4) for _ in range(2)]
        taus = [{names[a]: names[min(c * a, r)] for a in range(r + 1)} for c in scale]
        sigma = {t: rng.choice(names) for t in names}
        return _raw(["*"], arrows, {"*": "t0"}, compose, rel, sigma, *taus)
    if shape == "parallel":
        par = [f"f{i}" for i in range(size)]
        arrows = {"idA": ("A", "A"), "idB": ("B", "B"), **{f: ("A", "B") for f in par}}
        compose = {("idA", "idA"): "idA", ("idB", "idB"): "idB"}
        for f in par:
            compose[("idB", f)] = f
            compose[(f, "idA")] = f
        ranks = [min(i, 2) for i in range(size)]  # a fixed multiset fixes the cell count
        rng.shuffle(ranks)
        rank = dict(zip(par, ranks))
        rel = {("idA", "idA"), ("idB", "idB")} | {(f, g) for f in par for g in par if rank[f] <= rank[g]}
        maps = [{"idA": "idA", "idB": "idB", **{f: rng.choice(par) for f in par}} for _ in range(3)]
        return _raw(["A", "B"], arrows, {"A": "idA", "B": "idB"}, compose, rel, *maps)
    raise ValueError(f"unknown shape {shape!r}")


def _raw(objects, arrows, identity, compose, rel, sigma, tau1, tau2):
    cell = {p: f"{p[0]}=>{p[1]}" for p in sorted(rel)}
    vcomp = {(cell[(g, h)], cell[(f, g)]): cell[(f, h)]
             for f, g in rel for g2, h in rel if g2 == g}
    wl = {(k, cell[(f, g)]): cell[(compose[(k, f)], compose[(k, g)])]
          for f, g in rel for k in arrows if arrows[k][0] == arrows[f][1]}
    wr = {(cell[(f, g)], k): cell[(compose[(f, k)], compose[(g, k)])]
          for f, g in rel for k in arrows if arrows[k][1] == arrows[f][0]}
    return {
        "objects": objects, "c_arrows": arrows, "identity": identity,
        "d_compose": compose, "cells": rel, "cell_ids": cell,
        "vcomp": vcomp, "whisker_left": wl, "whisker_right": wr,
        "sigma": sigma, "tau1": tau1, "tau2": tau2,
    }


def to_program(raw):
    """The EquivData bundle over ``raw``, every part validated on construction."""
    one = [(m, dom, cod) for m, (dom, cod) in raw["c_arrows"].items()]
    c = catkernel.FiniteCategory(raw["objects"], one, raw["identity"], raw["d_compose"])
    d = catkernel.Finite2Category(
        raw["objects"], one, raw["identity"], raw["d_compose"],
        [(cid, f, g) for (f, g), cid in raw["cell_ids"].items()],
        {m: raw["cell_ids"][(m, m)] for m in raw["c_arrows"]},
        raw["vcomp"], raw["whisker_left"], raw["whisker_right"],
    )
    omap = {o: o for o in raw["objects"]}
    return equivalence.EquivData(
        c, d,
        catkernel.MorphismFunction(c, d, omap, raw["sigma"]),
        catkernel.FunctorData(c, d, omap, raw["tau1"]),
        catkernel.FunctorData(c, d, omap, raw["tau2"]),
    )
