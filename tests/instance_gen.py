"""Seeded generators for small lawful equivalence instances.

Each generator builds a finite category from one of four shape families,
mounts a thin 2-dimensional layer on the same skeleton (at most one
2-cell per ordered pair of parallel 1-cells, so every coherence law is
automatic once the pair set is closed), and draws boundary-compatible
parameter maps.  Everything is driven by one integer seed and validated
eagerly, so a failing law in the consumer is always the consumer's bug.

Size budget: at most 3 objects and 8 morphisms downstairs, 12 one-cells
and 24 two-cells upstairs.

Also three small group actions whose delooped slices serve as larger
equivalence instances.
"""

import random

from morpheq import (
    EquivData,
    Finite2Category,
    FiniteCategory,
    FiniteGroup,
    FunctorData,
    GroupAction,
    MorphismFunction,
)

MAX_TWO_CELLS = 24


def _thin_category(rng):
    """A random poset-shaped category on 2-3 objects."""
    k = rng.choice([2, 3, 3])
    objs = [f"O{i}" for i in range(k)]
    rel = {(o, o) for o in objs}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.7:
                rel.add((objs[i], objs[j]))
    # transitive closure keeps the compose table total
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    def name(a, b):
        return f"id_{a}" if a == b else f"{a}_to_{b}"
    morphisms = [(name(a, b), a, b) for a, b in sorted(rel)]
    identity = {o: name(o, o) for o in objs}
    compose = {}
    for a, b in rel:
        for c, d in rel:
            if b == c:
                compose[(name(c, d), name(a, b))] = name(a, d)
    return FiniteCategory(objs, morphisms, identity, compose)


def _cap_monoid(rng):
    """Single object; powers of one generator, addition truncated at r."""
    r = rng.randint(1, 7)
    morphisms = [(f"t{a}", "*", "*") for a in range(r + 1)]
    compose = {
        (f"t{a}", f"t{b}"): f"t{min(a + b, r)}"
        for a in range(r + 1)
        for b in range(r + 1)
    }
    return FiniteCategory(["*"], morphisms, {"*": "t0"}, compose), r


def _cyclic(rng):
    k = rng.randint(2, 8)
    morphisms = [(f"g{a}", "*", "*") for a in range(k)]
    compose = {
        (f"g{a}", f"g{b}"): f"g{(a + b) % k}"
        for a in range(k)
        for b in range(k)
    }
    return FiniteCategory(["*"], morphisms, {"*": "g0"}, compose), k


def _parallel_pair(rng):
    """Two or three objects with a few parallel generators and forced composites."""
    three = rng.random() < 0.5
    objs = ["A", "B", "C"] if three else ["A", "B"]
    morphisms = [(f"id{o}", o, o) for o in objs]
    # 4 + 2*n_par morphisms in the three-object shape; stay within budget
    n_par = rng.randint(1, 2) if three else rng.randint(1, 3)
    morphisms += [(f"f{i}", "A", "B") for i in range(n_par)]
    if three:
        morphisms += [("g", "B", "C")]
        morphisms += [(f"gf{i}", "A", "C") for i in range(n_par)]
    ids = {m[0]: (m[1], m[2]) for m in morphisms}
    compose = {}
    for mid, (a, b) in ids.items():
        for nid, (c, d) in ids.items():
            if b != c:
                continue
            if nid == f"id{b}":
                compose[(nid, mid)] = mid
            elif mid == f"id{a}":
                compose[(nid, mid)] = nid
            elif nid == "g" and mid.startswith("f"):
                compose[(nid, mid)] = "gf" + mid[1:]
            # g after gf / gf after anything never arises with these shapes
    identity = {o: f"id{o}" for o in objs}
    return FiniteCategory(objs, morphisms, identity, compose)


def _close_thin(cat: FiniteCategory, seeds):
    """Close a pair relation on parallel morphisms under the 2-cell laws.

    Returns the closed set, or None when it blows past the cell budget.
    """
    rel = {(m, m) for m in cat.morphisms}
    rel |= set(seeds)
    table = cat.compose_table
    changed = True
    while changed:
        changed = False
        for pair in list(rel):
            f, g = pair
            for h, i in list(rel):
                if g == h and (f, i) not in rel:
                    rel.add((f, i))
                    changed = True
            fm, gm = cat.arrow(f), cat.arrow(g)
            for k in cat.morphisms.values():
                if k.dom == fm.cod:
                    new = (table[(k.id, f)], table[(k.id, g)])
                    if new not in rel:
                        rel.add(new)
                        changed = True
                if k.cod == fm.dom:
                    new = (table[(f, k.id)], table[(g, k.id)])
                    if new not in rel:
                        rel.add(new)
                        changed = True
            if len(rel) > MAX_TWO_CELLS:
                return None
    return rel


def _mount_thin_two_layer(cat: FiniteCategory, rng):
    """A thin 2-category on cat's skeleton with randomly seeded cells."""
    arrows = list(cat.morphisms.values())
    parallel = [
        (f.id, g.id)
        for f in arrows
        for g in arrows
        if f.id != g.id and f.dom == g.dom and f.cod == g.cod
    ]
    rng.shuffle(parallel)
    seeds = parallel[: rng.randint(0, min(3, len(parallel)))]
    rel = _close_thin(cat, seeds)
    while rel is None and seeds:
        seeds = seeds[:-1]
        rel = _close_thin(cat, seeds)
    if rel is None:
        rel = _close_thin(cat, [])
    cell = {pair: f"{pair[0]}=>{pair[1]}" for pair in sorted(rel)}
    table = cat.compose_table
    vcomp = {}
    for f, g in rel:
        for h, i in rel:
            if g == h:
                vcomp[(cell[(h, i)], cell[(f, g)])] = cell[(f, i)]
    wl, wr = {}, {}
    for (f, g), cid in cell.items():
        fm = cat.arrow(f)
        for k in cat.morphisms.values():
            if k.dom == fm.cod:
                wl[(k.id, cid)] = cell[(table[(k.id, f)], table[(k.id, g)])]
            if k.cod == fm.dom:
                wr[(cid, k.id)] = cell[(table[(f, k.id)], table[(g, k.id)])]
    return Finite2Category(
        list(cat.objects),
        [(m.id, m.dom, m.cod) for m in cat.morphisms.values()],
        {o: cat.id_of(o) for o in cat.objects},
        dict(table),
        [(cid, f, g) for (f, g), cid in cell.items()],
        {m: cell[(m, m)] for m in cat.morphisms},
        vcomp,
        wl,
        wr,
    )


def _random_sigma(cat, d, rng):
    """Boundary-compatible morphism function; rarely a functor."""
    mapping = {}
    for m in cat.morphisms.values():
        mapping[m.id] = rng.choice(list(cat.hom(m.dom, m.cod)))
    return MorphismFunction(cat, d, {o: o for o in cat.objects}, mapping)


def _identity_functor(cat, d):
    return FunctorData(cat, d, {o: o for o in cat.objects},
                       {m: m for m in cat.morphisms})


def _power_functor(cat, d, c, size, prefix, cap=None):
    """t^a -> t^(c*a) (capped) or g^a -> g^(c*a mod k)."""
    if cap is not None:
        mapping = {f"{prefix}{a}": f"{prefix}{min(c * a, cap)}" for a in range(size)}
    else:
        mapping = {f"{prefix}{a}": f"{prefix}{(c * a) % size}" for a in range(size)}
    return FunctorData(cat, d, {"*": "*"}, mapping)


def random_equiv_instance(seed):
    """One validated random instance; deterministic in the seed."""
    rng = random.Random(seed)
    family = rng.choice(["thin", "cap", "cyc", "par"])
    extra = None
    if family == "thin":
        cat = _thin_category(rng)
    elif family == "cap":
        cat, extra = _cap_monoid(rng)
    elif family == "cyc":
        cat, extra = _cyclic(rng)
    else:
        cat = _parallel_pair(rng)
    d = _mount_thin_two_layer(cat, rng)
    sigma = _random_sigma(cat, d, rng)
    tau1 = _identity_functor(cat, d)
    tau2 = _identity_functor(cat, d)
    if family == "cap" and rng.random() < 0.5:
        tau1 = _power_functor(cat, d, rng.randint(1, 3), extra + 1, "t", cap=extra)
    elif family == "cyc" and rng.random() < 0.5:
        tau2 = _power_functor(cat, d, rng.randint(0, 3), extra, "g")
    return EquivData(cat, d, sigma, tau1, tau2)


def swap_action():
    """Z/2 swapping a and b, fixing c."""
    g = FiniteGroup.cyclic(2)
    act = {("g0", x): x for x in "abc"}
    act.update({("g1", "a"): "b", ("g1", "b"): "a", ("g1", "c"): "c"})
    return GroupAction(g, ["a", "b", "c"], act)


def regular_action(n):
    """Z/n acting on n points by rotation."""
    g = FiniteGroup.cyclic(n)
    carrier = [f"x{j}" for j in range(n)]
    act = {(f"g{i}", f"x{j}"): f"x{(i + j) % n}" for i in range(n) for j in range(n)}
    return GroupAction(g, carrier, act)


def trivial_action(n_group, carrier):
    """Z/n fixing every point of ``carrier``."""
    g = FiniteGroup.cyclic(n_group)
    act = {(e, x): x for e in g.elements for x in carrier}
    return GroupAction(g, carrier, act)


def parity_swap_c6():
    """Z/6 on two points: even elements fix them, odd ones swap them."""
    g = FiniteGroup.cyclic(6)
    act = {}
    for i, e in enumerate(g.elements):
        act[(e, "p")], act[(e, "q")] = ("p", "q") if i % 2 == 0 else ("q", "p")
    return GroupAction(g, ["p", "q"], act)
