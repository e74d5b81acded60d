"""Seeded generators for small lawful equivalence instances.

Each generator builds a finite category from one of four shape families,
mounts a thin 2-dimensional layer on the same skeleton (at most one
2-cell per ordered pair of parallel 1-cells, so every coherence law is
automatic once the pair set is closed), and draws boundary-compatible
parameter maps.  Everything is driven by one integer seed and validated
eagerly, so a failing law in the consumer is always the consumer's bug.

Size budget: at most 3 objects and 8 morphisms downstairs, 12 one-cells
and 24 two-cells upstairs.

Also small group actions, fixed and seeded, whose delooped slices serve
as larger equivalence instances, and the categories of maps between
finite sets and the matrix monoids over GF(2), whose locally discrete
bundles have Green's J-relation as their equivalence, with the rank
classes as its known answer; with one functor made constant, the
one-sided R- and L-relations, with the image and kernel (column and row
space) classes as theirs.
"""

import itertools
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
    for a, b in sorted(rel):
        for c, d in sorted(rel):
            if b == c:
                compose[(name(c, d), name(a, b))] = name(a, d)
    return FiniteCategory(objs, morphisms, identity, compose)


def _cap_monoid(r):
    """Single object; powers of one generator, addition truncated at r."""
    morphisms = [(f"t{a}", "*", "*") for a in range(r + 1)]
    compose = {
        (f"t{a}", f"t{b}"): f"t{min(a + b, r)}"
        for a in range(r + 1)
        for b in range(r + 1)
    }
    return FiniteCategory(["*"], morphisms, {"*": "t0"}, compose)


def _cyclic(k):
    morphisms = [(f"g{a}", "*", "*") for a in range(k)]
    compose = {
        (f"g{a}", f"g{b}"): f"g{(a + b) % k}"
        for a in range(k)
        for b in range(k)
    }
    return FiniteCategory(["*"], morphisms, {"*": "g0"}, compose)


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
    for f, g in sorted(rel):
        for h, i in sorted(rel):
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
        extra = rng.randint(1, 7)
        cat = _cap_monoid(extra)
    elif family == "cyc":
        extra = rng.randint(2, 8)
        cat = _cyclic(extra)
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


def random_param_bundle(seed):
    """One validated random instance on a cap or cyc monoid whose tau1 and
    tau2 are both power functors other than the identity; deterministic in
    the seed.

    t^a -> t^min(c a, r) with c in {2, 3} on a cap monoid with r >= 2, or
    g^a -> g^(c a mod k) with c in {0, 2, 3} on a cyclic group with k >= 3:
    at r = 1, or at k = 2 and c = 3, the power would be the identity.
    """
    rng = random.Random(seed)
    if rng.random() < 0.5:
        r = rng.randint(2, 7)
        cat = _cap_monoid(r)
        d = _mount_thin_two_layer(cat, rng)
        tau1, tau2 = (_power_functor(cat, d, rng.choice([2, 3]), r + 1, "t", cap=r) for _ in range(2))
    else:
        k = rng.randint(3, 8)
        cat = _cyclic(k)
        d = _mount_thin_two_layer(cat, rng)
        tau1, tau2 = (_power_functor(cat, d, rng.choice([0, 2, 3]), k, "g") for _ in range(2))
    return EquivData(cat, d, _random_sigma(cat, d, rng), tau1, tau2)


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


def c4_plus_fixed_point():
    """Z/4 rotating a0..a3 and fixing e."""
    g = FiniteGroup.cyclic(4)
    act = {(f"g{i}", f"a{j}"): f"a{(i + j) % 4}" for i in range(4) for j in range(4)}
    act.update({(f"g{i}", "e"): "e" for i in range(4)})
    return GroupAction(g, ["a0", "a1", "a2", "a3", "e"], act)


def three_pairs_c2():
    """Z/2 swapping the two points of each of three pairs."""
    g = FiniteGroup.cyclic(2)
    carrier = ["a0", "a1", "b0", "b1", "c0", "c1"]
    act = {("g0", x): x for x in carrier}
    act.update({("g1", x): f"{x[0]}{1 - int(x[1])}" for x in carrier})
    return GroupAction(g, carrier, act)


def action_doc(action, bound):
    """A ``group_action`` instance document of ``action`` at chain bound ``bound``."""
    g = action.group
    return {
        "kind": "group_action",
        "group": {"elements": list(g.elements), "unit": g.unit,
                  "mul": [[a, b, c] for (a, b), c in g.mul_table.items()]},
        "carrier": list(action.carrier),
        "act": [[a, x, y] for (a, x), y in action.act_table.items()],
        "max_chain_length": bound,
    }


def fixed_actions():
    """Eight named actions covering |G| up to 6 and |E| up to 6.

    Any action with |G| = 6 and |E| = 6 simultaneously needs about
    (|E| |G|^2)^3 = 10M vertical-composition entries at chain bound 2,
    which no table build fits in a test's time budget, so the two
    boundaries are covered by separate instances.  Verdicts are
    bound-independent (comparison cells only connect equal-length words),
    so no discriminating power is lost.
    """
    return [
        ("swap-on-3", swap_action()),
        ("regular-c3", regular_action(3)),
        ("trivial-c2", trivial_action(2, ["p", "q"])),
        ("regular-c4", regular_action(4)),
        ("c4-plus-fixed-point", c4_plus_fixed_point()),
        ("trivial-c6-point", trivial_action(6, ["p"])),
        ("c2-three-pairs", three_pairs_c2()),
        ("c6-parity-swap", parity_swap_c6()),
    ]


def random_action(seed):
    """Z/n, n in {2, 3, 4, 6}, on 2-5 shuffled points split into random orbits.

    Each orbit is the rotation action of Z/n on Z/k for a divisor k of n,
    so fixed points and orbits of several sizes interleave in carrier order.
    """
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4, 6])
    size = rng.randint(2, 5)
    names = [f"p{j}" for j in range(size)]
    rng.shuffle(names)
    act = {}
    start = 0
    while start < size:
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0 and d <= size - start])
        orbit = names[start:start + k]
        for i in range(n):
            for j, x in enumerate(orbit):
                act[(f"g{i}", x)] = orbit[(j + i) % k]
        start += k
    return GroupAction(FiniteGroup.cyclic(n), sorted(names), act)


def finite_sets(sizes):
    """Every map between the sets {0, ..., n - 1} for n in ``sizes``.

    Object ``S<n>`` is the set of size n; the map f: S<a> -> S<b> has id
    ``S<a>>S<b>:`` followed by its images f(0) ... f(a - 1), one digit
    each, and g . f applies f first.  For several sizes the composition
    rows are partial: a map composes only with the maps out of its
    codomain.
    """
    objects = [f"S{n}" for n in sizes]
    maps = {}  # id -> (dom size, cod size, images)
    for a, b in itertools.product(sizes, repeat=2):
        for images in itertools.product(range(b), repeat=a):
            maps[f"S{a}>S{b}:" + "".join(map(str, images))] = (a, b, images)
    by_dom = {}
    for m, (a, _, _) in maps.items():
        by_dom.setdefault(a, []).append(m)
    compose = {}
    for f, (a, b, fi) in maps.items():
        for g in by_dom[b]:
            _, c, gi = maps[g]
            compose[(g, f)] = f"S{a}>S{c}:" + "".join(str(gi[x]) for x in fi)
    return FiniteCategory(
        objects,
        [(m, f"S{a}", f"S{b}") for m, (a, b, _) in maps.items()],
        {f"S{n}": f"S{n}>S{n}:" + "".join(map(str, range(n))) for n in sizes},
        compose,
    )


def transformation_monoid(n):
    """The full transformation monoid T_n, as the one-object category of maps of S<n>."""
    return finite_sets([n])


def map_rank(m):
    """The image size of a map of ``finite_sets``, read off its id."""
    return len(map_image(m))


def map_image(m):
    """The image of a map of ``finite_sets``, as a set of digits."""
    return frozenset(m.split(":")[1])


def map_kernel(m):
    """The kernel of a map of ``finite_sets``: each point's least point of equal image."""
    images = m.split(":")[1]
    return tuple(map(images.index, images))


def matrix_monoid(n):
    """The n x n matrices over GF(2) under multiplication, as a one-object category.

    The matrix M has id ``M<n>:`` followed by its entries row by row, one
    digit each, and g . f is the product G F (f acts first).
    """
    mats = list(itertools.product((0, 1), repeat=n * n))

    def name(m):
        return f"M{n}:" + "".join(map(str, m))

    def times(g, f):
        return tuple(sum(g[i * n + k] * f[k * n + j] for k in range(n)) % 2 for i in range(n) for j in range(n))

    unit = tuple(int(i == j) for i in range(n) for j in range(n))
    return FiniteCategory(
        ["*"], [(name(m), "*", "*") for m in mats], {"*": name(unit)},
        {(name(g), name(f)): name(times(g, f)) for g in mats for f in mats},
    )


def matrix_rank(m):
    """The rank over GF(2) of a matrix of ``matrix_monoid``, read off its id."""
    head, digits = m.split(":")
    n = int(head[1:])
    rows = [int(digits[i * n:(i + 1) * n], 2) for i in range(n)]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def _span(vectors):
    """Every sum over GF(2) of some of ``vectors``, each an int of bits."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return frozenset(span)


def matrix_column_space(m):
    """The column space over GF(2) of a matrix of ``matrix_monoid``."""
    head, digits = m.split(":")
    n = int(head[1:])
    return _span(int(digits[j::n], 2) for j in range(n))


def matrix_row_space(m):
    """The row space over GF(2) of a matrix of ``matrix_monoid``."""
    head, digits = m.split(":")
    n = int(head[1:])
    return _span(int(digits[i * n:(i + 1) * n], 2) for i in range(n))


def locally_discrete_bundle(cat: FiniteCategory):
    """The bundle (cat, d, id, id, id) whose d has only identity 2-cells.

    There a witness says exactly u1 . m . u2 = mt and v1 . mt . v2 = m,
    so the equivalence is Green's J-relation of ``cat``.
    """
    cell = {m: f"1_{m}" for m in cat.morphisms}
    wl, wr = {}, {}
    for (g, f), h in cat.compose_table.items():
        wl[(g, cell[f])] = cell[h]
        wr[(cell[g], f)] = cell[h]
    d = Finite2Category(
        list(cat.objects),
        [(a.id, a.dom, a.cod) for a in cat.morphisms.values()],
        dict(cat.identity),
        cat.compose_table,
        [(cell[m], m, m) for m in cat.morphisms],
        cell,
        {(a, a): a for a in cell.values()},
        wl,
        wr,
    )
    sigma = MorphismFunction(cat, d, {o: o for o in cat.objects}, {m: m for m in cat.morphisms})
    return EquivData(cat, d, sigma, _identity_functor(cat, d), _identity_functor(cat, d))


def one_sided_bundle(cat: FiniteCategory, side):
    """``locally_discrete_bundle(cat)`` with the functor named ``side``
    ("tau1" or "tau2") swapped for the constant functor at the identity.

    ``cat`` has one object.  With tau1 constant a witness says exactly
    m . u2 = mt and mt . v2 = m, Green's R-relation of the monoid under
    g . f; with tau2 constant, u1 . m = mt and v1 . mt = m, its
    L-relation.  In T_n these are the maps of equal image and of equal
    kernel, in M_n(GF(2)) the matrices of equal column space and of
    equal row space (Howie, Fundamentals of Semigroup Theory, 1995).
    """
    e = locally_discrete_bundle(cat)
    (obj,) = cat.objects
    const = FunctorData(cat, e.d, {obj: obj}, dict.fromkeys(cat.morphisms, cat.id_of(obj)))
    tau1, tau2 = {"tau1": (const, e.tau2), "tau2": (e.tau1, const)}[side]
    return EquivData(cat, e.d, e.sigma, tau1, tau2)
