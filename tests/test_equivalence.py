import json
import random
from pathlib import Path

import pytest

from morpheq import (
    EquivData,
    Finite2Category,
    FunctorData,
    MorphismFunction,
    Witness,
    are_equivalent,
    deloop_slice,
    derive_reflexivity,
    derive_symmetry,
    derive_transitivity,
    equivalence_classes,
    verify_witness,
)
from morpheq import cli, equivalence
from morpheq.errors import InvalidInstance, InvalidPremise, MorpheqError, NotComposable, UnknownElement, UnknownId

from instance_gen import (
    finite_sets,
    fixed_actions,
    locally_discrete_bundle,
    map_image,
    map_kernel,
    map_rank,
    matrix_column_space,
    matrix_monoid,
    matrix_rank,
    matrix_row_space,
    one_sided_bundle,
    random_equiv_instance,
    random_param_bundle,
    regular_action,
    swap_action,
    three_pairs_c2,
    transformation_monoid,
)
from oracles import (
    are_equivalent_scan,
    equivalence_classes_all_pairs,
    side_search_scan,
    side_search_scans,
    slice_side_scans,
)


def walking_pair():
    """Two parallel arrows A -> B whose hom-groupoid is indiscrete.

    m and mt are isomorphic as objects of hom(A, B), so they end up
    equivalent under the identity parameters, while idA and idB stay
    alone in their classes.
    """
    compose = {
        ("idA", "idA"): "idA", ("idB", "idB"): "idB",
        ("m", "idA"): "m", ("idB", "m"): "m",
        ("mt", "idA"): "mt", ("idB", "mt"): "mt",
    }
    cells = {"ia": ("idA", "idA"), "ib": ("idB", "idB"), "im": ("m", "m"),
             "imt": ("mt", "mt"), "ab": ("m", "mt"), "ba": ("mt", "m")}

    def the_cell(s, t):
        return next(c for c, b in cells.items() if b == (s, t))

    vcomp = {(s, f): the_cell(cells[f][0], cells[s][1])
             for f in cells for s in cells if cells[f][1] == cells[s][0]}
    dom = {"idA": "A", "idB": "B", "m": "A", "mt": "A"}
    cod = {"idA": "A", "idB": "B", "m": "B", "mt": "B"}
    wl, wr = {}, {}
    for a, (s, t) in cells.items():
        for k in dom:
            if dom[k] == cod[s]:
                wl[(k, a)] = the_cell(compose[(k, s)], compose[(k, t)])
            if cod[k] == dom[s]:
                wr[(a, k)] = the_cell(compose[(s, k)], compose[(t, k)])
    d = Finite2Category(
        ["A", "B"],
        [("idA", "A", "A"), ("idB", "B", "B"), ("m", "A", "B"), ("mt", "A", "B")],
        {"A": "idA", "B": "idB"},
        compose,
        [(c, s, t) for c, (s, t) in cells.items()],
        {"idA": "ia", "idB": "ib", "m": "im", "mt": "imt"},
        vcomp,
        wl,
        wr,
    )
    c = d.skeleton
    omap = {"A": "A", "B": "B"}
    mmap = {m: m for m in c.morphisms}
    return EquivData(
        c, d,
        MorphismFunction(c, d, omap, mmap),
        FunctorData(c, d, omap, mmap),
        FunctorData(c, d, omap, mmap),
    )


# ------------------------------------------------------------ golden pair


def test_walking_pair_equivalent_with_lex_first_witness():
    e = walking_pair()
    ok, w = are_equivalent(e, "m", "mt")
    assert ok
    assert w == Witness(
        u1="idB", u2="idA", v1="idB", v2="idA",
        phi="ab", phi_tilde="ba", psi="ba", psi_tilde="ab",
    )
    assert verify_witness(e, "m", "mt", w)


def test_walking_pair_negatives():
    e = walking_pair()
    # no morphism runs B -> A, so every cross-object comparison dies
    # on an empty hom-set
    for pair in (("idA", "idB"), ("idA", "m"), ("m", "idB")):
        ok, w = are_equivalent(e, *pair)
        assert not ok and w is None


def test_walking_pair_classes():
    e = walking_pair()
    assert equivalence_classes(e) == [["idA"], ["idB"], ["m", "mt"]]


def test_search_is_deterministic():
    e = walking_pair()
    first = are_equivalent(e, "m", "mt")
    for _ in range(5):
        assert are_equivalent(e, "m", "mt") == first


# ------------------------------------------------------- witness checking


def test_verify_witness_names_first_failure():
    e = walking_pair()
    _, w = are_equivalent(e, "m", "mt")
    bad = {
        "u1 boundary": Witness("idA", w.u2, w.v1, w.v2, w.phi, w.phi_tilde, w.psi, w.psi_tilde),
        "u2 boundary": Witness(w.u1, "idB", w.v1, w.v2, w.phi, w.phi_tilde, w.psi, w.psi_tilde),
        "v1 boundary": Witness(w.u1, w.u2, "idA", w.v2, w.phi, w.phi_tilde, w.psi, w.psi_tilde),
        "v2 boundary": Witness(w.u1, w.u2, w.v1, "idB", w.phi, w.phi_tilde, w.psi, w.psi_tilde),
        "phi boundary": Witness(w.u1, w.u2, w.v1, w.v2, "ba", w.phi_tilde, w.psi, w.psi_tilde),
        "phi_tilde boundary": Witness(w.u1, w.u2, w.v1, w.v2, w.phi, "ab", w.psi, w.psi_tilde),
        "psi boundary": Witness(w.u1, w.u2, w.v1, w.v2, w.phi, w.phi_tilde, "ab", w.psi_tilde),
        "psi_tilde boundary": Witness(w.u1, w.u2, w.v1, w.v2, w.phi, w.phi_tilde, w.psi, "ba"),
    }
    for label, tampered in bad.items():
        got = verify_witness(e, "m", "mt", tampered)
        assert not got
        assert got.failure == label


# ------------------------------------------------------- derived witnesses


def test_reflexivity_everywhere():
    for seed in range(15):
        e = random_equiv_instance(seed)
        for m in e.c.morphisms:
            w = derive_reflexivity(e, m)
            assert verify_witness(e, m, m, w)
            a = e.c.arrow(m)
            assert w.u1 == e.c.id_of(a.cod) and w.v1 == e.c.id_of(a.cod)
            assert w.u2 == e.c.id_of(a.dom) and w.v2 == e.c.id_of(a.dom)
            ident = e.d.id_two(e.sigma(m))
            assert {w.phi, w.phi_tilde, w.psi, w.psi_tilde} == {ident}


def test_symmetry_swaps_and_verifies():
    hits = 0
    for seed in range(40):
        e = random_equiv_instance(seed)
        items = sorted(e.c.morphisms)
        for i, m in enumerate(items):
            for mt in items[i + 1:]:
                ok, w = are_equivalent(e, m, mt)
                if not ok:
                    continue
                hits += 1
                s = derive_symmetry(e, m, mt, w)
                assert verify_witness(e, mt, m, s)
                assert (s.u1, s.u2, s.phi, s.phi_tilde) == (w.v1, w.v2, w.psi, w.psi_tilde)
                assert (s.v1, s.v2, s.psi, s.psi_tilde) == (w.u1, w.u2, w.phi, w.phi_tilde)
                # swapping twice gives back the original
                assert derive_symmetry(e, mt, m, s) == w
    assert hits >= 10


def test_transitivity_composes_and_verifies():
    hits = 0
    for seed in range(40):
        e = random_equiv_instance(seed)
        items = sorted(e.c.morphisms)
        for m in items:
            for mb in items:
                if mb == m:
                    continue
                ok1, w1 = are_equivalent(e, m, mb)
                if not ok1:
                    continue
                for mbb in items:
                    if mbb in (m, mb):
                        continue
                    ok2, w2 = are_equivalent(e, mb, mbb)
                    if not ok2:
                        continue
                    hits += 1
                    w = derive_transitivity(e, m, mb, mbb, w1, w2)
                    assert verify_witness(e, m, mbb, w)
                    # comparison morphisms compose through the middle stage
                    assert w.u1 == e.c.compose(w2.u1, w1.u1)
                    assert w.u2 == e.c.compose(w1.u2, w2.u2)
                    assert w.v1 == e.c.compose(w1.v1, w2.v1)
                    assert w.v2 == e.c.compose(w2.v2, w1.v2)
    assert hits >= 10


def test_bad_premises_are_rejected():
    e = walking_pair()
    _, w = are_equivalent(e, "m", "mt")
    junk = Witness("idA", "idA", "idA", "idA", "ia", "ia", "ia", "ia")
    with pytest.raises(InvalidPremise):
        derive_symmetry(e, "m", "mt", junk)
    with pytest.raises(InvalidPremise):
        derive_transitivity(e, "m", "mt", "m", junk, w)
    with pytest.raises(InvalidPremise):
        derive_transitivity(e, "m", "mt", "m", w, junk)


# ------------------------------------------------------------ the relation


def test_relation_laws_spot_check():
    for seed in range(12):
        e = random_equiv_instance(seed)
        items = sorted(e.c.morphisms)
        verdict = {}
        for m in items:
            for mt in items:
                verdict[(m, mt)] = are_equivalent(e, m, mt)[0]
        for m in items:
            assert verdict[(m, m)]
            for mt in items:
                assert verdict[(m, mt)] == verdict[(mt, m)]
                for mb in items:
                    if verdict[(m, mt)] and verdict[(mt, mb)]:
                        assert verdict[(m, mb)]


def test_classes_match_all_pairs_oracle():
    bundles = [random_equiv_instance(seed) for seed in range(100)]
    bundles += [random_param_bundle(seed) for seed in range(50)]  # tau1, tau2 not identities
    # the oracle takes about 3 s and 16 s on these two at chain bound 2
    slow_at_2 = {"c4-plus-fixed-point", "c2-three-pairs"}
    for name, action in fixed_actions():
        bounds = (0, 1) if name in slow_at_2 else (0, 1, 2)
        bundles += [deloop_slice(action, bound).equiv for bound in bounds]
    bundles.append(locally_discrete_bundle(finite_sets((1, 2, 3))))  # several objects, partial rows
    for e in bundles:
        assert equivalence_classes(e) == equivalence_classes_all_pairs(e)


def scanned_bundles():
    """The search tests' bundles, each with the scan answers of its ordered pairs.

    Every bundle is built fresh; a slice's answers come from the scan
    kept per (action, bound), the others' from a scan of the bundle.
    """
    for seed in range(100):
        e = random_equiv_instance(seed)
        yield e, side_search_scans(e)
    for seed in range(50):  # tau1, tau2 not identities
        e = random_param_bundle(seed)
        yield e, side_search_scans(e)
    for make, args in ((swap_action, ()), (regular_action, (3,))):
        for bound in (0, 1, 2):
            yield deloop_slice(make(*args), bound).equiv, slice_side_scans(bound, make, *args)


def test_indexed_search_matches_the_scan_on_every_ordered_pair():
    cross_boundary_hits = 0
    for e, sides in scanned_bundles():
        for (m, mt), want in sides.items():
            assert equivalence._side_search(e, m, mt) == want, (m, mt)
            assert are_equivalent(e, m, mt) == are_equivalent_scan(sides, m, mt), (m, mt)
            a, b = e.c.arrow(m), e.c.arrow(mt)
            if want is not None and (a.dom, a.cod) != (b.dom, b.cod):
                cross_boundary_hits += 1
    # the two sides of such a pair read rows over different hom-sets
    assert cross_boundary_hits > 0


def test_search_answers_do_not_depend_on_the_order_of_questions():
    missed_then_hit = 0
    for e, sides in scanned_bundles():
        missed, hit_after_miss = set(), set()  # keyed as the search keys its sides
        for seed in range(3):  # the bundle and its caches are shared by all three orders
            asked = list(sides) * 2
            random.Random(seed).shuffle(asked)
            for m, mt in asked:
                want = sides[(m, mt)]
                assert equivalence._side_search(e, m, mt) == want, (m, mt)
                assert are_equivalent(e, m, mt) == are_equivalent_scan(sides, m, mt), (m, mt)
                a, b = e.c.arrow(m), e.c.arrow(mt)
                side = (e.sigma(m), a.cod, b.cod, b.dom, a.dom)
                if want is None:
                    missed.add(side)
                elif side in missed:
                    hit_after_miss.add(side)
        missed_then_hit += len(hit_after_miss)
    # a miss indexed such a side whole, and it still has to give the least witness
    assert missed_then_hit > 0


def test_a_repeated_miss_reads_no_composition_row(monkeypatch):
    # every side of a delooped slice has one object at each end, so all the
    # questions from one 1-cell ask the same side
    s = deloop_slice(three_pairs_c2(), 2)
    e = s.equiv
    x, other_orbit, same_orbit = s.embed("a0"), s.embed("b0"), s.embed("a1")
    y, y_hit, y_miss = s.embed("b1"), s.embed("b0"), s.embed("c0")
    want = side_search_scan(e, x, same_orbit)
    assert want is not None
    wants = {q: side_search_scan(e, *q) for q in ((x, x), (y, y_hit), (y, y_miss), (y, y))}
    assert wants[(y, y_hit)] is not None and wants[(y, y_miss)] is None
    reads = []

    class CountedRows(dict):
        def __getitem__(self, key):
            reads.append(key)
            return dict.__getitem__(self, key)

    monkeypatch.setattr(e.d.skeleton, "rows", CountedRows(e.d.skeleton.rows))
    assert equivalence._side_search(e, x, other_orbit) is None
    assert reads  # the first search on a side walks it
    reads.clear()
    assert equivalence._side_search(e, x, s.embed("c1")) is None
    assert equivalence._side_search(e, x, same_orbit) == want  # a hit after a miss
    assert equivalence._side_search(e, x, x) == wants[(x, x)]  # a second hit
    assert reads == []
    assert equivalence._side_search(e, y, y_hit) == wants[(y, y_hit)]
    assert reads
    reads.clear()
    assert equivalence._side_search(e, y, y_miss) is None  # a miss after a hit
    assert equivalence._side_search(e, y, y) == wants[(y, y)]
    assert reads == []

    # once every ordered pair is searched, the classes sweep walks no side
    for make in (lambda: deloop_slice(swap_action(), 1).equiv, lambda: random_param_bundle(3)):
        e = make()
        want_classes = equivalence_classes_all_pairs(make())
        items = sorted(e.c.morphisms)
        monkeypatch.setattr(e.d.skeleton, "rows", CountedRows(e.d.skeleton.rows))
        for m in items:
            for mt in items:
                equivalence._side_search(e, m, mt)
        reads.clear()
        assert equivalence_classes(e) == want_classes
        assert reads == []


def _outcome(call):
    try:
        return "returns", call()
    except MorpheqError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("make", [
    lambda: cli._build_equiv(json.loads((Path(__file__).parents[1] / "instances" / "arrow_equiv.json").read_text())),
    lambda: deloop_slice(swap_action(), 1),
], ids=["arrow_equiv", "swap-on-3 at L=1"])
@pytest.mark.parametrize("k", [["x"], "zzz"], ids=["unhashable", "unknown"])
def test_lookups_answer_an_unhashable_id_as_an_unknown_one(make, k):
    made = make()
    e = getattr(made, "equiv", made)
    c, d = e.c, e.d
    f = c.id_of(min(c.objects))
    g, obj = e.sigma(f), c.dom(f)
    morphism, obj_named = (UnknownId, f"unknown morphism {k!r}"), (UnknownId, f"unknown object {k!r}")
    cases = [
        (lambda: c.id_of(k), obj_named),
        (lambda: d.id_one(k), obj_named),
        (lambda: c.hom(k, obj), ("returns", ())),
        (lambda: c.hom(obj, k), ("returns", ())),
        (lambda: c.compose(k, f), morphism),
        (lambda: c.compose(f, k), morphism),
        (lambda: d.linked_to(k), ("returns", frozenset())),
        (lambda: d.cells_between(k, g), ("returns", ())),
        (lambda: d.cells_between(g, k), ("returns", ())),
        (lambda: e.sigma(k), morphism),
        (lambda: e.tau1(k), morphism),
        (lambda: e.tau2(k), morphism),
    ]
    if made is not e:  # the slice's action and group
        a = made.action
        cases += [
            (lambda: a.group.mul(k, "g0"), (UnknownElement, f"({k!r}, 'g0') not in multiplication table")),
            (lambda: a.group.mul("g0", k), (UnknownElement, f"('g0', {k!r}) not in multiplication table")),
            (lambda: a.act(k, "a"), (UnknownElement, f"({k!r}, 'a') not in action table")),
            (lambda: a.act("g0", k), (UnknownElement, f"('g0', {k!r}) not in action table")),
            (lambda: a.transporters(k, "a"), ("returns", ())),
            (lambda: a.transporters("a", k), ("returns", ())),
        ]
    for i, (call, want) in enumerate(cases):
        assert _outcome(call) == want, i
    # asked twice, the memoised lookups answer alike
    assert (d.linked_to(k), d.cells_between(g, k)) == (frozenset(), ())


def test_classes_make_no_pair_search(monkeypatch):
    e = deloop_slice(regular_action(3), 2).equiv
    want = equivalence_classes_all_pairs(e)
    side_search = equivalence._side_search
    calls = []

    def counted(*args):
        calls.append(args)
        return side_search(*args)

    monkeypatch.setattr(equivalence, "_side_search", counted)
    assert equivalence_classes(e) == want
    assert calls == []


def test_classes_and_search_share_rows_and_sides_without_leaks():
    # one bundle serves both callers, which share its rows and sides: the
    # sweep first and then every ordered pair, and the other way round, each
    # on a fresh bundle, against answers taken on a third one
    # (maker, key of the slice's kept scan or None)
    makers = [(lambda seed=seed: random_equiv_instance(seed), None) for seed in range(40)]
    makers += [(lambda seed=seed: random_param_bundle(seed), None) for seed in range(20)]
    makers += [(lambda make=make, bound=bound: deloop_slice(make(), bound).equiv, (bound, make))
               for make in (swap_action, three_pairs_c2) for bound in (1, 2)]
    for make, scan_key in makers:
        e = make()
        items = sorted(e.c.morphisms)
        want_classes = equivalence_classes_all_pairs(e)
        if len(items) < 100:
            sides = slice_side_scans(*scan_key) if scan_key else side_search_scans(e)
        else:  # c2-three-pairs at L = 2: 67,600 pairs, so the scan checks every 100th hit
            sides = {(m, mt): equivalence._side_search(e, m, mt) for m in items for mt in items}
            hits = [(pair, got) for pair, got in sides.items() if got is not None]
            for (m, mt), got in hits[::100]:
                assert side_search_scan(e, m, mt) == got, (m, mt)
        for classes_first in (True, False):
            shared = make()
            if classes_first:
                assert equivalence_classes(shared) == want_classes
            for m, mt in sides:
                assert are_equivalent(shared, m, mt) == are_equivalent_scan(sides, m, mt), (m, mt)
            assert equivalence_classes(shared) == want_classes


def test_classes_are_a_partition():
    for seed in range(12):
        e = random_equiv_instance(seed)
        blocks = equivalence_classes(e)
        flat = [m for b in blocks for m in b]
        assert sorted(flat) == sorted(e.c.morphisms)
        assert len(flat) == len(set(flat))


# ------------------------------------------------------ parameter checking


def test_sigma_need_not_be_a_functor():
    e = walking_pair()
    c, d = e.c, e.d
    omap = {"A": "A", "B": "B"}
    swapped = dict({m: m for m in c.morphisms}, m="mt", mt="m")
    sigma = MorphismFunction(c, d, omap, swapped)
    ident = {m: m for m in c.morphisms}
    e2 = EquivData(c, d, sigma,
                   FunctorData(c, d, omap, ident), FunctorData(c, d, omap, ident))
    ok, w = are_equivalent(e2, "m", "mt")
    assert ok
    assert verify_witness(e2, "m", "mt", w)


def test_parameters_must_share_object_map():
    e = walking_pair()
    c, d = e.c, e.d
    ident = {m: m for m in c.morphisms}
    flip_o = {"A": "B", "B": "A"}
    flip_m = {"idA": "idB", "idB": "idA", "m": "m", "mt": "mt"}
    with pytest.raises(InvalidInstance) as exc:
        EquivData(c, d, MorphismFunction(c, d, {"A": "A", "B": "B"}, ident),
                  FunctorData(c, d, flip_o, flip_m, validate=False),
                  FunctorData(c, d, {"A": "A", "B": "B"}, ident))
    assert any(v.code == "object-map-disagree" for v in exc.value.violations)


def test_parameters_must_target_the_given_pair():
    e = walking_pair()
    other = walking_pair()
    with pytest.raises(InvalidInstance) as exc:
        EquivData(e.c, e.d, other.sigma, e.tau1, e.tau2)
    assert any(v.code == "wrong-ends" for v in exc.value.violations)


def test_violations_match_what_the_constructor_raises():
    e = walking_pair()
    c, d = e.c, e.d
    ident = {m: m for m in c.morphisms}
    omap = {"A": "A", "B": "B"}
    flip = FunctorData(c, d, {"A": "B", "B": "A"},
                       {"idA": "idB", "idB": "idA", "m": "m", "mt": "mt"}, validate=False)
    broken = [
        (MorphismFunction(c, d, omap, ident), flip, FunctorData(c, d, omap, ident)),
        (walking_pair().sigma, e.tau1, e.tau2),
    ]
    for parts in broken:
        with pytest.raises(InvalidInstance) as exc:
            EquivData(c, d, *parts)
        assert EquivData(c, d, *parts, validate=False).violations() == exc.value.violations
    assert EquivData(c, d, e.sigma, e.tau1, e.tau2, validate=False).violations() == []


def test_composite_rejects_comparison_morphisms_off_the_ends_of_m():
    e = walking_pair()
    assert e.composite("idB", "m", "idA") == "m"
    with pytest.raises(NotComposable):
        e.composite("idA", "m", "idA")  # u1 must start at cod(m) = B
    with pytest.raises(NotComposable):
        e.composite("idB", "m", "idB")  # u2 must end at dom(m) = A


@pytest.mark.parametrize("name, cat", [
    *((f"T{n}", transformation_monoid(n)) for n in (1, 2, 3)),
    ("sets of size 1-3", finite_sets((1, 2, 3))),
    ("T4", transformation_monoid(4)),
    *((f"M{n}(GF(2))", matrix_monoid(n)) for n in (1, 2)),
])
def test_green_j_classes_are_the_rank_classes(name, cat):
    # with only identity 2-cells and identity parameters the relation is
    # Green's J-relation, whose classes in T_n and in the maps between
    # nonempty finite sets (multi-object, so the rows are partial) are the
    # maps of one image size, and in M_n(GF(2)) the matrices of one rank
    # (Howie, Fundamentals of Semigroup Theory, 1995)
    rank = matrix_rank if name.startswith("M") else map_rank
    e = locally_discrete_bundle(cat)  # validated, so the laws are checked too
    by_rank = {}
    for m in sorted(cat.morphisms):
        by_rank.setdefault(rank(m), []).append(m)
    classes = equivalence_classes(e)
    assert classes == sorted(by_rank.values())
    if len(cat.morphisms) <= 64:
        pairs = [(m, mt) for m in cat.morphisms for mt in cat.morphisms]
    else:  # T_4's 65,536 ordered pairs take about 13 s: each map against the least of each rank
        least = [block[0] for block in classes]
        pairs = [pair for m in cat.morphisms for r in least for pair in ((m, r), (r, m))]
    for m, mt in pairs:
        ok, w = are_equivalent(e, m, mt)
        assert ok == (rank(m) == rank(mt))
        if ok:
            assert verify_witness(e, m, mt, w)


# the keys of Green's R- and L-classes: with tau1 constant a witness is
# m . u2 = mt both ways, with tau2 constant u1 . m = mt both ways
ONE_SIDED_KEYS = {"T": (map_image, map_kernel), "M": (matrix_column_space, matrix_row_space)}


def _partition(items, key):
    by_key = {}
    for m in sorted(items):
        by_key.setdefault(key(m), []).append(m)
    return sorted(by_key.values())


@pytest.mark.parametrize("name, cat", [
    *((f"T{n}", transformation_monoid(n)) for n in (1, 2, 3, 4)),
    *((f"M{n}(GF(2))", matrix_monoid(n)) for n in (1, 2)),
])
def test_one_sided_classes_are_greens_r_and_l_classes(name, cat):
    # equal image and equal kernel in T_n, equal column space and equal
    # row space in M_n(GF(2)) (Howie, Fundamentals of Semigroup Theory, 1995)
    for side, key in zip(("tau1", "tau2"), ONE_SIDED_KEYS[name[0]]):
        e = one_sided_bundle(cat, side)  # validated, so the laws are checked too
        assert equivalence_classes(e) == _partition(cat.morphisms, key), side


@pytest.mark.parametrize("name, cat", [("T3", transformation_monoid(3)), ("M2(GF(2))", matrix_monoid(2))])
def test_one_sided_search_matches_the_oracle_and_meets_in_the_h_classes(name, cat):
    r_key, l_key = ONE_SIDED_KEYS[name[0]]
    bundles = [one_sided_bundle(cat, side) for side in ("tau1", "tau2")]
    for e in bundles:
        assert equivalence_classes(e) == equivalence_classes_all_pairs(e)
    for m in cat.morphisms:
        for mt in cat.morphisms:
            both = True
            for e in bundles:
                ok, w = are_equivalent(e, m, mt)
                if ok:
                    assert verify_witness(e, m, mt, w)
                both = both and ok
            # R and L together are Green's H-relation
            assert both == (r_key(m) == r_key(mt) and l_key(m) == l_key(mt)), (m, mt)
