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
    derive_witness,
    equivalence_classes,
    verify_witness,
)
from morpheq import equivalence
from morpheq.errors import InvalidInstance, InvalidPremise

from instance_gen import (
    finite_sets,
    locally_discrete_bundle,
    map_rank,
    matrix_monoid,
    matrix_rank,
    random_equiv_instance,
    regular_action,
    swap_action,
    transformation_monoid,
)
from oracles import are_equivalent_scan, equivalence_classes_all_pairs, side_search_scan


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


def test_derive_witness_dispatch():
    e = walking_pair()
    _, w = are_equivalent(e, "m", "mt")
    assert derive_witness(e, "refl", "m") == derive_reflexivity(e, "m")
    assert derive_witness(e, "sym", "m", "mt", w) == derive_symmetry(e, "m", "mt", w)
    assert derive_witness(e, "trans", "m", "mt", "m", w, derive_symmetry(e, "m", "mt", w)) \
        == derive_transitivity(e, "m", "mt", "m", w, derive_symmetry(e, "m", "mt", w))
    with pytest.raises(ValueError):
        derive_witness(e, "cotrans", "m")


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
    bundles = [random_equiv_instance(seed) for seed in range(30)]
    swap = swap_action()
    bundles += [deloop_slice(swap, 1).equiv, deloop_slice(swap, 2).equiv,
                deloop_slice(regular_action(3), 2).equiv]
    for e in bundles:
        assert equivalence_classes(e) == equivalence_classes_all_pairs(e)


def test_indexed_search_matches_the_scan_on_every_ordered_pair():
    bundles = [random_equiv_instance(seed) for seed in range(100)]
    for action in (swap_action(), regular_action(3)):
        bundles += [deloop_slice(action, bound).equiv for bound in (0, 1, 2)]
    cross_boundary_hits = 0
    for e in bundles:
        items = sorted(e.c.morphisms)
        sides = {(m, mt): side_search_scan(e, m, mt) for m in items for mt in items}
        for (m, mt), want in sides.items():
            assert equivalence._side_search(e, m, mt) == want, (m, mt)
            assert are_equivalent(e, m, mt) == are_equivalent_scan(sides, m, mt), (m, mt)
            a, b = e.c.arrow(m), e.c.arrow(mt)
            if want is not None and (a.dom, a.cod) != (b.dom, b.cod):
                cross_boundary_hits += 1
    # the two sides of such a pair read rows over different hom-sets
    assert cross_boundary_hits > 0


def test_classes_search_each_morphism_against_one_member_per_class(monkeypatch):
    e = deloop_slice(regular_action(3), 2).equiv
    calls = []

    def counted(*args):
        calls.append(args)
        return are_equivalent(*args)

    monkeypatch.setattr(equivalence, "are_equivalent", counted)
    blocks = equivalence_classes(e)
    assert len(calls) <= len(e.c.morphisms) * len(blocks)  # 41 * 5


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
