import pytest

from morpheq import (
    Finite2Category,
    FiniteCategory,
    FunctorData,
    GroupAction,
    MorphismFunction,
    deloop_slice,
)
from morpheq.errors import (
    InterchangeViolation,
    InvalidInstance,
    NotComposable,
    UnknownId,
)

from instance_gen import random_equiv_instance


def chain3():
    """A -> B -> C with single generators and their composite."""
    return FiniteCategory(
        ["A", "B", "C"],
        [("idA", "A", "A"), ("idB", "B", "B"), ("idC", "C", "C"),
         ("f", "A", "B"), ("g", "B", "C"), ("gf", "A", "C")],
        {"A": "idA", "B": "idB", "C": "idC"},
        {
            ("idA", "idA"): "idA", ("idB", "idB"): "idB", ("idC", "idC"): "idC",
            ("f", "idA"): "f", ("idB", "f"): "f",
            ("g", "idB"): "g", ("idC", "g"): "g",
            ("gf", "idA"): "gf", ("idC", "gf"): "gf",
            ("g", "f"): "gf",
        },
    )


def walking_pair_two_cat():
    """Parallel pair m, mt: A -> B with an invertible cell between them."""
    compose = {
        ("idA", "idA"): "idA", ("idB", "idB"): "idB",
        ("m", "idA"): "m", ("idB", "m"): "m",
        ("mt", "idA"): "mt", ("idB", "mt"): "mt",
    }
    cells = {"ia": ("idA", "idA"), "ib": ("idB", "idB"), "im": ("m", "m"),
             "imt": ("mt", "mt"), "ab": ("m", "mt"), "ba": ("mt", "m")}
    vcomp = {}
    for f, (fs, ft) in cells.items():
        for s, (ss, st) in cells.items():
            if ft == ss:
                out = next(k for k, (a, b) in cells.items() if (a, b) == (fs, st))
                vcomp[(s, f)] = out
    wl, wr = {}, {}
    dom = {"idA": "A", "idB": "B", "m": "A", "mt": "A"}
    cod = {"idA": "A", "idB": "B", "m": "B", "mt": "B"}
    for a, (s, t) in cells.items():
        for k in dom:
            if dom[k] == cod[s]:
                ks, kt = compose[(k, s)], compose[(k, t)]
                wl[(k, a)] = next(c for c, (x, y) in cells.items() if (x, y) == (ks, kt))
            if cod[k] == dom[s]:
                sk, tk = compose[(s, k)], compose[(t, k)]
                wr[(a, k)] = next(c for c, (x, y) in cells.items() if (x, y) == (sk, tk))
    return Finite2Category(
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


# ---------------------------------------------------------------- categories


def test_compose_unit_law():
    c = chain3()
    assert c.compose("idB", "f") == "f"
    assert c.compose("f", "idA") == "f"


def test_compose_forced_composite():
    assert chain3().compose("g", "f") == "gf"


def test_compose_rejects_mismatched_ends():
    c = chain3()
    with pytest.raises(NotComposable):
        c.compose("f", "g")


def test_compose_unknown_id():
    with pytest.raises(UnknownId):
        chain3().compose("g", "nope")


def test_validate_reports_missing_entry():
    c = chain3()
    table = dict(c.compose_table)
    del table[("g", "f")]
    broken = FiniteCategory(c.objects, [(a.id, a.dom, a.cod) for a in c.morphisms.values()],
                            c.identity, table, validate=False)
    codes = {v.code for v in broken.validate()}
    assert "compose-missing" in codes


def test_validate_reports_broken_unit_and_assoc():
    c = chain3()
    table = dict(c.compose_table)
    table[("idB", "f")] = "mt" if "mt" in c.morphisms else "f"
    # break associativity instead: reroute g.f
    table[("g", "f")] = "f"
    broken = FiniteCategory(c.objects, [(a.id, a.dom, a.cod) for a in c.morphisms.values()],
                            c.identity, table, validate=False)
    codes = {v.code for v in broken.validate()}
    assert codes & {"unit-left", "unit-right", "compose-boundary", "assoc"}


def test_duplicate_morphism_id_rejected():
    with pytest.raises(InvalidInstance):
        FiniteCategory(["A"], [("x", "A", "A"), ("x", "A", "A")], {"A": "x"},
                       {("x", "x"): "x"})


def test_hom_sets_sorted():
    c = chain3()
    assert c.hom("A", "B") == ("f",)
    assert c.hom("A", "C") == ("gf",)
    assert c.hom("C", "A") == ()


# ---------------------------------------------------------------- 2-categories


def test_vcomp_unit_and_forced():
    d = walking_pair_two_cat()
    assert d.vcomp("im", "ba") == "ba"
    assert d.vcomp("ba", "ab") == "im"
    assert d.vcomp("ab", "ba") == "imt"


def test_vcomp_rejects_mismatch():
    d = walking_pair_two_cat()
    with pytest.raises(NotComposable):
        d.vcomp("ab", "ab")


def test_whisker_identity_one_cell_is_trivial():
    d = walking_pair_two_cat()
    assert d.whisker_left("idB", "ab") == "ab"
    assert d.whisker_right("ab", "idA") == "ab"


def test_whisker_of_identity_two_cell():
    d = walking_pair_two_cat()
    # whiskering the identity cell on idA by m gives the identity on m
    assert d.whisker_left("m", "ia") == "im"


def test_hcomp_collapses_to_whiskering():
    d = walking_pair_two_cat()
    assert d.hcomp("ib", "ab") == d.whisker_left("idB", "ab")
    assert d.hcomp("ab", "ia") == d.whisker_right("ab", "idA")


def test_hcomp_identity_cells():
    d = walking_pair_two_cat()
    assert d.hcomp("ib", "im") == "im"


def test_validated_instance_reports_clean():
    assert walking_pair_two_cat().validate() == []


def test_tampered_vcomp_rejected():
    d = walking_pair_two_cat()
    vcomp = {k: v for k, v in d.vcomp_table.items()}
    # ab then ba runs mt => mt, so rerouting it to the m => m identity
    # breaks the boundary of the composite
    vcomp[("ab", "ba")] = "im"
    with pytest.raises(InvalidInstance):
        Finite2Category(
            list(d.objects),
            [(a.id, a.dom, a.cod) for a in d.skeleton.morphisms.values()],
            dict(d.skeleton.identity),
            dict(d.skeleton.compose_table),
            [(c.id, c.src, c.tgt) for c in d.two_cells.values()],
            dict(d.identity2),
            vcomp,
            dict(d.wl_table),
            dict(d.wr_table),
        )


def test_tables_from_a_builder_are_checked_when_first_read():
    d = walking_pair_two_cat()
    vcomp = dict(d.vcomp_table)
    vcomp[("ab", "ba")] = "nope"
    parts = (
        list(d.objects),
        [(a.id, a.dom, a.cod) for a in d.skeleton.morphisms.values()],
        dict(d.skeleton.identity),
        dict(d.skeleton.compose_table),
        [(c.id, c.src, c.tgt) for c in d.two_cells.values()],
        dict(d.identity2),
    )
    built = []

    def tables():
        built.append(True)
        return vcomp, dict(d.wl_table), dict(d.wr_table)

    lazy = Finite2Category(*parts, tables=tables, validate=False)
    assert built == []
    with pytest.raises(UnknownId):
        lazy.whisker_left("idB", "ab")
    assert built == [True]
    with pytest.raises(UnknownId):
        Finite2Category(*parts, vcomp, dict(d.wl_table), dict(d.wr_table), validate=False)


def test_middle_four_violation_detected():
    # the delooped slice of the trivial Z/3 action on one point has parallel
    # 2-cells with commutative labels, so rerouting a single whisker entry
    # keeps every unit, associativity, and order check happy while breaking
    # the middle-four exchange.
    act = GroupAction.from_dict(
        {
            "group": {
                "elements": ["e", "g", "h"],
                "unit": "e",
                "mul": [
                    ["e", "e", "e"], ["e", "g", "g"], ["e", "h", "h"],
                    ["g", "e", "g"], ["g", "g", "h"], ["g", "h", "e"],
                    ["h", "e", "h"], ["h", "g", "e"], ["h", "h", "g"],
                ],
            },
            "carrier": ["pt"],
            "act": [["e", "pt", "pt"], ["g", "pt", "pt"], ["h", "pt", "pt"]],
        }
    )
    d = deloop_slice(act, 1).two_category
    wl = dict(d.wl_table)
    assert wl[("[pt]", "[pt]>[pt]#g")] == "[pt,pt]>[pt,pt]#e,g"
    wl[("[pt]", "[pt]>[pt]#g")] = "[pt,pt]>[pt,pt]#g,g"
    broken = Finite2Category(
        list(d.objects),
        [(a.id, a.dom, a.cod) for a in d.skeleton.morphisms.values()],
        dict(d.skeleton.identity),
        dict(d.skeleton.compose_table),
        [(c.id, c.src, c.tgt) for c in d.two_cells.values()],
        dict(d.identity2),
        dict(d.vcomp_table),
        wl,
        dict(d.wr_table),
        validate=False,
    )
    codes = {v.code for v in broken.validate()}
    assert codes == {"interchange-middle-four"}


def test_random_thin_instances_validate_clean():
    for seed in range(25):
        e = random_equiv_instance(seed)
        assert e.d.validate() == []
        assert e.c.validate() == []


# ---------------------------------------------------------------- functors


def test_functor_laws_checked():
    c = chain3()
    d = walking_pair_two_cat()
    with pytest.raises(UnknownId):
        FunctorData(c, d, {"A": "A", "B": "B", "C": "B"}, {"f": "zzz"})


def test_morphism_function_skips_composition_law():
    d = walking_pair_two_cat()
    c = d.skeleton
    # swapping m and mt is not a functor on the nose but is a legal function
    swap = {"idA": "idA", "idB": "idB", "m": "mt", "mt": "m"}
    MorphismFunction(c, d, {"A": "A", "B": "B"}, swap)


def test_functor_boundary_compatibility_enforced():
    d = walking_pair_two_cat()
    c = d.skeleton
    bad = {"idA": "idA", "idB": "idB", "m": "idA", "mt": "mt"}
    with pytest.raises(InvalidInstance):
        MorphismFunction(c, d, {"A": "A", "B": "B"}, bad)
