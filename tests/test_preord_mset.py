import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from morpheq import (
    CentralCell,
    MonotoneMap,
    PreordObject,
    as_fraction,
    check_interchange,
    check_suite,
    compose_cells_horizontal,
    compose_cells_vertical,
    compose_maps,
    identity_cell,
    identity_map,
    is_two_cell,
    scalar_map,
)
from morpheq.errors import (
    InvalidCell,
    InvalidInstance,
    NotComposable,
    NotParallel,
    UnknownElement,
)

from oracles import check_suite_scan


def window(name, values):
    return PreordObject(name, [Fraction(v) for v in values])


# ----------------------------------------------------------------- scalars


def test_as_fraction_parsing():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)
    for bad in (0, -1, "-2/3"):
        with pytest.raises(ValueError):
            as_fraction(bad)


# ----------------------------------------------------------------- objects


def test_numeric_window_builds_its_own_order():
    x = window("X", [1, 2, 4, 8])
    assert x.numeric
    assert x.le(Fraction(2), Fraction(8))
    assert not x.le(Fraction(8), Fraction(2))
    assert x.scale(Fraction(3), Fraction(2)) == Fraction(6)
    assert x.validate() == []


def test_opaque_carrier_needs_explicit_order():
    with pytest.raises(ValueError, match="^opaque carriers need an explicit order$"):
        PreordObject("W", ["lo", "hi"], act={})


def test_scalar_maps_need_numeric_carriers():
    w = PreordObject("W", ["lo", "hi"], leq=[("lo", "lo"), ("lo", "hi"), ("hi", "hi")], act={})
    with pytest.raises(ValueError, match="^scalar maps need numeric carriers$"):
        scalar_map("twice", 2, w, w)


def test_broken_orders_reported():
    # missing reflexive pair
    broken = PreordObject("W", ["lo", "hi"], leq=[("lo", "hi"), ("hi", "hi")],
                          generators=(), act={}, validate=False)
    assert any(v.code == "order-reflexive" for v in broken.validate())
    # not transitive
    broken = PreordObject(
        "W", ["a", "b", "c"],
        leq=[("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        generators=(), act={}, validate=False)
    assert any(v.code == "order-transitive" for v in broken.validate())
    # numeric pairs must agree with arithmetic
    broken = PreordObject("X", [1, 2], leq=[(1, 1), (2, 2), (2, 1)], validate=False)
    assert any(v.code == "order-numeric" for v in broken.validate())


def test_opaque_action_factors_over_generators():
    w = PreordObject(
        "W", ["lo", "mid", "hi"],
        leq=[("lo", "lo"), ("mid", "mid"), ("hi", "hi"),
             ("lo", "mid"), ("mid", "hi"), ("lo", "hi")],
        generators=(2, 3),
        act={(2, "lo"): "mid", (2, "mid"): "hi", (3, "lo"): "lo",
             (3, "mid"): "mid", (3, "hi"): "hi"},
    )
    assert w.scale(Fraction(4), "lo") == "hi"       # 4 = 2*2
    assert w.scale(Fraction(12), "lo") == "hi"      # 12 = 2*2*3, 3 acts as id
    assert w.scale(Fraction(1), "hi") == "hi"
    with pytest.raises(UnknownElement):
        w.scale(Fraction(5), "lo")   # 5 has no factorization over {2, 3}
    with pytest.raises(UnknownElement):
        w.scale(Fraction(2), "hi")   # table has no entry for (2, hi)


def test_non_monotone_generator_reported():
    broken = PreordObject(
        "W", ["lo", "hi"],
        leq=[("lo", "lo"), ("hi", "hi"), ("lo", "hi")],
        generators=(2,),
        act={(2, "lo"): "hi", (2, "hi"): "lo"},
        validate=False,
    )
    assert any(v.code == "action-monotone" for v in broken.validate())


# -------------------------------------------------------------------- maps


def test_scalar_maps_are_monotone_and_equivariant():
    x = window("X", [1, 2, 4, 8])
    y = window("Y", [1, 2, 4, 8, 16, 32])
    f = scalar_map("times4", 4, x, y)
    assert f(Fraction(2)) == Fraction(8)
    assert f.validate() == []
    with pytest.raises(UnknownElement):
        scalar_map("times3", 3, x, y)  # 3*1 lands outside the dyadic window
    with pytest.raises(UnknownElement):
        f(Fraction(3))


def test_non_monotone_map_rejected():
    x = window("X", [1, 2])
    with pytest.raises(InvalidInstance) as exc:
        MonotoneMap("bad", x, x, {Fraction(1): Fraction(2), Fraction(2): Fraction(1)})
    assert any(v.code == "map-monotone" for v in exc.value.violations)


LOW_HIGH = [("lo", "lo"), ("hi", "hi"), ("lo", "hi")]


def _order_off_the_carrier(validate):
    return PreordObject("W", ["lo", "hi"], leq=[("lo", "lo"), ("hi", "hi"), ("lo", "zz")], act={},
                        validate=validate)


def _action_off_the_carrier(validate):
    return PreordObject("W", ["lo", "hi"], leq=LOW_HIGH, generators=(2,),
                        act={(2, "lo"): "zz", (2, "hi"): "hi"}, validate=validate)


def _swaps_that_do_not_commute(validate):
    # 2 swaps a and b, 3 swaps b and c
    act = {(2, "a"): "b", (2, "b"): "a", (2, "c"): "c", (3, "a"): "a", (3, "b"): "c", (3, "c"): "b"}
    return PreordObject("W", ["a", "b", "c"], leq=[(x, x) for x in "abc"], generators=(2, 3), act=act,
                        validate=validate)


def _partial_map(validate):
    # 2 goes outside Y and 4 goes nowhere
    return MonotoneMap("f", window("X", [1, 2, 4]), window("Y", [1, 2]), {1: 1, 2: 4}, validate=validate)


def _map_off_the_action(validate):
    w = PreordObject("W", ["lo", "hi"], leq=LOW_HIGH, generators=(2,), act={(2, "lo"): "hi", (2, "hi"): "hi"})
    return MonotoneMap("f", w, w, {"lo": "lo", "hi": "lo"}, validate=validate)


@pytest.mark.parametrize("build, report", [
    (_order_off_the_carrier, [("order-carrier", "(lo, zz)")]),
    (_action_off_the_carrier, [("action-carrier", "(2, lo)"), ("action-monotone", "(2, lo, lo)"),
                               ("action-monotone", "(2, lo, hi)")]),
    (_swaps_that_do_not_commute,
     [("action-commute", f"({g}, {h}, {x})") for g, h in ((2, 3), (3, 2)) for x in "abc"]),
    (_partial_map, [("map-totality", "(f, 2)"), ("map-totality", "(f, 4)")]),
    (_map_off_the_action, [("map-equivariant", "(f, 2, lo)"), ("map-equivariant", "(f, 2, hi)")]),
])
def test_broken_carriers_and_maps_are_reported_and_rejected(build, report):
    assert [(v.code, v.detail) for v in build(False).validate()] == report
    with pytest.raises(InvalidInstance) as exc:
        build(True)
    assert [(v.code, v.detail) for v in exc.value.violations] == report


def test_compose_maps_requires_matching_middle():
    x = window("X", [1, 2])
    y = window("Y", [1, 2, 4])
    f = scalar_map("f", 2, x, y)
    with pytest.raises(NotComposable):
        compose_maps(f, f)
    g = scalar_map("g", 2, y, window("Z", [1, 2, 4, 8]))
    gf = compose_maps(g, f)
    assert gf(Fraction(1)) == Fraction(4)


# ------------------------------------------------------------------- cells


def test_identity_scalar_is_always_a_cell():
    x = window("X", [1, 2, 4, 8])
    y = window("Y", [1, 2, 4, 8, 16, 32])
    for f in (identity_map(x), scalar_map("f", 4, x, y)):
        assert is_two_cell(1, f, f)
        assert identity_cell(f).value == 1


def test_trivial_action_chain():
    # two-point chain whose sampled scalar acts as the identity: the cell
    # inequality collapses to monotonicity, so 1 (and indeed 7) is a cell
    w = PreordObject(
        "W", ["x", "y"],
        leq=[("x", "x"), ("y", "y"), ("x", "y")],
        generators=(7,),
        act={(7, "x"): "x", (7, "y"): "y"},
    )
    f = identity_map(w)
    assert is_two_cell(1, f, f)
    assert is_two_cell(7, f, f)


def test_numeric_cell_window():
    x = window("X", [1, 2, 4, 8])
    y = window("Y", [1, 2, 4, 8, 16, 32])
    f = scalar_map("times4", 4, x, y)
    g = scalar_map("times2", 2, x, y)
    assert is_two_cell(2, f, g)
    assert not is_two_cell(3, f, g)
    assert is_two_cell("1/2", g, f)
    with pytest.raises(InvalidCell):
        CentralCell(3, f, g)


def test_not_parallel_rejected():
    x = window("X", [1, 2])
    y = window("Y", [1, 2, 4])
    f = scalar_map("f", 2, x, y)
    with pytest.raises(NotParallel):
        is_two_cell(1, f, identity_map(x))


def test_vertical_composition_multiplies():
    x = window("X", [1, 2, 4])
    y = window("Y", [1, 2, 4, 8, 16, 32])
    f = scalar_map("times8", 8, x, y)
    g = scalar_map("times4", 4, x, y)
    h = scalar_map("times2", 2, x, y)
    c = CentralCell(2, f, g)
    d = CentralCell(2, g, h)
    out = compose_cells_vertical(d, c)
    assert out.value == 4
    assert out.src is f and out.tgt is h
    assert is_two_cell(4, f, h)
    with pytest.raises(NotComposable):
        compose_cells_vertical(c, d)


def test_vertical_unit_law():
    x = window("X", [1, 2, 4])
    y = window("Y", [1, 2, 4, 8, 16, 32])
    f = scalar_map("times4", 4, x, y)
    g = scalar_map("times2", 2, x, y)
    c = CentralCell(2, f, g)
    left = compose_cells_vertical(c, identity_cell(f))
    right = compose_cells_vertical(identity_cell(g), c)
    for out in (left, right):
        assert out.value == c.value
        assert out.src.equals(c.src) and out.tgt.equals(c.tgt)


def interchange_square():
    """Two vertically composable cells over X -> Y beside two over Y -> Z."""
    x = window("X", [1, 2])
    y = window("Y", [1, 2, 3, 6, 12])
    zvals = sorted({a * b for a in (1, 7, 35) for b in (1, 2, 3, 6, 12)})
    z = window("Z", zvals)
    f = scalar_map("f", 6, x, y)
    g = scalar_map("g", 3, x, y)
    h = scalar_map("h", 1, x, y)
    p = scalar_map("p", 35, y, z)
    q = scalar_map("q", 7, y, z)
    r = scalar_map("r", 1, y, z)
    c = CentralCell(2, f, g)
    c2 = CentralCell(3, g, h)
    d = CentralCell(5, p, q)
    d2 = CentralCell(7, q, r)
    return c, c2, d, d2


def test_horizontal_composition_multiplies():
    c, c2, d, d2 = interchange_square()
    out = compose_cells_horizontal(d, c)
    assert out.value == 10
    assert out.src.table[Fraction(1)] == Fraction(210)  # p.f = times 210
    with pytest.raises(NotComposable):
        compose_cells_horizontal(c, d)


def test_interchange_example_values():
    c, c2, d, d2 = interchange_square()
    assert check_interchange(c, c2, d, d2)
    both = compose_cells_horizontal(
        compose_cells_vertical(d2, d), compose_cells_vertical(c2, c)
    )
    assert both.value == 210


def collapsing_square(scalar_c, scalar_c2, scalar_d, scalar_d2, f_to_f=False):
    """A square over X -> Y -> Z whose map p collapses Y; c: f => g (or
    f => f), c2: g => g (or f => g), and d, d2: p => p."""
    x, y, z = window("X", [1]), window("Y", [1, 2]), window("Z", [1, 2, 4])
    f = MonotoneMap("f", x, y, {1: 2})
    g = MonotoneMap("g", x, y, {1: 1})
    p = MonotoneMap("p", y, z, {1: 1, 2: 1})
    mid = f if f_to_f else g
    return (CentralCell(scalar_c, f, mid), CentralCell(scalar_c2, mid, g),
            CentralCell(scalar_d, p, p), CentralCell(scalar_d2, p, p))


@pytest.mark.parametrize("square", [
    collapsing_square(2, "1/2", 1, "1/2"),  # d * c = 2: p.f => p.g is no cell
    collapsing_square("1/2", 2, "1/2", 1, f_to_f=True),  # d2 * c2 = 2: p.f => p.g is no cell
])
def test_interchange_builds_both_horizontal_composites_of_the_second_order(square):
    # (d2 . d) * (c2 . c) = 1/2: p.f => p.g is a cell, one of d2 * c2 and
    # d * c is not
    c, c2, d, d2 = square
    outer = compose_cells_horizontal(compose_cells_vertical(d2, d), compose_cells_vertical(c2, c))
    assert outer.value == Fraction(1, 2)
    with pytest.raises(InvalidCell):
        check_interchange(c, c2, d, d2)


def test_interchange_all_units():
    x = window("X", [1, 2])
    f = identity_map(x)
    one = identity_cell(f)
    assert check_interchange(one, one, one, one)


def random_suite(seed):
    """Cells between random monotone maps X -> Y -> Z, named in draw order;
    some of their horizontal composites are not cells."""
    rng = random.Random(seed)
    x, y, z = window("X", [1, 2]), window("Y", [1, 2, 3]), window("Z", [1, 2, 4, 8])
    cells = {}
    for dom, cod in ((x, y), (y, z)):
        maps = [MonotoneMap(f"{dom.name}{cod.name}{i}", dom, cod,
                            dict(zip(dom.carrier, sorted(rng.choice(cod.carrier) for _ in dom.carrier))))
                for i in range(3)]
        for f in maps:
            for g in maps:
                for q in ("1/2", 1, 2):
                    if rng.random() < 0.4 and is_two_cell(q, f, g):
                        cells[f"c{len(cells):02}"] = CentralCell(q, f, g)
    return cells


def test_the_suite_check_matches_the_scan_that_builds_every_composite():
    suites = [random_suite(seed) for seed in range(12)]
    suites += [dict(zip(("c", "c2", "d", "d2"), collapsing_square(2, "1/2", 1, "1/2"))),
               dict(zip(("c", "c2", "d", "d2"), collapsing_square("1/2", 2, "1/2", 1, f_to_f=True)))]
    failing = composite_failures = 0
    for cells in suites:
        got = check_suite(cells)
        assert got == check_suite_scan(cells)
        failures, squares, bad = got
        composite_failures += len(failures)
        failing += len(bad)
        # check_interchange is the same rule on one square
        pairs = [(a, b) for a in cells for b in cells
                 if cells[a].tgt.equals(cells[b].src) and ("vertical", a, b) not in failures]
        for a, b in pairs:
            for c, d in pairs:
                if cells[a].src.cod is not cells[c].src.dom:
                    continue
                squares -= 1
                if [a, b, c, d] in bad:
                    with pytest.raises(InvalidCell):
                        check_interchange(cells[a], cells[b], cells[c], cells[d])
                else:
                    assert check_interchange(cells[a], cells[b], cells[c], cells[d])
        assert squares == 0
    assert composite_failures > 0 and failing > 0


# -------------------------------------------------- randomized law checks


rates = st.integers(min_value=1, max_value=10)


@given(rates, rates, rates, rates, rates, rates)
def test_interchange_holds_for_scalar_squares(b1, b2, b3, e1, e2, e3):
    # left column of maps X -> Y at rates a1 >= a2 >= a3 built from the
    # positive steps b*, right column Y -> Z likewise from e*
    a3, a2 = Fraction(b3), Fraction(b3 * b2)
    a1 = Fraction(b3 * b2 * b1)
    r3, r2 = Fraction(e3), Fraction(e3 * e2)
    r1 = Fraction(e3 * e2 * e1)
    x = window("X", [1, 2])
    yvals = sorted({a * v for a in (a1, a2, a3) for v in (1, 2)})
    y = window("Y", yvals)
    zvals = sorted({r * v for r in (r1, r2, r3) for v in yvals})
    z = window("Z", zvals)
    f = scalar_map("f", a1, x, y)
    g = scalar_map("g", a2, x, y)
    h = scalar_map("h", a3, x, y)
    p = scalar_map("p", r1, y, z)
    q = scalar_map("q", r2, y, z)
    r = scalar_map("r", r3, y, z)
    c = CentralCell(Fraction(b1), f, g)        # the sharpest valid scalar
    c2 = CentralCell(Fraction(b2), g, h)
    d = CentralCell(Fraction(e1), p, q)
    d2 = CentralCell(Fraction(e2), q, r)
    assert check_interchange(c, c2, d, d2)
    merged = compose_cells_horizontal(
        compose_cells_vertical(d2, d), compose_cells_vertical(c2, c)
    )
    assert merged.value == Fraction(b1 * b2) * Fraction(e1 * e2)


@given(rates, rates, st.integers(min_value=1, max_value=5))
def test_cell_scalars_are_capped_by_the_rate_ratio(num, den, extra):
    a1, a2 = Fraction(num * den), Fraction(den)
    x = window("X", [1, 2])
    yvals = sorted({a * v for a in (a1, a2) for v in (1, 2)})
    y = window("Y", yvals)
    f = scalar_map("f", a1, x, y)
    g = scalar_map("g", a2, x, y)
    cap = a1 / a2
    assert is_two_cell(cap, f, g)
    assert not is_two_cell(cap + extra, f, g)
