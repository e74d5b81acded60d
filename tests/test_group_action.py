import pytest

from morpheq import (
    FiniteGroup,
    GroupAction,
    chain_two_cells,
    deloop_slice,
    delooped_equivalent,
    orbit_equivalent,
    orbit_partition,
)
from morpheq.catkernel import _generators
from morpheq.errors import InvalidInstance, InvalidParameter, UnknownElement

from instance_gen import (
    fixed_actions,
    parity_swap_c6,
    random_action,
    regular_action,
    swap_action,
    trivial_action,
)
from oracles import slice_cells_pairwise


# ------------------------------------------------------------------ groups


def test_cyclic_group_is_lawful():
    g = FiniteGroup.cyclic(4)
    assert g.validate() == []
    assert g.mul("g1", "g3") == "g0"
    assert g.inverse_of["g3"] == "g1"


def test_broken_multiplication_reported():
    els = ["g0", "g1"]
    mul = {(a, b): "g0" for a in els for b in els}  # g1*g0 = g0 breaks the unit
    g = FiniteGroup(els, mul, "g0", validate=False)
    assert {v.code for v in g.validate()} == {"group-unit"}
    with pytest.raises(InvalidInstance):
        FiniteGroup(els, mul, "g0")


def test_monoid_without_inverses_rejected():
    els = ["e", "z"]
    mul = {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z", ("z", "z"): "z"}
    with pytest.raises(InvalidInstance) as exc:
        FiniteGroup(els, mul, "e")
    assert any(v.code == "group-inverse" for v in exc.value.violations)


def test_unknown_lookups_raise():
    a = swap_action()
    with pytest.raises(UnknownElement):
        a.group.mul("g0", "nope")
    with pytest.raises(UnknownElement):
        a.act("g0", "d")
    with pytest.raises(UnknownElement):
        orbit_equivalent(a, "a", "d")


def test_partial_action_table_reported():
    g = FiniteGroup.cyclic(2)
    act = {("g0", "a"): "a", ("g1", "a"): "a"}
    broken = GroupAction(g, ["a", "b"], act, validate=False)
    assert {v.code for v in broken.validate()} == {"action-totality"}


# ------------------------------------------------------------------ orbits


def test_orbit_equivalence_and_least_transporter():
    a = swap_action()
    assert orbit_equivalent(a, "a", "b") == (True, "g1")
    assert orbit_equivalent(a, "b", "a") == (True, "g1")
    assert orbit_equivalent(a, "a", "a") == (True, "g0")
    assert orbit_equivalent(a, "a", "c") == (False, None)
    assert orbit_partition(a) == [["a", "b"], ["c"]]


def test_transporters_follow_element_order():
    t = trivial_action(3, ["p", "q"])
    assert t.transporters("p", "p") == ("g0", "g1", "g2")
    assert t.transporters("p", "q") == ()
    r = regular_action(3)
    assert r.transporters("x0", "x2") == ("g2",)
    assert orbit_partition(r) == [["x0", "x1", "x2"]]


# ------------------------------------------------------------- chain cells


def test_chain_cells_are_pointwise_transports():
    a = swap_action()
    cells = chain_two_cells(a, ("a", "c"), ("b", "c"))
    assert [c.labels for c in cells] == [("g1", "g0"), ("g1", "g1")]
    assert chain_two_cells(a, ("a",), ("a", "a")) == []  # length mismatch
    assert chain_two_cells(a, ("a", "c"), ("c", "a")) == []  # empty pool
    assert [c.labels for c in chain_two_cells(a, (), ())] == [()]


def test_chain_cell_label_order_is_lexicographic_in_element_order():
    t = trivial_action(2, ["p"])
    cells = chain_two_cells(t, ("p", "p"), ("p", "p"))
    assert [c.labels for c in cells] == [
        ("g0", "g0"), ("g0", "g1"), ("g1", "g0"), ("g1", "g1"),
    ]


# ------------------------------------------------------------ the delooping


def test_slice_tables_are_lawful_across_bounds():
    a = swap_action()
    for bound in (0, 1):
        s = deloop_slice(a, bound)
        assert s.category.validate() == []
        assert s.two_category.validate() == []
    small = GroupAction(
        FiniteGroup.cyclic(2),
        ["a", "b"],
        {("g0", "a"): "a", ("g0", "b"): "b", ("g1", "a"): "b", ("g1", "b"): "a"},
    )
    s = deloop_slice(small, 2)
    assert s.two_category.validate() == []
    s = deloop_slice(regular_action(4), 1)  # 274 2-cells, 4,162 vertical composites
    assert s.two_category.validate() == []


def test_slice_at_the_largest_chain_bound_validates_in_full():
    # 122 1-cells and 1,556 2-cells; the schema allows max_chain_length 3
    d = deloop_slice(swap_action(), 3).two_category
    assert d.validate() == []


def test_slice_one_cells_are_generated_by_the_letters():
    # every longer word, and the overflow cell past the bound, is a composite
    # of letters, so validate() checks the cubic laws of the 1-cells at the
    # letters alone (41 1-cells at bound 2)
    for bound in (0, 1, 2):
        c = deloop_slice(swap_action(), bound).category
        dom = {m: a.dom for m, a in c.morphisms.items()}
        assert _generators(c.rows, dom, dom, c.identity.values()) == {"[a]", "[b]", "[c]"}


def test_slice_cells_match_the_pairwise_enumeration():
    # cell ids name witnesses, and cell order sets the order of validate() reports
    cases = [(act, bound) for _, act in fixed_actions() for bound in (0, 1, 2)]
    cases.append((swap_action(), 3))
    for seed in range(20):
        act = random_action(seed)
        cases.append((act, 2 if len(act.group.elements) * len(act.carrier) <= 12 else 1))
    for act, bound in cases:
        d = deloop_slice(act, bound).two_category
        cells, id2 = slice_cells_pairwise(act, bound)
        assert [(c.id, c.src, c.tgt) for c in d.two_cells.values()] == cells
        assert list(d.identity2.items()) == list(id2.items())


def test_slice_composition_overflows_past_the_bound():
    s = deloop_slice(swap_action(), 0)
    c = s.category
    assert c.compose("[a]", "[b]") == "!overflow"
    assert c.compose("!overflow", "[a]") == "!overflow"
    assert c.compose("[a]", "!overflow") == "!overflow"
    assert c.compose("[]", "[a]") == "[a]"
    # whiskering a genuine cell past the bound hits the overflow identity
    d = s.two_category
    over = "!overflow>!overflow#"
    assert d.whisker_left("[a]", "[a]>[b]#g1") == over
    assert d.vcomp(over, over) == over


def test_embed_letter_round_trip():
    s = deloop_slice(swap_action(), 1)
    for x in "abc":
        assert s.letter_of(s.embed(x)) == x
    assert s.letter_of("[a,b]") is None
    with pytest.raises(UnknownElement):
        s.embed("d")


def test_reserved_characters_rejected():
    g = FiniteGroup.cyclic(2)
    act = {("g0", "x[0"): "x[0", ("g1", "x[0"): "x[0"}
    bad = GroupAction(g, ["x[0"], act)
    with pytest.raises(InvalidParameter):
        deloop_slice(bad, 0)
    with pytest.raises(InvalidParameter):
        deloop_slice(swap_action(), -1)


def test_delooped_matches_orbits_everywhere():
    actions = (swap_action(), regular_action(3), trivial_action(2, ["p", "q", "r"]), parity_swap_c6())
    for a in actions:
        want = {
            (x, y): orbit_equivalent(a, x, y)[0]
            for x in a.carrier for y in a.carrier
        }
        for bound in (0, 1, 2, 3):  # 3 is the schema's largest chain bound
            for (x, y), expect in want.items():
                ok, w = delooped_equivalent(a, x, y, bound)
                assert ok is expect, (x, y, bound)
                if ok:
                    assert w is not None


def test_delooped_witness_uses_empty_comparison_chains():
    a = swap_action()
    ok, w = delooped_equivalent(a, "a", "b", 1)
    assert ok
    assert (w.u1, w.u2, w.v1, w.v2) == ("[]", "[]", "[]", "[]")
    assert w.phi == "[a]>[b]#g1"
    assert w.psi == "[b]>[a]#g1"


def test_delooped_verdicts_are_bound_independent_and_deterministic():
    a = regular_action(3)
    first = {
        (x, y): delooped_equivalent(a, x, y, 0)
        for x in a.carrier for y in a.carrier
    }
    for bound in (1, 2):
        for (x, y), (ok, w) in first.items():
            ok2, w2 = delooped_equivalent(a, x, y, bound)
            assert ok2 is ok
            assert w2 == w  # same lex-first witness, bound notwithstanding
    # a rebuilt action gives the same thing
    again = regular_action(3)
    for (x, y), got in first.items():
        assert delooped_equivalent(again, x, y, 0) == got


def test_search_leaves_the_two_cell_tables_unbuilt():
    a = swap_action()
    d = deloop_slice(a, 1).two_category
    for x in a.carrier:
        for y in a.carrier:
            delooped_equivalent(a, x, y, 1)
    lazy = {"vcomp_table", "wl_table", "wr_table"}
    assert not lazy & set(vars(d))
    assert d.validate() == []
    assert lazy <= set(vars(d))  # built once, then plain attributes


def test_slice_is_cached_per_action():
    a = swap_action()
    assert deloop_slice(a, 1) is deloop_slice(a, 1)
    assert deloop_slice(a, 0) is not deloop_slice(a, 1)
