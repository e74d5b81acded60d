import itertools
import random
import time

import pytest

from morpheq import (
    DeloopedSlice,
    Finite2Category,
    FiniteGroup,
    GroupAction,
    Violation,
    are_equivalent,
    deloop_slice,
    delooped_equivalent,
    derive_reflexivity,
    derive_symmetry,
    derive_transitivity,
    equivalence,
    equivalence_classes,
    orbit_equivalent,
    orbit_partition,
    verify_witness,
)
from morpheq import catkernel
from morpheq.catkernel import _generators
from morpheq.errors import InvalidInstance, InvalidParameter, NotComposable, UnknownElement, UnknownId

from instance_gen import (
    fixed_actions,
    parity_swap_c6,
    random_action,
    regular_action,
    swap_action,
    three_pairs_c2,
    trivial_action,
)
from oracles import (
    action_report_loops,
    dense_slice_bundle,
    group_report_loops,
    slice_cells_pairwise,
    slice_compose_pairwise,
    tabled_slice_bundle,
)


# ------------------------------------------------------------------ groups


def test_cyclic_group_is_lawful():
    g = FiniteGroup.cyclic(4)
    assert g.validate() == []
    assert g.mul("g1", "g3") == "g0"


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
    inverse = [Violation("group-inverse", "some element has no inverse")]
    with pytest.raises(InvalidInstance) as exc:
        FiniteGroup(els, mul, "e")
    assert exc.value.violations == inverse
    assert FiniteGroup(els, mul, "e", validate=False).validate() == inverse


def test_action_over_a_group_without_its_unit_reports_the_unit():
    # the action's unit law reads the unit's row, which is not there
    group = FiniteGroup(["e"], {("e", "e"): "e"}, "zz", validate=False)
    with pytest.raises(InvalidInstance) as exc:
        GroupAction(group, ["a"], {("e", "a"): "a"})
    assert exc.value.violations == [Violation("group-unit", "unit 'zz' not an element")]


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


@pytest.mark.parametrize("validate", [True, False])
def test_repeated_names_rejected(validate):
    # positions key the law reports and 1-cell ids key the slice, so a
    # repeated name is refused however the tables are checked
    with pytest.raises(InvalidInstance) as exc:
        FiniteGroup(["g0", "g0"], {("g0", "g0"): "g0"}, "g0", validate=validate)
    assert exc.value.violations == [Violation("duplicate-id", "repeated group element")]
    act = {("g0", "a"): "a", ("g1", "a"): "a"}
    with pytest.raises(InvalidInstance) as exc:
        GroupAction(FiniteGroup.cyclic(2), ["a", "a"], act, validate=validate)
    assert exc.value.violations == [Violation("duplicate-id", "repeated carrier element")]


def _symmetric_group(n):
    """S_n as permutations of 0..n-1, (p q)(i) = p(q(i)), with its action on the points."""
    perms = list(itertools.permutations(range(n)))
    name = {p: "s" + "".join(map(str, p)) for p in perms}
    mul = {(name[p], name[q]): name[tuple(p[i] for i in q)] for p in perms for q in perms}
    act = {(name[p], f"x{i}"): f"x{p[i]}" for p in perms for i in range(n)}
    return [name[p] for p in perms], mul, name[tuple(range(n))], [f"x{i}" for i in range(n)], act


def _lawful_tables(rng):
    """(elements, mul, unit, carrier, act) of a lawful action, as plain dicts."""
    pick = rng.randrange(4)
    if pick == 0:
        return _symmetric_group(3)
    if pick == 1:
        a = regular_action(rng.randint(1, 5))
    elif pick == 2:
        a = random_action(rng.randrange(1000))
    else:
        a = trivial_action(rng.randint(1, 4), ["p", "q"])
    g = a.group
    return list(g.elements), dict(g.mul_table), g.unit, list(a.carrier), dict(a.act_table)


def _tamper(rng, table, values, unit, fault):
    """Break ``table`` in place: drop an entry, add entries keyed off the
    table, write a value outside ``values``, move a unit entry, or move any
    entry within ``values``."""
    if fault == "missing":
        del table[rng.choice(list(table))]
    elif fault == "extra":
        for _ in range(rng.randint(1, 2)):
            g, x = rng.choice(list(table))
            table[rng.choice([(g, "zz"), ("zz", x)])] = rng.choice(values)
    elif fault == "outside":
        table[rng.choice(list(table))] = "zz"
    elif fault == "unit-law":
        key = rng.choice([k for k in table if unit in k])
        table[key] = rng.choice(values)
    elif fault == "law":
        for _ in range(rng.randint(1, 2)):
            table[rng.choice(list(table))] = rng.choice(values)


def _tampered(seed):
    """A builder of one fresh unvalidated group (even seeds) or action (odd
    seeds) from seeded lawful tables, six in seven of them tampered.  An
    action is tampered over a lawful group, over a group whose closed table
    breaks its laws, or over a group whose table is not closed; at every
    other odd seed the group is validated first, so that a lawful one
    lends the action its generators.  A tampered group can be a lawful
    monoid."""
    rng = random.Random(seed)
    els, mul, unit, carrier, act = _lawful_tables(rng)
    fault = rng.choice(["none", "missing", "extra", "outside", "unit", "unit-law", "law"])
    if seed % 2 == 0:
        if fault == "unit":
            unit = "zz"
        _tamper(rng, mul, els, unit, fault)
        return lambda: FiniteGroup(els, mul, unit, validate=False)
    if fault == "unit":  # a group of broken laws, or one not closed
        _tamper(rng, mul, els, unit, rng.choice(["law", "law", "missing", "outside"]))
    _tamper(rng, act, carrier, unit, fault)

    def build():
        group = FiniteGroup(els, mul, unit, validate=False)
        if seed % 4 == 1:
            group.validate()
        return GroupAction(group, carrier, act, validate=False)

    return build


def _loop_report(built):
    return (group_report_loops if isinstance(built, FiniteGroup) else action_report_loops)(built)


def test_group_and_action_reports_match_the_loop_oracle():
    # codes, details and order all equal the hand loops' on 1,500 seeded
    # tables; the oracle finds a lawful monoid's missing inverses by a
    # two-sided search
    seen, action_codes = set(), set()
    for seed in range(1500):
        built = _tampered(seed)()
        got = built.validate()
        assert got == _loop_report(built), seed
        seen |= {v.code for v in got}
        if seed % 2:
            action_codes |= {v.code for v in got}
    assert seen == {
        "group-unit", "group-closure", "group-extra", "group-assoc", "group-inverse",
        "action-totality", "action-extra", "action-unit", "action-compat",
    }
    assert {"group-closure", "action-compat"} <= action_codes


def test_group_and_action_gates_report_what_the_full_laws_report():
    # associativity and compatibility are checked at the group's generators
    # first; with every law run in full, as validate() did before the gates,
    # each tampered group and action must get the same report
    for seed in range(0, 1500, 3):
        build = _tampered(seed)
        gated = build().validate()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(catkernel, "_proven", lambda stage, premises, *gens: stage(*(None,) * len(gens)))
            assert build().validate() == gated, seed


def _klein_four():
    """V_4 = {e, a, b, c} multiplied by XOR of positions, generated by a and b."""
    els = ["e", "a", "b", "c"]
    return els, {(g, h): els[i ^ j] for i, g in enumerate(els) for j, h in enumerate(els)}, "e"


def test_a_compatibility_fault_off_the_first_generator_is_reported():
    # e and a act as the identity, b and c as one 3-cycle: the law holds at
    # a but not at b, as b b = e acts trivially while b twice is the cycle squared
    els, mul, unit = _klein_four()
    cycle = {"p": "q", "q": "r", "r": "p"}
    group = FiniteGroup(els, mul, unit)
    assert group._gens == {"a", "b"}
    action = GroupAction(group, list(cycle), {(g, x): cycle[x] if g in ("b", "c") else x for g in els for x in cycle},
                         validate=False)
    got = action.validate()
    assert [v.code for v in got] == ["action-compat"] * 12
    assert got == action_report_loops(action)


def test_an_associativity_fault_off_the_first_generator_is_reported():
    # b b = c c = b: still closed and unital, associative at a but not at b
    els, mul, unit = _klein_four()
    mul[("b", "b")] = mul[("c", "c")] = "b"
    group = FiniteGroup(els, mul, unit, validate=False)
    got = group.validate()
    assert [v.code for v in got] == ["group-assoc"] * 10
    assert got == group_report_loops(group)


@pytest.mark.parametrize("value", [None, "zz"])
def test_action_over_a_group_that_is_not_closed_reports_the_group(value):
    # the compatibility law reads every product, so the group's closure
    # faults are reported instead, as for a group whose unit is not an element
    els, mul, unit = ["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"}, "e"
    if value is not None:
        mul[("a", "a")] = value
    act = {("e", "p"): "p", ("e", "q"): "q", ("a", "p"): "q", ("a", "q"): "p"}
    with pytest.raises(InvalidInstance) as exc:
        GroupAction(FiniteGroup(els, mul, unit, validate=False), ["p", "q"], act)
    assert exc.value.violations == [Violation("group-closure", "(a, a)")]
    action = GroupAction(FiniteGroup(els, mul, unit, validate=False), ["p", "q"], act, validate=False)
    assert action.validate() == action_report_loops(action) == action.group.validate()


def test_symmetric_group_of_order_720_validates_with_its_action_within_budget():
    # S_6: 518,400 products, its laws checked at 5 generators
    els, mul, unit, carrier, act = _symmetric_group(6)
    start = time.perf_counter()
    action = GroupAction(FiniteGroup(els, mul, unit), carrier, act)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f}s over the 2s budget"
    assert len(action.group._gens) == 5
    assert orbit_partition(action) == [carrier]


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
    # the 2-cells between two chains of a slice relabel them letter by letter
    d = deloop_slice(swap_action(), 1).two_category
    assert d.cells_between("[a,c]", "[b,c]") == ("[a,c]>[b,c]#g1,g0", "[a,c]>[b,c]#g1,g1")
    assert d.cells_between("[a]", "[a,a]") == ()  # length mismatch
    assert d.cells_between("[a,c]", "[c,a]") == ()  # empty pool
    assert d.cells_between("[]", "[]") == ("[]>[]#",)


def test_chain_cell_label_order_is_lexicographic_in_element_order():
    # every labelling of each letter by its transporters, one cell each
    t = deloop_slice(trivial_action(2, ["p"]), 1).two_category
    labels = [("g0", "g0"), ("g0", "g1"), ("g1", "g0"), ("g1", "g1")]
    assert t.cells_between("[p,p]", "[p,p]") == tuple("[p,p]>[p,p]#" + ",".join(ls) for ls in labels)


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
        assert _generators(c.compose_table, dom, dom, c.identity.values()) == {"[a]", "[b]", "[c]"}


def _slice_cases():
    """The eight fixed actions at L <= 2, two at L = 3 and 20 seeded random ones."""
    cases = [(act, bound) for _, act in fixed_actions() for bound in (0, 1, 2)]
    cases += [(swap_action(), 3), (trivial_action(2, ["p", "q"]), 3)]
    for seed in range(20):
        act = random_action(seed)
        cases.append((act, 2 if len(act.group.elements) * len(act.carrier) <= 12 else 1))
    return cases


def test_slice_cells_match_the_pairwise_enumeration():
    # cell ids name witnesses, and cell order sets the order of validate() reports
    for act, bound in _slice_cases():
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
        assert s.embed(x) == f"[{x}]"
    for bad in ("d", "[a]", "", None, ("a",), ["a"], {"a"}):  # the last two are unhashable
        with pytest.raises(UnknownElement):
            s.embed(bad)


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
    s = deloop_slice(a, 1)
    d = s.two_category
    for x in a.carrier:
        for y in a.carrier:
            delooped_equivalent(a, x, y, 1)
    equivalence_classes(s.equiv)  # every pair of 1-cells
    derive_reflexivity(s.equiv, s.embed(a.carrier[0]))
    built = {"identity2", "two_cells", "vcomp_table", "wl_table", "wr_table"}
    index = {"_by_boundary", "_linked"}
    assert not (built | index) & set(vars(d))
    assert d.validate() == []
    assert built <= set(vars(d))  # built once, then plain attributes
    held = {name: vars(d)[name] for name in built}
    assert d.validate() == []
    assert all(vars(d)[name] is table for name, table in held.items())  # not rebuilt
    assert not index & set(vars(d))


@pytest.mark.parametrize("bound", [2, 3])
def test_slice_classes_are_the_words_of_one_orbit_pattern(bound):
    # words of one length are equivalent iff their letters lie in the same
    # orbit position by position; the overflow cell is a class of its own
    a = three_pairs_c2()
    orbit_of = {x: i for i, block in enumerate(orbit_partition(a)) for x in block}
    by_pattern = {}
    for n in range(bound + 2):
        for word in itertools.product(a.carrier, repeat=n):
            pattern = tuple(orbit_of[x] for x in word)
            by_pattern.setdefault(pattern, []).append("[" + ",".join(word) + "]")
    want = sorted([sorted(block) for block in by_pattern.values()] + [["!overflow"]])
    assert equivalence_classes(deloop_slice(a, bound).equiv) == want


def _monoid_cases():
    """20 seeded monoid actions at L <= 1."""
    return [(_transformation_monoid_action(random.Random(seed)), bound) for seed in range(20) for bound in (0, 1)]


def test_slice_lookups_match_the_enumerated_index():
    # the witness search reads only these two lookups, which a slice answers
    # from orbits; Finite2Category's own answers read the enumerated 2-cells.
    # A monoid's transporters run one way between letters of two classes,
    # and link nothing
    for act, bound in _slice_cases() + _monoid_cases():
        d = deloop_slice(act, bound).two_category
        for g in d.one_cells:
            assert d.linked_to(g) == Finite2Category.linked_to(d, g), (g, bound)
            for f in d.one_cells:
                assert d.cells_between(f, g) == Finite2Category.cells_between(d, f, g), (f, g, bound)


def _answer(call, *args):
    """What a 2-cell lookup answers: ("ok", its value), or its error's type and message."""
    try:
        return "ok", call(*args)
    except (UnknownId, NotComposable) as exc:
        return type(exc), str(exc)


def _cell_shaped_ids(act, cells):
    """Ids shaped like 2-cells: "[x]>[y]#g" for all letters x, y and elements
    g (labels that do not transport their letter, and a monoid's one-way
    transporters among them), and each of ``cells`` with one label changed,
    one label too many or too few, its labels or its parts reordered, or
    padded."""
    els = act.group.elements
    out = [f"[{x}]>[{y}]#{g}" for x in act.carrier for y in act.carrier for g in els]
    for cid in cells:
        head, _, text = cid.partition("#")
        src, _, tgt = head.partition(">")
        labels = text.split(",") if text else []
        out += [f"{head}#{','.join(labels[:i] + [g] + labels[i + 1:])}" for i in range(len(labels)) for g in els]
        out += [f"{head}#{','.join(labels + [act.group.unit])}", f"{head}#{','.join(labels[:-1])}",
                f"{head}#{','.join(labels[::-1])}", f"{tgt}>{src}#{text}", f"{src}#{text}>{tgt}",
                f" {cid}", f"{cid} ", f"{cid},", f"{head}# {text}", f"{head}##{text}", f"{src}>>{tgt}#{text}"]
    return out


def test_slice_lookups_match_the_built_tables():
    # a fresh slice answers every 2-cell lookup from the ids asked, errors
    # included, as the kernel does reading another slice's listed cells and
    # built tables, and lists and builds nothing doing so.  Every cell is
    # whiskered by a letter, a longest word and the overflow cell, and some
    # cells are composed with everything.
    # The 24-map monoid's tables take 5 s to build at L = 1, so it is asked
    # at L = 0 only (its L = 1 lookups meet the enumerated index above)
    cases = _slice_cases() + [
        (act, bound) for act, bound in _monoid_cases() if bound == 0 or len(act.group.elements) * len(act.carrier) <= 12]
    rng = random.Random(7)
    one_way = off_label = 0
    for i, (act, bound) in enumerate(cases):
        d = DeloopedSlice(act, bound).two_category
        ref = tabled_slice_bundle(DeloopedSlice(act, bound)).d
        cells, ones = list(ref.two_cells), list(ref.one_cells)
        cell = {a: ref.cell(a) for a in cells}
        some = cells[:4] + rng.sample(cells, min(8, len(cells)))  # the shortest cells and some others
        ks = [ones[1]] + ones[-2:]  # a letter, a longest word and the overflow cell
        calls = [("vcomp", b, a) for b in some for a in ref.vcomp_table.rows[b]]
        calls += [("vcomp", b, a) for b in some for a in cells[:20] if cell[b].src != cell[a].tgt]
        calls += [("whisker_left", k, a) for k in ks for a in cells] + [("whisker_left", k, a) for k in ones for a in some]
        calls += [("whisker_right", a, k) for k in ks for a in cells] + [("whisker_right", a, k) for k in ones for a in some]
        calls += [("hcomp", b, a) for b in some for a in some]
        calls += [("vcomp", cells[0], "zz"), ("vcomp", "zz", cells[0]), ("whisker_left", "zz", cells[0]),
                  ("whisker_right", cells[0], "zz"), ("whisker_left", "[]", "zz"), ("hcomp", "zz", cells[0])]
        for name, *args in calls:
            assert _answer(getattr(d, name), *args) == _answer(getattr(ref, name), *args), (i, name, args)
        for cid in cells + _cell_shaped_ids(act, cells[:25] + cells[-10:]):
            assert (cid in d.two_cells) is (cid in ref.two_cells), (i, cid)
            assert _answer(d.cell, cid) == _answer(ref.cell, cid), (i, cid)
        for x in act.carrier:
            for g in act.group.elements:
                y = act.act(g, x)
                one_way += x not in act._orbits[y] and f"[{x}]>[{y}]#{g}" not in d.two_cells
                off_label += sum(f"[{x}]>[{z}]#{g}" not in d.two_cells for z in act._orbits[x] if z != y)
        assert not {"_labelled", "_listed", "_tables"} & set(vars(d)), i
    assert one_way and off_label  # both kinds of cell-shaped non-cell were asked and rejected


@pytest.mark.parametrize("make, bound", [(three_pairs_c2, 1), (three_pairs_c2, 2), (swap_action, 3)])
def test_witness_calculus_lists_no_cell_and_builds_no_table(make, bound):
    # deciding, verifying, reversing and composing witnesses reads each
    # 2-cell from its id: the slice ends with no 2-cell listed and no table
    # written, and every witness is the one found over the built tables of
    # another slice
    a = make()
    s = DeloopedSlice(a, bound)
    letters = [s.embed(x) for x in a.carrier]

    def calculus(e):
        got, yes = {}, {}
        for x in letters:
            for y in letters:
                ok, w = got[(x, y)] = are_equivalent(e, x, y)
                if ok:
                    assert verify_witness(e, x, y, w), (x, y)
                    yes[(x, y)] = w
                    got[(y, x, "symmetry")] = derive_symmetry(e, x, y, w)
        for (x, y), w1 in yes.items():
            for (y2, z), w2 in yes.items():
                if y2 == y:
                    w = got[(x, y, z)] = derive_transitivity(e, x, y, z, w1, w2)
                    assert verify_witness(e, x, z, w), (x, y, z)
        return got

    got = calculus(s.equiv)
    assert not {"_labelled", "_listed", "_tables", "vcomp_table", "wl_table", "wr_table"} & set(vars(s.two_category))
    assert got == calculus(tabled_slice_bundle(DeloopedSlice(make(), bound)))


@pytest.mark.parametrize("listed", [False, True])
def test_slice_lookups_name_an_unhashable_id_unknown(listed):
    d = deloop_slice(swap_action(), 1).two_category
    if listed:
        assert len(d.two_cells) == 44  # lookups then read the list
    for call, message in [
        (lambda: d.cell(["x"]), "unknown 2-cell ['x']"),
        (lambda: d.id_two(["x"]), "unknown 1-cell ['x']"),
        (lambda: d.vcomp("[a]>[b]#g1", ["x"]), "unknown 2-cell ['x']"),
        (lambda: d.vcomp(["x"], "[a]>[b]#g1"), "unknown 2-cell ['x']"),
        (lambda: d.whisker_left(["x"], "[a]>[b]#g1"), "unknown morphism ['x']"),
        (lambda: d.whisker_right("[a]>[b]#g1", ["x"]), "unknown morphism ['x']"),
        (lambda: d.whisker_left("[a]", ["x"]), "unknown 2-cell ['x']"),
        (lambda: d.hcomp(["x"], "[a]>[b]#g1"), "unknown 2-cell ['x']"),
    ]:
        with pytest.raises(UnknownId) as exc:
            call()
        assert str(exc.value) == message
    assert ["x"] not in d.two_cells


@pytest.mark.parametrize("bound", [1.5, 1.0, True, False, "1", None, [1]])
def test_chain_bound_must_be_an_int(bound):
    a = swap_action()
    deloop_slice(a, 0), deloop_slice(a, 1)  # cached under the keys True and False equal
    for build in (deloop_slice, DeloopedSlice, lambda a, bound: delooped_equivalent(a, "a", "b", bound)):
        with pytest.raises(InvalidParameter) as exc:
            build(a, bound)
        assert str(exc.value) == f"max_chain_length must be an int, not {bound!r}"


def _transformation_monoid_action(rng):
    """A seeded monoid of maps of 2-3 points, closed from 1-2 random maps and
    the identity, acting on the points; (p q) x = p(q(x))."""
    n = rng.choice([2, 3])
    unit = tuple(range(n))
    gens = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 2))]
    maps, todo = set(), [unit]
    while todo:  # every word in the generators, as g . p for a generator g
        p = todo.pop()
        if p not in maps:
            maps.add(p)
            todo += [tuple(g[i] for i in p) for g in gens]
    els = sorted(maps)
    name = {p: "t" + "".join(map(str, p)) for p in els}
    mul = {(name[p], name[q]): name[tuple(p[i] for i in q)] for p in els for q in els}
    act = {(name[p], f"x{i}"): f"x{p[i]}" for p in els for i in range(n)}
    group = FiniteGroup([name[p] for p in els], mul, name[unit], validate=False)
    return GroupAction(group, [f"x{i}" for i in range(n)], act, validate=False)


def test_slice_decides_mutual_reachability_of_monoid_actions():
    # the slice links letters that reach each other; for a monoid that is
    # less than the forward orbit, and every yes still carries a witness
    yes = no = 0
    for seed in range(60):
        a = _transformation_monoid_action(random.Random(seed))
        forward = {x: {a.act(m, x) for m in a.group.elements} for x in a.carrier}
        for bound in (0, 1):
            s = deloop_slice(a, bound)
            for x in a.carrier:
                for y in a.carrier:
                    ok, w = delooped_equivalent(a, x, y, bound)
                    assert ok is (y in forward[x] and x in forward[y]), (seed, x, y, bound)
                    if ok:
                        assert verify_witness(s.equiv, s.embed(x), s.embed(y), w), (seed, x, y, bound)
                    yes, no = yes + ok, no + (not ok)
    assert yes and no


def test_sparse_slices_match_their_dense_skeletons():
    # a slice stores only the real concatenations and reads the rest as the
    # overflow cell; over the same 2-cells, a skeleton storing every pair
    # gives the same searches, witnesses, classes and validate() reports
    cases = [(act, bound) for _, act in fixed_actions() for bound in (0, 1, 2)]
    cases += [(swap_action(), 3), (trivial_action(2, ["p", "q"]), 3)]
    cases += [(random_action(100 + seed), 1) for seed in range(50)]
    for seed in range(20):  # validate() of the 24-map monoid's L = 1 slice alone takes 12 s
        act = _transformation_monoid_action(random.Random(seed))
        cases.append((act, 1 if len(act.group.elements) * len(act.carrier) <= 12 else 0))
    for i, (act, bound) in enumerate(cases):
        s = deloop_slice(act, bound)
        sparse, dense = s.equiv, dense_slice_bundle(s)
        view = s.category.compose_table
        want = slice_compose_pairwise(act, bound)
        assert len(view) == len(want), i
        assert list(view.items()) == list(want.items()), i
        assert dict(view) == dense.c.compose_table == want, i
        ones = list(sparse.c.morphisms)
        probes = ones[:8] + ones[-4:]  # the shortest words, three of the longest and the overflow cell
        for m in probes:
            for mt in probes:
                assert equivalence._side_search(sparse, m, mt) == equivalence._side_search(dense, m, mt), (i, m, mt)
                assert are_equivalent(sparse, m, mt) == are_equivalent(dense, m, mt), (i, m, mt)
        assert equivalence_classes(sparse) == equivalence_classes(dense), i
        assert sparse.d.validate() == dense.d.validate(), i
        assert sparse.violations() == dense.violations() == [], i  # the functor laws read both skeletons


def test_failing_reports_over_sparse_composition_rows_match_dense_ones():
    # one whiskering entry per side rerouted off its boundary and one left
    # out: each side gates the boundaries it reads through the skeleton's
    # absorbing id, the right side by column, as a dense skeleton does
    rng = random.Random(11)
    for name, act in fixed_actions():
        for bound in (0, 1):
            s = deloop_slice(act, bound)
            d = s.two_category
            boundary = {c.id: (c.src, c.tgt) for c in d.two_cells.values()}
            wl, wr = dict(d.wl_table), dict(d.wr_table)
            for table in (wl, wr):
                moved, dropped = rng.sample(sorted(table), 2)
                table[moved] = next(c for c, b in boundary.items() if b != boundary[table[moved]])
                del table[dropped]
            reports = [
                Finite2Category(d.objects, d.one_cells.values(), d.skeleton.identity, compose, d.two_cells.values(),
                                d.identity2, dict(d.vcomp_table), wl, wr, validate=False).validate()
                for compose in (s.category.compose_table, dict(s.category.compose_table))
            ]
            assert reports[0] == reports[1], (name, bound)
            assert {v.code for v in reports[0]} == {
                "whisker-left-boundary", "whisker-left-missing", "whisker-right-boundary", "whisker-right-missing"}


def test_an_action_on_the_empty_carrier_is_lawful():
    a = GroupAction(FiniteGroup.cyclic(2), [], {})
    assert a.validate() == []
    assert orbit_partition(a) == []


def test_slice_identity_cells_name_an_unknown_one_cell():
    with pytest.raises(UnknownId) as exc:
        deloop_slice(swap_action(), 1).two_category.id_two("zz")
    assert str(exc.value) == "unknown 1-cell 'zz'"


def test_monoid_with_a_one_way_letter_is_decided():
    # c sends both points to a: a reaches nothing, b reaches a one way only
    group = FiniteGroup(["e", "c"], {("e", "e"): "e", ("e", "c"): "c", ("c", "e"): "c", ("c", "c"): "c"},
                        "e", validate=False)
    act = {("e", "a"): "a", ("e", "b"): "b", ("c", "a"): "a", ("c", "b"): "a"}
    a = GroupAction(group, ["a", "b"], act)
    got = {(x, y): delooped_equivalent(a, x, y, 1)[0] for x in "ab" for y in "ab"}
    assert got == {("a", "a"): True, ("a", "b"): False, ("b", "a"): False, ("b", "b"): True}
    assert orbit_partition(a) == [["a"], ["b"]]


def test_slice_is_cached_per_action():
    a = swap_action()
    assert deloop_slice(a, 1) is deloop_slice(a, 1)
    assert deloop_slice(a, 0) is not deloop_slice(a, 1)
