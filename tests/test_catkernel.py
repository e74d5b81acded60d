import functools
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from morpheq import (
    Finite2Category,
    FiniteCategory,
    FunctorData,
    GroupAction,
    MorphismFunction,
    catkernel,
    deloop_slice,
)
from morpheq.errors import (
    InterchangeViolation,
    InvalidInstance,
    NotComposable,
    UnknownId,
)

from instance_gen import random_equiv_instance, regular_action, swap_action, trivial_action
from oracles import middle_four_violations, validate_by_instances


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


def _two_cat_parts(d):
    """The positional arguments of ``d`` up to, not including, its vcomp table."""
    return (
        list(d.objects),
        [(a.id, a.dom, a.cod) for a in d.skeleton.morphisms.values()],
        dict(d.skeleton.identity),
        dict(d.skeleton.compose_table),
        [(c.id, c.src, c.tgt) for c in d.two_cells.values()],
        dict(d.identity2),
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
        Finite2Category(*_two_cat_parts(d), vcomp, dict(d.wl_table), dict(d.wr_table))


def test_tables_from_a_builder_are_checked_when_first_read():
    d = walking_pair_two_cat()
    vcomp = dict(d.vcomp_table)
    vcomp[("ab", "ba")] = "nope"
    parts = _two_cat_parts(d)
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
    # keeps every unit, associativity and functoriality check happy while
    # breaking the middle-four exchange; validate() sees that whiskering by
    # [pt] no longer keeps vertical composites.
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
    broken = Finite2Category(*_two_cat_parts(d), dict(d.vcomp_table), wl, dict(d.wr_table), validate=False)
    assert middle_four_violations(broken)
    codes = {v.code for v in broken.validate()}
    assert codes == {"whisker-left-vcomp"}


def test_tampered_two_cell_tables_agree_with_the_middle_four_oracle():
    # 1 to 5 vcomp / whisker entries of small slices with non-trivial
    # stabilisers are rerouted to other 2-cells on the same boundary, so
    # the boundary checks pass and only the laws can catch the change.
    rng = random.Random(7)
    late = {"whisker-left-vcomp", "whisker-right-vcomp", "whisker-assoc", "interchange-orders"}
    past_functorial = rejected_by_vcomp_laws = 0
    for act in (trivial_action(2, ["p", "q"]), trivial_action(3, ["pt"])):
        d = deloop_slice(act, 1).two_category
        twins = {}
        for c in d.two_cells.values():
            twins.setdefault((c.src, c.tgt), []).append(c.id)

        def others(cid):
            c = d.two_cells[cid]
            return [x for x in twins[(c.src, c.tgt)] if x != cid]

        lawful = (d.vcomp_table, d.wl_table, d.wr_table)
        movable = [sorted(k for k, r in t.items() if others(r)) for t in lawful]
        for _ in range(800):
            tables = [dict(t) for t in lawful]
            for _ in range(rng.randint(1, 5)):
                i = rng.randrange(3)
                key = rng.choice(movable[i])
                tables[i][key] = rng.choice(others(tables[i][key]))
            broken = Finite2Category(*_two_cat_parts(d), *tables, validate=False)
            codes = {v.code for v in broken.validate()}
            if not codes <= late:
                continue  # caught before the laws the oracle stands in for
            past_functorial += 1
            if not codes:
                assert middle_four_violations(broken) == []
            elif codes <= {"whisker-left-vcomp", "whisker-right-vcomp"}:
                rejected_by_vcomp_laws += 1
                assert middle_four_violations(broken)
    assert past_functorial >= 10
    assert rejected_by_vcomp_laws >= 1


def _one_object(compose, groups, wl, wr):
    """One object '*'.  ``groups[f]`` is the vcomp table of a group of 2-cells f => f
    whose unit is named first; ``e`` is the identity 1-cell."""
    cells = [(c, f, f) for f, table in groups.items() for c in dict.fromkeys(b for b, _ in table)]
    return Finite2Category(
        ["*"], [(f, "*", "*") for f in groups], {"*": "e"}, compose, cells,
        {f: next(iter(table))[0] for f, table in groups.items()},
        {key: r for table in groups.values() for key, r in table.items()}, wl, wr,
        validate=False,
    )


def _symmetric_group_cells():
    """One object, one 1-cell e, and the group S3 of 2-cells e => e.

    Eckmann-Hilton: the two whiskering orders of b * a are a . b and
    b . a, so the cells would have to commute.
    """
    perms = list(itertools.permutations(range(3)))
    name = {p: "s" + "".join(map(str, p)) for p in perms}
    s3 = {(name[q], name[p]): name[tuple(q[i] for i in p)] for p in perms for q in perms}
    return _one_object({("e", "e"): "e"}, {"e": s3},
                       {("e", c): c for c in name.values()}, {(c, "e"): c for c in name.values()})


def test_non_commuting_two_cells_break_the_interchange_orders():
    codes = {v.code for v in _symmetric_group_cells().validate()}
    assert codes == {"interchange-orders"}


def _twisted_klein(n=2):
    """1-cells e, k, ... with k^n = e (n = 2 or 3); Klein four groups of 2-cells on each.

    k^m |> - keeps the index of a cell; - <| k moves the cells on k^p by
    tau_p, where the tau_p run through the identity (for n = 3), a 3-cycle
    sigma of the non-unit cells and its inverse, so that k^n acts
    trivially.  Each whiskering is a group isomorphism and functorial in
    the 1-cell, but (k |> e_i) <| k != k |> (e_i <| k).
    """
    sigma = [0, 2, 3, 1]
    taus = ([] if n == 2 else [[0, 1, 2, 3]]) + [sigma, [sigma.index(i) for i in range(4)]]
    ones = ["e", "k", "kk"][:n]
    groups = {f: {(f"{f}{i}", f"{f}{j}"): f"{f}{i ^ j}" for i in range(4) for j in range(4)} for f in ones}
    wl, wr = {}, {}
    for p, f in enumerate(ones):
        for m, k in enumerate(ones):
            index = list(range(4))
            for step in range(m):
                index = [taus[(p + step) % n][i] for i in index]
            for i in range(4):
                wl[(k, f"{f}{i}")] = f"{ones[(p + m) % n]}{i}"
                wr[(f"{f}{i}", k)] = f"{ones[(p + m) % n]}{index[i]}"
    compose = {(g, f): ones[(p + q) % n] for q, g in enumerate(ones) for p, f in enumerate(ones)}
    return _one_object(compose, groups, wl, wr)


def test_whisker_sides_that_do_not_commute_are_reported():
    for n in (2, 3):
        codes = {v.code for v in _twisted_klein(n).validate()}
        assert codes == {"whisker-assoc"}


def _rerouting(d):
    """The compose, vcomp, whisker-left and whisker-right tables of ``d``, and
    for each its sorted (key, ids) pairs: the entries whose value shares its
    boundary with another id, and all the ids on that boundary."""
    ones, twos = d.one_cells, d.two_cells
    hom, par = {}, {}
    for a in ones.values():
        hom.setdefault((a.dom, a.cod), []).append(a.id)
    for c in twos.values():
        par.setdefault((c.src, c.tgt), []).append(c.id)
    same = [lambda m: hom[(ones[m].dom, ones[m].cod)]] + [lambda c: par[(twos[c].src, twos[c].tgt)]] * 3
    tables = [d.skeleton.compose_table, d.vcomp_table, d.wl_table, d.wr_table]
    return tables, [
        sorted((key, ids(r)) for key, r in t.items() if len(ids(r)) > 1) for t, ids in zip(tables, same)
    ]


def test_row_equations_report_what_the_instance_loops_report():
    # 1 to 5 entries of the compose, vcomp and whiskering tables are rerouted
    # to other ids on the same boundary, so the gates pass and the laws
    # decide; the report must equal the per-instance oracle's, order
    # included.  Fewer reroutes are likelier, since each one more tends to
    # break an earlier law and hide the later ones.  The one-object
    # instances are the inputs on which interchange alone, or the commuting
    # of the whiskering sides alone, fails; they are checked as they are
    # and as starting points.
    rng = random.Random(11)
    bases = [deloop_slice(act, 1).two_category
             for act in (swap_action(), trivial_action(2, ["p", "q"]), regular_action(3),
                         trivial_action(3, ["pt"]))]
    bases += [random_equiv_instance(seed).d for seed in range(8)]
    bases += [_symmetric_group_cells(), _twisted_klein(2), _twisted_klein(3)]
    converted = {
        "one:assoc", "vcomp-assoc", "whisker-left-id2", "whisker-right-id2",
        "whisker-left-functorial", "whisker-right-functorial", "whisker-left-vcomp",
        "whisker-right-vcomp", "whisker-assoc", "interchange-orders",
    }
    reports = [d.validate() for d in bases]
    assert reports == [validate_by_instances(d) for d in bases]
    cases = [(d, *_rerouting(d)) for d in bases]
    cases = [case for case in cases if any(case[2])]
    for trial in range(1200):
        d, lawful, movable = cases[trial % len(cases)]
        tables = [dict(t) for t in lawful]
        # the compose table rarely: a broken skeleton hides the 2-cell laws
        pick = [i for i in (0, 1, 2, 3) if movable[i] and (i or rng.random() < 0.15)]
        pick = pick or [i for i in (0, 1, 2, 3) if movable[i]]
        for _ in range(min(rng.randint(1, 5), rng.randint(1, 5))):
            i = rng.choice(pick)
            key, to = rng.choice(movable[i])
            tables[i][key] = rng.choice([x for x in to if x != tables[i][key]])
        parts = list(_two_cat_parts(d))
        parts[3] = tables[0]
        broken = Finite2Category(*parts, *tables[1:], validate=False)
        reports.append(broken.validate())
        assert reports[-1] == validate_by_instances(broken)
    counts = [Counter(v.code for v in report) for report in reports]
    assert converted <= set().union(*counts)
    for code in ("one:assoc", "vcomp-assoc", "interchange-orders"):
        assert any(c[code] >= 2 for c in counts)


@functools.lru_cache(maxsize=None)
def _gated_bases():
    """Instances whose 1-cells and 2-cells have generating sets smaller than
    themselves, with their reroutable table entries."""
    bases = [deloop_slice(act, bound).two_category
             for act, bound in ((swap_action(), 1), (regular_action(3), 1), (trivial_action(2, ["p", "q"]), 1),
                                (trivial_action(2, ["p"]), 2))]
    bases += [_symmetric_group_cells(), _twisted_klein(2), _twisted_klein(3)]
    return [(d, *_rerouting(d)) for d in bases]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_generator_gates_report_what_the_full_stages_report(data):
    # each cubic stage checks its law at generators first and runs in full
    # only on a failure there; with every stage run in full, as validate()
    # did before the gates, a tampered instance must get the same report
    d, lawful, movable = data.draw(st.sampled_from(_gated_bases()))
    tables = [dict(t) for t in lawful]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.sampled_from([i for i in (0, 1, 2, 3) if movable[i]]))
        key, to = data.draw(st.sampled_from(movable[i]))
        tables[i][key] = data.draw(st.sampled_from([x for x in to if x != tables[i][key]]))
    parts = list(_two_cat_parts(d))
    parts[3] = tables[0]
    broken = Finite2Category(*parts, *tables[1:], validate=False)
    gated = broken.validate()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catkernel, "_proven", lambda stage, premises, *gens: stage(*(None,) * len(gens)))
        assert gated == broken.validate()


def test_tampered_multi_object_report_is_pinned():
    # three objects, eight 1-cells, ten 2-cells; every table entry that
    # names one 2-cell is deleted, one entry of each table is rerouted and
    # one extra vcomp pair is added.  The list was recorded before
    # validate() read its cells from boundary indexes, so it pins the
    # report's order as well as its content.
    d = random_equiv_instance(12).d
    cells = sorted((c.id, c.src, c.tgt) for c in d.two_cells.values())
    ids = [c[0] for c in cells]
    tables = [dict(sorted(t.items())) for t in (d.vcomp_table, d.wl_table, d.wr_table)]
    rng = random.Random(12)
    victim = rng.choice(ids)
    for t in tables:
        for key in [k for k in t if victim in k]:
            del t[key]
        t[rng.choice(sorted(t))] = rng.choice(ids)
    tables[0][(ids[-1], ids[0])] = ids[0]
    broken = Finite2Category(
        sorted(d.objects), sorted((a.id, a.dom, a.cod) for a in d.one_cells.values()),
        dict(d.skeleton.identity), dict(sorted(d.skeleton.compose_table.items())), cells,
        dict(d.identity2), *tables, validate=False,
    )
    assert len(broken.objects) == 3
    assert [(v.code, v.detail) for v in broken.validate()] == [
        ("vcomp-missing", "(idA=>idA, idA=>idA)"),
        ("vcomp-boundary", "(idC=>idC, idC=>idC) -> gf0=>gf0"),
        ("vcomp-extra", "(idC=>idC, f0=>f0)"),
        ("whisker-left-missing", "(f0, idA=>idA)"),
        ("whisker-left-missing", "(f1, idA=>idA)"),
        ("whisker-left-missing", "(gf0, idA=>idA)"),
        ("whisker-left-missing", "(gf1, idA=>idA)"),
        ("whisker-left-missing", "(idA, idA=>idA)"),
        ("whisker-left-boundary", "(idC, gf0=>gf1) -> idB=>idB"),
        ("whisker-right-missing", "(idA=>idA, idA)"),
        ("whisker-right-boundary", "(g=>g, f1) -> gf0=>gf1"),
    ]


def test_two_cell_reports_keep_the_order_of_tables_that_interleave_rows():
    # Each table is given cell by cell, so its entries interleave the rows
    # of the acting cells, with an extra pair and two rerouted entries.  In
    # every table the first reroute lies in a row that starts later than
    # the row of the second, so a walk row by row would name them the other
    # way round.  The oracles read the same views and cannot see this.
    d = walking_pair_two_cat()
    vcomp, wl, wr = dict(d.vcomp_table), dict(d.wl_table), dict(d.wr_table)
    vcomp[("ia", "ab")] = "ia"  # src(ia) is not tgt(ab)
    vcomp[("ab", "ba")] = "im"  # ab . ba runs mt => mt
    vcomp[("ba", "imt")] = "ab"  # ba . imt runs mt => m
    wl[("idA", "ab")] = "ia"  # dom(idA) is not cod(m)
    wl[("m", "ia")] = "imt"  # m |> ia runs m => m
    wl[("idB", "im")] = "ab"
    wr[("ab", "idB")] = "ia"  # cod(idB) is not dom(m)
    wr[("ib", "m")] = "imt"  # ib <| m runs m => m
    wr[("im", "idA")] = "ab"
    by_cell = [dict(sorted(vcomp.items(), key=lambda e: e[0][::-1])),
               dict(sorted(wl.items(), key=lambda e: e[0][::-1])),
               dict(sorted(wr.items()))]
    broken = Finite2Category(*_two_cat_parts(d), *by_cell, validate=False)
    assert [(v.code, v.detail) for v in broken.validate()] == [
        ("vcomp-extra", "(ia, ab)"),
        ("vcomp-boundary", "(ab, ba) -> im"),
        ("vcomp-boundary", "(ba, imt) -> ab"),
        ("whisker-left-extra", "(idA, ab)"),
        ("whisker-left-boundary", "(m, ia) -> imt"),
        ("whisker-left-boundary", "(idB, im) -> ab"),
        ("whisker-right-extra", "(ab, idB)"),
        ("whisker-right-boundary", "(ib, m) -> imt"),
        ("whisker-right-boundary", "(im, idA) -> ab"),
    ]
    assert [list(t) for t in (broken.vcomp_table, broken.wl_table, broken.wr_table)] == list(map(list, by_cell))
    assert dict(broken.wr_table) == by_cell[2]


def test_random_thin_instances_validate_clean():
    for seed in range(25):
        e = random_equiv_instance(seed)
        assert e.d.validate() == []
        assert e.c.validate() == []


def test_random_instances_do_not_depend_on_the_hash_seed():
    # the poset-shaped categories are built from a set of pairs; their
    # compose order, and so the order of a tampered skeleton's report, must
    # not follow the hash order of that set
    tests = Path(__file__).resolve().parent
    script = (
        "from instance_gen import random_equiv_instance\n"
        "print([list(random_equiv_instance(s).c.compose_table) for s in range(20)])\n"
    )
    outs = []
    for seed in ("0", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


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
