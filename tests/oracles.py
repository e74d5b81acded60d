"""Independent slow-path oracles the fast implementations are tested against."""

import numpy as np

from morpheq import Violation, Witness, are_equivalent, chain_two_cells


def direct_weighted_norm(weights, vectors, x):
    """sqrt(sum_i mu_i |<x, f_i>|^2) summed term by term, no operators."""
    total = 0.0
    for mu, f in zip(weights, np.asarray(vectors).T):
        total += float(mu) * abs(np.vdot(f, x)) ** 2
    return float(np.sqrt(total))


def mc_compare(a_matrix, b_matrix, samples=1000, seed=0):
    """Monte-Carlo two-sided comparison of sqrt-quadratic forms.

    Samples unit vectors (plus the eigenvector probes of both matrices,
    which pin kernels exactly) and returns
    (equivalent, min_ratio, max_ratio) where the ratios are b/a over the
    points where a is nonzero.  Not-equivalent means some probe lies in
    one kernel but not the other.
    """
    a = np.asarray(a_matrix)
    b = np.asarray(b_matrix)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    pts = []
    for m in (a, b):
        _, vecs = np.linalg.eigh(m)
        pts.extend(vecs.T)
    for _ in range(samples):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pts.append(z / np.linalg.norm(z))
    la = float(np.linalg.eigvalsh(a)[-1]) if n else 0.0
    lb = float(np.linalg.eigvalsh(b)[-1]) if n else 0.0
    cut_a = np.sqrt(max(la, 0.0)) * 1e-8
    cut_b = np.sqrt(max(lb, 0.0)) * 1e-8
    ratios = []
    for x in pts:
        va = float(np.sqrt(max(np.real(np.conj(x) @ (a @ x)), 0.0)))
        vb = float(np.sqrt(max(np.real(np.conj(x) @ (b @ x)), 0.0)))
        if va <= cut_a and vb <= cut_b:
            continue
        if va <= cut_a or vb <= cut_b:
            return False, None, None
        ratios.append(vb / va)
    if not ratios:
        return True, 1.0, 1.0
    return True, min(ratios), max(ratios)


def equivalence_classes_all_pairs(e):
    """Run the search on every ordered pair, then partition.

    The classes are the connected components of the union of all related
    pairs, listed by least member.
    """
    items = sorted(e.c.morphisms)
    linked = {m: set() for m in items}
    for m in items:
        for mt in items:
            if are_equivalent(e, m, mt)[0]:
                linked[m].add(mt)
                linked[mt].add(m)
    blocks = []
    seen = set()
    for m in items:
        if m in seen:
            continue
        block, todo = set(), [m]
        while todo:
            x = todo.pop()
            if x not in block:
                block.add(x)
                todo.extend(linked[x])
        seen |= block
        blocks.append(sorted(block))
    return blocks


def slice_cells_pairwise(action, max_chain_length):
    """The 2-cells and identity2 of a delooped slice, from every pair of words.

    Words up to length max_chain_length + 1 are listed by length, then
    lexicographically in carrier order; every (src, tgt) pair of equal
    length is tried with chain_two_cells, most of them bounding nothing.
    The absorbing overflow cell comes last.  Returns the cells as
    (id, src, tgt) triples in order, and the identity2 mapping.
    """
    def wid(w):
        return "[" + ",".join(w) + "]"

    unit = action.group.unit
    by_len = [[()]]
    for _ in range(max_chain_length + 1):
        by_len.append([w + (x,) for w in by_len[-1] for x in action.carrier])
    cells, id2 = [], {}
    for ws in by_len:
        for src in ws:
            for tgt in ws:
                for two in chain_two_cells(action, src, tgt):
                    cid = f"{wid(src)}>{wid(tgt)}#{','.join(two.labels)}"
                    cells.append((cid, wid(src), wid(tgt)))
                    if src == tgt and all(g == unit for g in two.labels):
                        id2[wid(src)] = cid
    cells.append(("!overflow>!overflow#", "!overflow", "!overflow"))
    id2["!overflow"] = "!overflow>!overflow#"
    return cells, id2


def side_search_scan(e, m_from, m_to):
    """First (u1, u2, fwd, bwd) by scanning every (u1, u2) pair in order.

    u1 runs over hom(cod(m_from), cod(m_to)) and, for each, u2 over
    hom(dom(m_to), dom(m_from)); the first composite
    tau1(u1).sigma(m_from).tau2(u2) with 2-cells both ways to
    sigma(m_to) wins, with the least cell each way.
    """
    c, d = e.c, e.d
    a_from, a_to = c.arrow(m_from), c.arrow(m_to)
    target = e.sigma(m_to)
    sig = e.sigma(m_from)
    tau1, tau2 = e.tau1.morphism_map, e.tau2.morphism_map
    comp = d.skeleton.compose_table
    for u1 in c.hom(a_from.cod, a_to.cod):
        left = comp[(tau1[u1], sig)]
        for u2 in c.hom(a_to.dom, a_from.dom):
            x = comp[(left, tau2[u2])]
            fwd = d.cells_between(x, target)
            if not fwd:
                continue
            bwd = d.cells_between(target, x)
            if not bwd:
                continue
            return u1, u2, fwd[0], bwd[0]
    return None


def are_equivalent_scan(sides, m, mt):
    """The verdict and witness for (m, mt) from side_search_scan results.

    ``sides`` maps each ordered pair (m_from, m_to) to its scan result.
    """
    u_side, v_side = sides[(m, mt)], sides[(mt, m)]
    if u_side is None or v_side is None:
        return False, None
    u1, u2, phi, phi_t = u_side
    v1, v2, psi, psi_t = v_side
    return True, Witness(u1, u2, v1, v2, phi, phi_t, psi, psi_t)


def middle_four_violations(d):
    """Every failure of the middle-four exchange, checked over all quadruples.

    For every pair of vertically composable pairs (beta, alpha) and
    (delta, gamma) whose 1-cells compose horizontally, compares
    (delta . gamma) * (beta . alpha) with (delta * beta) . (gamma * alpha),
    where b * a is read from the first whiskering order,
    (tgt(b) |> a) . (b <| src(a)).  Quartic in 2-cells.  Assumes the
    vcomp and whiskering tables are total and boundary-correct, so run it
    only on tables that get past validate()'s whiskering checks.
    """
    ones, twos = d.one_cells, d.two_cells
    vtab, wl, wr = dict(d.vcomp_table), dict(d.wl_table), dict(d.wr_table)
    hval = {}
    for b in twos.values():
        for a in twos.values():
            if ones[a.src].cod == ones[b.src].dom:
                hval[(b.id, a.id)] = vtab[(wl[(b.tgt, a.id)], wr[(b.id, a.src)])]
    by_hom = {}
    for (b, a) in vtab:
        key = (ones[twos[a].src].dom, ones[twos[a].src].cod)
        by_hom.setdefault(key, []).append((b, a))
    bad = []
    for (x, y), left_pairs in by_hom.items():
        for (y2, z), right_pairs in by_hom.items():
            if y2 != y:
                continue
            for (beta, alpha) in left_pairs:
                for (delta, gamma) in right_pairs:
                    lhs = hval[(vtab[(delta, gamma)], vtab[(beta, alpha)])]
                    rhs = vtab[(hval[(delta, beta)], hval[(gamma, alpha)])]
                    if lhs != rhs:
                        bad.append(f"({delta}, {gamma}; {beta}, {alpha})")
    return bad


def _index(items, key):
    """Map each key value to the items with that value, in the order given."""
    out = {}
    for it in items:
        out.setdefault(key(it), []).append(it)
    return out


def _category_by_instances(c):
    """FiniteCategory.validate() with one table probe per associativity triple."""
    bad = []
    mor = c.morphisms
    comp = dict(c.compose_table)
    by_dom = _index(mor.values(), lambda a: a.dom)
    by_cod = _index(mor.values(), lambda a: a.cod)
    for x in c.objects:
        m = c.identity.get(x)
        if m is None:
            bad.append(Violation("identity-missing", x))
            continue
        a = mor[m]
        if a.dom != x or a.cod != x:
            bad.append(Violation("identity-boundary", f"id of {x} is {m}: {a.dom}->{a.cod}"))
    for g in mor.values():
        for f in by_cod.get(g.dom, ()):
            if (g.id, f.id) not in comp:
                bad.append(Violation("compose-missing", f"({g.id}, {f.id})"))
    for (g, f), h in comp.items():
        if mor[f].cod != mor[g].dom:
            bad.append(Violation("compose-extra", f"({g}, {f})"))
            continue
        if mor[h].dom != mor[f].dom or mor[h].cod != mor[g].cod:
            bad.append(Violation("compose-boundary", f"({g}, {f}) -> {h}"))
    if bad:
        return bad  # unit/assoc checks assume a total, boundary-correct table
    for f in mor.values():
        if comp[(c.identity[f.cod], f.id)] != f.id:
            bad.append(Violation("unit-left", f.id))
        if comp[(f.id, c.identity[f.dom])] != f.id:
            bad.append(Violation("unit-right", f.id))
    for f in mor.values():
        for g in by_dom.get(f.cod, ()):
            gf = comp[(g.id, f.id)]
            for h in by_dom.get(g.cod, ()):
                if comp[(h.id, gf)] != comp[(comp[(h.id, g.id)], f.id)]:
                    bad.append(Violation("assoc", f"({h.id}, {g.id}, {f.id})"))
    return bad


def validate_by_instances(d):
    """Finite2Category.validate() as one table probe per axiom instance.

    The same checks and report order as the library, but every law is
    tested triple by triple (associativity, functoriality, whiskering
    keeping vertical composites, the two sides commuting) and every
    interchange pair on its own.  Reads only the public tables.
    """
    bad = [Violation("one:" + v.code, v.detail) for v in _category_by_instances(d.skeleton)]
    if bad:
        return bad  # the 2-cell layer assumes a lawful 1-skeleton
    ones = d.skeleton.morphisms
    comp = dict(d.skeleton.compose_table)
    twos = d.two_cells
    vtab, wl, wr = dict(d.vcomp_table), dict(d.wl_table), dict(d.wr_table)
    by_dom = _index(ones.values(), lambda k: k.dom)
    by_cod = _index(ones.values(), lambda k: k.cod)
    cells_from = _index(twos.values(), lambda c: c.src)
    cells_to = _index(twos.values(), lambda c: c.tgt)
    cells_ending_at = _index(twos.values(), lambda c: ones[c.src].cod)

    for c in twos.values():
        fa, ga = ones[c.src], ones[c.tgt]
        if fa.dom != ga.dom or fa.cod != ga.cod:
            bad.append(Violation("cell-parallel", c.id))
    for f in ones:
        a = d.identity2.get(f)
        if a is None:
            bad.append(Violation("id2-missing", f))
        elif twos[a].src != f or twos[a].tgt != f:
            bad.append(Violation("id2-boundary", f"id2({f}) = {a}"))
    if bad:
        return bad

    vcomposable = [(b.id, a.id) for b in twos.values() for a in cells_to.get(b.src, ())]
    for pair in vcomposable:
        if pair not in vtab:
            bad.append(Violation("vcomp-missing", f"({pair[0]}, {pair[1]})"))
    for (b, a), r in vtab.items():
        if twos[a].tgt != twos[b].src:
            bad.append(Violation("vcomp-extra", f"({b}, {a})"))
        elif twos[r].src != twos[a].src or twos[r].tgt != twos[b].tgt:
            bad.append(Violation("vcomp-boundary", f"({b}, {a}) -> {r}"))

    for a in twos.values():
        for k in by_dom.get(ones[a.src].cod, ()):
            if (k.id, a.id) not in wl:
                bad.append(Violation("whisker-left-missing", f"({k.id}, {a.id})"))
    for (k, a), r in wl.items():
        if ones[k].dom != ones[twos[a].src].cod:
            bad.append(Violation("whisker-left-extra", f"({k}, {a})"))
            continue
        want_src = comp[(k, twos[a].src)]
        want_tgt = comp[(k, twos[a].tgt)]
        if twos[r].src != want_src or twos[r].tgt != want_tgt:
            bad.append(Violation("whisker-left-boundary", f"({k}, {a}) -> {r}"))

    for a in twos.values():
        for k in by_cod.get(ones[a.src].dom, ()):
            if (a.id, k.id) not in wr:
                bad.append(Violation("whisker-right-missing", f"({a.id}, {k.id})"))
    for (a, k), r in wr.items():
        if ones[k].cod != ones[twos[a].src].dom:
            bad.append(Violation("whisker-right-extra", f"({a}, {k})"))
            continue
        want_src = comp[(twos[a].src, k)]
        want_tgt = comp[(twos[a].tgt, k)]
        if twos[r].src != want_src or twos[r].tgt != want_tgt:
            bad.append(Violation("whisker-right-boundary", f"({a}, {k}) -> {r}"))
    if bad:
        return bad

    for a in twos.values():
        if vtab[(d.identity2[a.tgt], a.id)] != a.id:
            bad.append(Violation("vcomp-unit-left", a.id))
        if vtab[(a.id, d.identity2[a.src])] != a.id:
            bad.append(Violation("vcomp-unit-right", a.id))
    for (b, a) in vcomposable:
        ba = vtab[(b, a)]
        for c in cells_from.get(twos[b].tgt, ()):
            if vtab[(c.id, ba)] != vtab[(vtab[(c.id, b)], a)]:
                bad.append(Violation("vcomp-assoc", f"({c.id}, {b}, {a})"))

    for a in twos.values():
        idc = d.skeleton.identity[ones[a.src].cod]
        if wl[(idc, a.id)] != a.id:
            bad.append(Violation("whisker-left-unit", a.id))
        idd = d.skeleton.identity[ones[a.src].dom]
        if wr[(a.id, idd)] != a.id:
            bad.append(Violation("whisker-right-unit", a.id))
    for f, a in d.identity2.items():
        fa = ones[f]
        for k in ones.values():
            if k.dom == fa.cod and wl[(k.id, a)] != d.identity2[comp[(k.id, f)]]:
                bad.append(Violation("whisker-left-id2", f"({k.id}, {f})"))
            if k.cod == fa.dom and wr[(a, k.id)] != d.identity2[comp[(f, k.id)]]:
                bad.append(Violation("whisker-right-id2", f"({f}, {k.id})"))
    for a in twos.values():
        for k2 in by_dom.get(ones[a.src].cod, ()):
            inner = wl[(k2.id, a.id)]
            for k1 in by_dom.get(k2.cod, ()):
                if wl[(comp[(k1.id, k2.id)], a.id)] != wl[(k1.id, inner)]:
                    bad.append(Violation("whisker-left-functorial", f"({k1.id}, {k2.id}, {a.id})"))
        for k2 in by_cod.get(ones[a.src].dom, ()):
            inner = wr[(a.id, k2.id)]
            for k1 in by_cod.get(k2.dom, ()):
                if wr[(a.id, comp[(k2.id, k1.id)])] != wr[(inner, k1.id)]:
                    bad.append(Violation("whisker-right-functorial", f"({a.id}, {k2.id}, {k1.id})"))
    if bad:
        return bad

    # whiskering keeps vertical composites, and its two sides commute
    for (b, a) in vcomposable:
        ba = vtab[(b, a)]
        f = ones[twos[a].src]
        for k in by_dom.get(f.cod, ()):
            if wl[(k.id, ba)] != vtab[(wl[(k.id, b)], wl[(k.id, a)])]:
                bad.append(Violation("whisker-left-vcomp", f"({k.id}, {b}, {a})"))
        for k in by_cod.get(f.dom, ()):
            if wr[(ba, k.id)] != vtab[(wr[(b, k.id)], wr[(a, k.id)])]:
                bad.append(Violation("whisker-right-vcomp", f"({b}, {a}, {k.id})"))
    for a in twos.values():
        f = ones[a.src]
        for j in by_cod.get(f.dom, ()):
            aj = wr[(a.id, j.id)]
            for k in by_dom.get(f.cod, ()):
                if wr[(wl[(k.id, a.id)], j.id)] != wl[(k.id, aj)]:
                    bad.append(Violation("whisker-assoc", f"({k.id}, {a.id}, {j.id})"))
    if bad:
        return bad

    # interchange: both whiskering orders of every horizontal composite agree
    for b in twos.values():
        for a in cells_ending_at.get(ones[b.src].dom, ()):
            one = vtab[(wl[(b.tgt, a.id)], wr[(b.id, a.src)])]
            two = vtab[(wr[(b.id, a.tgt)], wl[(b.src, a.id)])]
            if one != two:
                bad.append(Violation("interchange-orders", f"({b.id}, {a.id})"))
    return bad
