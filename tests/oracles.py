"""Independent slow-path oracles the fast implementations are tested against."""

import numpy as np

from morpheq import Witness, are_equivalent


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
    vtab, wl, wr = d.vcomp_table, d.wl_table, d.wr_table
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
