"""Answers computed apart from the program, used to check its outputs.

Nothing here imports morpheq or the repository's tests.  Every function
works on plain tables (dicts, lists, arrays) that the workload
generators build themselves.
"""

from __future__ import annotations

import numpy as np

EMPTY = "[]"
OVERFLOW = "!overflow"


def word_id(word):
    """The one-cell id the delooped slice gives a chain of letters."""
    return "[" + ",".join(word) + "]"


# ------------------------------------------------------------ group actions


def orbits(carrier, elements, act):
    """Orbit of each point, by closing {x} under every group element."""
    out = {}
    for x in carrier:
        if x in out:
            continue
        orbit = {x}
        todo = [x]
        while todo:
            y = todo.pop()
            for g in elements:
                z = act[(g, y)]
                if z not in orbit:
                    orbit.add(z)
                    todo.append(z)
        frozen = frozenset(orbit)
        for y in frozen:
            out[y] = frozen
    return out


def blocks_of(groups):
    """Canonical partition: sorted blocks, sorted by least member."""
    return sorted((sorted(b) for b in groups), key=lambda b: b[0])


def partition_from_relation(items, related):
    """Blocks of the transitive closure of a relation given as a predicate."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in items:
        for b in items:
            if related(a, b):
                parent[find(a)] = find(b)
    groups = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return blocks_of(groups.values())


def slice_partition(carrier, elements, act, max_chain_length):
    """Closed form of the classes of a delooped slice.

    Chains are equivalent exactly when they have the same length and
    their letters lie pairwise in the same orbit; the empty chain and
    the overflow cell are each alone.
    """
    orb = orbits(carrier, elements, act)
    rep = {x: min(orb[x]) for x in carrier}
    groups = {(): [EMPTY]}
    words = [()]
    for _ in range(max_chain_length + 1):
        words = [w + (x,) for w in words for x in carrier]
        for w in words:
            groups.setdefault(tuple(rep[x] for x in w), []).append(word_id(w))
    return blocks_of(list(groups.values()) + [[OVERFLOW]])


# ------------------------------------------------------------ witness search


def related(t, m, mt):
    """Exhaustive witness search over raw tables, both halves.

    ``t`` holds ``c_arrows`` (id -> (dom, cod)), ``d_compose`` keyed
    (second, first), ``cells`` (set of (src, tgt) pairs that bound a
    2-cell) and the three morphism maps ``sigma``, ``tau1``, ``tau2``.
    """
    return _side(t, m, mt) and _side(t, mt, m)


def _side(t, m, mt):
    arrows, comp, cells = t["c_arrows"], t["d_compose"], t["cells"]
    sig, tau1, tau2 = t["sigma"], t["tau1"], t["tau2"]
    (a_dom, a_cod), (b_dom, b_cod) = arrows[m], arrows[mt]
    target = sig[mt]
    for u1, (d1, c1) in arrows.items():
        if (d1, c1) != (a_cod, b_cod):
            continue
        for u2, (d2, c2) in arrows.items():
            if (d2, c2) != (b_dom, a_dom):
                continue
            x = comp[(tau1[u1], comp[(sig[m], tau2[u2])])]
            if (x, target) in cells and (target, x) in cells:
                return True
    return False


def classes(t):
    items = sorted(t["c_arrows"])
    return partition_from_relation(items, lambda a, b: related(t, a, b))


# ------------------------------------------------------------ numerics


def tolerance(dtype):
    """Relative tolerance fixed from the dtype: the square root of its eps."""
    return float(np.sqrt(np.finfo(np.dtype(dtype)).eps))


def frame_matrix(weights, vectors):
    """sum_i mu_i f_i f_i^* summed vector by vector from the raw columns."""
    n = vectors.shape[0]
    p = np.zeros((n, n), dtype=complex)
    for i, mu in enumerate(weights):
        f = vectors[:, i].astype(complex)
        p += mu * np.outer(f, f.conj())
    return p


def analysis_norm(weights, vectors, x):
    """sqrt(sum_i mu_i |<x, f_i>|^2) straight from the definition."""
    coeffs = vectors.conj().T @ x
    return float(np.sqrt(np.sum(weights * np.abs(coeffs) ** 2)))


def generalized_extremes(a, b):
    """sqrt of the extreme eigenvalues of b x = lambda a x, a positive definite.

    Uses scipy's generalized symmetric solver, a different LAPACK route
    from the program's projection and whitening.
    """
    import scipy.linalg

    w = scipy.linalg.eigh(b, a, eigvals_only=True)
    return float(np.sqrt(max(w[0], 0.0))), float(np.sqrt(w[-1]))
