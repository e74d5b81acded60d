import time

import numpy as np
import pytest

from morpheq import (
    BesselFamily,
    SeminormRep,
    ambient_norm,
    apply_param,
    bridge_composite,
    bridge_composite_staged,
    bridge_equivalent,
    cell_holds,
    def_equivalent_with_witness,
    frame_operator,
    leq_seminorm,
    onb_witness,
    probe_vectors,
    rho_eval,
    standard_basis,
    weighted_analysis_rep,
)
from morpheq.errors import DimensionMismatch
from morpheq.frames import TOL_PSD

from oracles import non_functoriality_gap


def mercedes():
    s = np.sqrt(3) / 2
    vecs = np.array([[1.0, -0.5, -0.5], [0.0, s, -s]])
    return BesselFamily("real", 2, [1.0, 1.0, 1.0], vecs)


def two_one_family():
    return BesselFamily(
        "real", 2, [1.0] * 3, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    )


# -------------------------------------------------------------- evaluation


def test_eval_golden_values():
    assert ambient_norm(2)([3.0, 4.0]) == pytest.approx(5.0)
    half = SeminormRep(0.5, np.diag([1.0, 0.0]))
    assert half([3.0, 4.0]) == pytest.approx(1.5)
    zero = SeminormRep(0.0, np.random.default_rng(0).standard_normal((2, 2)))
    assert zero([3.0, 4.0]) == 0.0
    with pytest.raises(DimensionMismatch):
        half([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SeminormRep(-1.0, np.eye(2))


def test_sup_and_domination():
    assert ambient_norm(3).sup_unit_sphere() == pytest.approx(1.0)
    assert ambient_norm(3).dominated_within(TOL_PSD)
    assert SeminormRep(0.5, np.eye(2)).dominated_within(TOL_PSD)
    assert not SeminormRep(2.0, np.eye(2)).dominated_within(TOL_PSD)
    skew = SeminormRep(1.0, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert skew.sup_unit_sphere() == pytest.approx(
        np.linalg.norm(skew.matrix, 2), rel=1e-12
    )
    assert not skew.dominated_within(TOL_PSD)
    assert skew.scaled(0.1).dominated_within(TOL_PSD)


# ------------------------------------------------------- pointwise order


def test_leq_reflexive_and_scaled():
    s = SeminormRep(1.0, np.eye(2))
    assert leq_seminorm(s, s)
    assert leq_seminorm(s, SeminormRep(0.5, np.eye(2)))  # (1/2)|x| <= |x|
    assert not leq_seminorm(SeminormRep(0.5, np.eye(2)), s)


def test_leq_incomparable_projections():
    e1 = SeminormRep(1.0, np.diag([1.0, 0.0]))
    e2 = SeminormRep(1.0, np.diag([0.0, 1.0]))
    assert not leq_seminorm(e1, e2)
    assert not leq_seminorm(e2, e1)


def test_leq_zero_reference():
    z = SeminormRep(0.0, np.eye(2))
    assert leq_seminorm(z, z)
    assert leq_seminorm(ambient_norm(2), z)
    assert not leq_seminorm(z, ambient_norm(2))


def test_leq_needs_one_dimension():
    with pytest.raises(DimensionMismatch, match=r"^seminorms live on dims 2 and 3$"):
        leq_seminorm(ambient_norm(2), ambient_norm(3))


def test_leq_agrees_with_pointwise_sampling():
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        s = SeminormRep(rng.uniform(0.1, 2.0), rng.standard_normal((n + 1, n)))
        t = SeminormRep(rng.uniform(0.1, 2.0), rng.standard_normal((n, n)))
        claim = leq_seminorm(s, t)
        worst = 0.0
        for _ in range(200):
            x = rng.standard_normal(n)
            worst = max(worst, t(x) - s(x))
        if claim:
            assert worst <= 1e-8
        else:
            assert worst > 0.0


def test_cell_holds_thresholds():
    src = ambient_norm(2)
    tgt = SeminormRep(0.5, np.eye(2))
    assert cell_holds(2.0, src, tgt)      # 2 * (1/2)|x| = |x| <= |x|
    assert not cell_holds(2.1, src, tgt)
    # converse probing: a passing scalar really bounds pointwise
    for x in probe_vectors(2, 20, seed=4):
        assert 2.0 * tgt(x) <= src(x) + 1e-9 * src(x)


# --------------------------------------------------------- parameter maps


def test_apply_param_identity_and_sigma():
    s = SeminormRep(1.0, np.array([[2.0, 0.0], [0.0, 1.0]]))
    t1 = apply_param("tau1", np.eye(2), s)
    for x in probe_vectors(2, 10, seed=1):
        assert t1(x) == pytest.approx(s(x), rel=1e-12, abs=1e-12)
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    sig = apply_param("sigma", m, ambient_norm(2))
    for x in probe_vectors(2, 10, seed=2):
        assert sig(x) == pytest.approx(np.linalg.norm(m @ x), rel=1e-12, abs=1e-12)
    t2 = apply_param("tau2", m, s)
    assert t2.scale == pytest.approx(s.sup_unit_sphere())
    assert np.allclose(t2.matrix, np.eye(2))


def test_apply_param_guards():
    s = ambient_norm(2)
    with pytest.raises(ValueError):
        apply_param("rho", np.eye(2), s)
    with pytest.raises(DimensionMismatch):
        apply_param("tau1", np.eye(3), s)


def test_tau_maps_are_contravariantly_functorial():
    rng = np.random.default_rng(37)
    for which in ("tau1", "tau2"):
        for _ in range(25):
            d3, d2, d1 = (int(rng.integers(1, 4)) for _ in range(3))
            s = SeminormRep(rng.uniform(0.1, 2.0), rng.standard_normal((d3 + 1, d3)))
            m_bar = rng.standard_normal((d3, d2))
            m = rng.standard_normal((d2, d1))
            staged = apply_param(which, m, apply_param(which, m_bar, s))
            merged = apply_param(which, m_bar @ m, s)
            for x in probe_vectors(d1, 8, seed=0, field="real"):
                assert staged(x) == pytest.approx(merged(x), rel=1e-12, abs=1e-12)


# --------------------------------------------------- the sigma obstruction


def test_gap_vanishes_for_scalars_and_unitaries():
    s = ambient_norm(2)
    probes = probe_vectors(2, 30, seed=5)
    lam = 0.75
    assert non_functoriality_gap(lam * np.eye(2), lam * np.eye(2), s, probes) <= 1e-12
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert non_functoriality_gap(rot, rot.T, s, probes) <= 1e-12


def test_gap_is_exactly_one_for_the_diagonal_pair():
    m = np.diag([1.0, 2.0])
    gap = non_functoriality_gap(m, m, ambient_norm(2), [np.array([1.0, 0.0])])
    assert gap == pytest.approx(1.0, abs=1e-12)


def test_gap_shape_guard():
    with pytest.raises(DimensionMismatch):
        non_functoriality_gap(np.ones((2, 2)), np.ones((2, 3)), ambient_norm(2), [])


# ------------------------------------------------------------- transports


def test_weighted_analysis_rep_is_rho():
    for f in (standard_basis(3), mercedes(), two_one_family()):
        rep = weighted_analysis_rep(f)
        for x in probe_vectors(f.dim, 15, seed=3, field="real"):
            assert rep(x) == pytest.approx(rho_eval(f, x), rel=1e-12, abs=1e-12)


def test_bridge_composite_identity_transport():
    f = two_one_family()
    s = ambient_norm(f.count)
    closed = bridge_composite(f, np.eye(2), np.eye(3), s)
    for x in probe_vectors(2, 15, seed=6, field="real"):
        assert closed(x) == pytest.approx(rho_eval(f, x), rel=1e-12, abs=1e-12)


def test_bridge_composite_mercedes_scaling():
    f = mercedes()
    closed = bridge_composite(f, np.eye(2), np.eye(3), ambient_norm(3))
    for x in probe_vectors(2, 15, seed=7, field="real"):
        assert closed(x) == pytest.approx(
            np.sqrt(1.5) * np.linalg.norm(x), rel=1e-12, abs=1e-12
        )


def test_bridge_composite_staged_equals_closed():
    rng = np.random.default_rng(41)
    for _ in range(15):
        dim = int(rng.integers(2, 4))
        count = int(rng.integers(2, 5))
        f = BesselFamily(
            "complex", dim, rng.uniform(0.2, 2.0, count),
            rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count)),
        )
        d0 = int(rng.integers(1, 4))
        sd = int(rng.integers(1, 4))
        u1 = rng.standard_normal((dim, d0))
        u2 = rng.standard_normal((sd, count))
        s = SeminormRep(rng.uniform(0.1, 2.0), rng.standard_normal((sd + 1, sd)))
        closed = bridge_composite(f, u1, u2, s)
        staged = bridge_composite_staged(f, u1, u2, s)
        for x in probe_vectors(d0, 8, seed=8, field="real"):
            assert closed(x) == pytest.approx(staged(x), rel=1e-12, abs=1e-12)


def test_bridge_composite_shape_guards():
    f = two_one_family()
    with pytest.raises(DimensionMismatch):
        bridge_composite(f, np.eye(3), np.eye(3), ambient_norm(3))
    with pytest.raises(DimensionMismatch):
        bridge_composite(f, np.eye(2), np.eye(2), ambient_norm(3))


# ------------------------------------------------------- the full verdict


def test_bridge_trivial_pair():
    f = standard_basis(2)
    v = bridge_equivalent(f, f, np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    assert v.equivalent
    assert np.allclose(v.cells, (1.0, 1.0, 1.0, 1.0), atol=1e-12)


def test_bridge_conjugation_pair():
    f = two_one_family()
    u, u_tilde = onb_witness(f)
    onb = standard_basis(2)
    # u1 carries the ONB's space into f's: that's P^{-1/2} either way
    # around since both are self-adjoint here
    v = bridge_equivalent(
        f, onb, u.matrix, np.zeros((2, 3)), u_tilde.matrix, np.zeros((3, 2))
    )
    assert v.equivalent
    assert np.allclose(v.cells, (1.0, 1.0, 1.0, 1.0), atol=1e-9)


def test_bridge_rank_mismatch():
    lone = BesselFamily("real", 2, [1.0], np.array([[1.0], [0.0]]))
    onb = standard_basis(2)
    v = bridge_equivalent(
        lone, onb, np.eye(2), np.zeros((2, 1)), np.eye(2), np.zeros((1, 2))
    )
    assert not v.equivalent
    assert v.cells is None
    direct = def_equivalent_with_witness(lone, onb, np.eye(2), np.eye(2))
    assert direct.equivalent == v.equivalent


def test_bridge_matches_direct_route_exactly():
    rng = np.random.default_rng(43)
    for trial in range(20):
        dim = int(rng.integers(2, 4))
        na, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        f = BesselFamily("real", dim, rng.uniform(0.2, 2.0, na),
                         rng.standard_normal((dim, na)))
        g = BesselFamily("real", dim, rng.uniform(0.2, 2.0, nb),
                         rng.standard_normal((dim, nb)))
        u1 = rng.standard_normal((dim, dim))
        v1 = rng.standard_normal((dim, dim))
        v = bridge_equivalent(f, g, u1, np.zeros((nb, na)), v1, np.zeros((na, nb)))
        direct = def_equivalent_with_witness(f, g, u1.conj().T, v1.conj().T)
        assert v.equivalent == direct.equivalent
        if v.equivalent:
            assert v.forward.k1 == direct.forward.k1
            assert v.forward.k2 == direct.forward.k2
            assert v.backward.k1 == direct.backward.k1
            assert v.backward.k2 == direct.backward.k2


def _witness(rng, field, n, rank=None):
    """Q1 diag(s) Q2 with singular values in [0.5, 2], those past ``rank`` zeroed."""
    def gauss(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if field == "complex" else z

    q1, _ = np.linalg.qr(gauss(n, n))
    q2, _ = np.linalg.qr(gauss(n, n))
    s = rng.uniform(0.5, 2.0, n)
    s[n if rank is None else rank:] = 0.0
    return (q1 * s) @ q2


def _gaussian_family(rng, field, n):
    vecs = rng.standard_normal((n, 2 * n))
    if field == "complex":
        vecs = vecs + 1j * rng.standard_normal((n, 2 * n))
    return BesselFamily(field, n, rng.uniform(0.5, 2.0, 2 * n), vecs)


def test_bridge_cells_hold_as_seminorm_cells_and_are_tight():
    # the categorical reading of the verdict: K1 . a <= b <= K2 . a with a
    # the seminorm of f pulled back along u1 and b that of f~, and the same
    # backwards along v1; each cell fails once its scalar is raised by 1%
    rng = np.random.default_rng(31)
    for trial in range(48):
        n, field = 2 + trial % 7, ("real", "complex")[trial % 2]
        f, ft = _gaussian_family(rng, field, n), _gaussian_family(rng, field, n)
        u1, v1 = _witness(rng, field, n), _witness(rng, field, n)
        v = bridge_equivalent(f, ft, u1, np.eye(2 * n), v1, np.eye(2 * n))
        assert v.equivalent, trial
        c, c_t, d, d_t = v.cells
        a, b = SeminormRep(1.0, f.weighted_analysis_matrix() @ u1), weighted_analysis_rep(ft)
        a_, b_ = SeminormRep(1.0, ft.weighted_analysis_matrix() @ v1), weighted_analysis_rep(f)
        for cell, src, tgt in ((c, b, a), (c_t, a, b), (d, b_, a_), (d_t, a_, b_)):
            assert cell_holds(cell, src, tgt), trial
            assert not cell_holds(1.01 * cell, src, tgt), trial
    f, ft = _gaussian_family(rng, "real", 4), _gaussian_family(rng, "real", 4)
    for u1, v1 in ((_witness(rng, "real", 4, rank=3), _witness(rng, "real", 4)),
                   (_witness(rng, "real", 4), _witness(rng, "real", 4, rank=2))):
        v = bridge_equivalent(f, ft, u1, np.eye(8), v1, np.eye(8))
        assert not v.equivalent and v.cells is None


def test_bridge_shape_guards():
    f, g = standard_basis(2), standard_basis(3)
    with pytest.raises(DimensionMismatch):
        bridge_equivalent(f, g, np.eye(2), np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        bridge_equivalent(f, g, np.zeros((2, 3)), np.zeros((3, 2)), np.eye(2), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        bridge_equivalent(f, g, np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        bridge_equivalent(f, g, np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 3)))


# ------------------------------------------------------------ determinism


def test_probe_vectors_are_deterministic():
    a = probe_vectors(3, 5, seed=9)
    b = probe_vectors(3, 5, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(a[0], np.eye(3)[:, 0])
    c = probe_vectors(3, 5, seed=10)
    assert not np.array_equal(a[-1], c[-1])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_probe_vectors_are_the_basis_then_the_seeded_gaussians(field):
    dim, count, seed = 6, 4, 11
    rng = np.random.default_rng(seed)
    want = [np.eye(dim)[:, j] for j in range(dim)]
    for _ in range(count):
        z = rng.standard_normal(dim)
        want.append(z + 1j * rng.standard_normal(dim) if field == "complex" else z)
    got = probe_vectors(dim, count, seed=seed, field=field)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_probe_vectors_build_a_large_basis_from_one_identity():
    start = time.perf_counter()
    pts = probe_vectors(1024, 2, seed=0)
    assert time.perf_counter() - start < 0.5
    assert len(pts) == 1026 and np.array_equal(pts[1023], np.eye(1024)[:, 1023])
