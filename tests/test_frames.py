import gc
import sys
import weakref

import numpy as np
import pytest

from morpheq import (
    BesselFamily,
    OperatorMatrix,
    RhoForm,
    asymp_compare,
    bridge_equivalent,
    def_equivalent_with_witness,
    frame_operator,
    frames,
    is_frame,
    onb_witness,
    phase_unitary_act,
    rho_eval,
    standard_basis,
    transport_form,
)
from morpheq.errors import (
    BadPhase,
    ClassViolation,
    DimensionMismatch,
    InvalidValue,
    NotAFrame,
    NotUnitary,
)

from oracles import adjoint_identity_check, direct_weighted_norm, mc_compare


def mercedes():
    s = np.sqrt(3) / 2
    vecs = np.array([[1.0, -0.5, -0.5], [0.0, s, -s]])
    return BesselFamily("real", 2, [1.0, 1.0, 1.0], vecs)


def random_family(rng, dim=None, field=None):
    dim = dim or rng.integers(2, 5)
    count = rng.integers(1, 7)
    field = field or rng.choice(["real", "complex"])
    vecs = rng.standard_normal((dim, count))
    if field == "complex":
        vecs = vecs + 1j * rng.standard_normal((dim, count))
    weights = rng.uniform(0.2, 3.0, count)
    return BesselFamily(field, int(dim), weights, vecs)


# ----------------------------------------------------------- construction


def test_family_shape_checks():
    with pytest.raises(DimensionMismatch):
        BesselFamily("real", 2, [1.0], np.eye(2))
    with pytest.raises(DimensionMismatch):
        BesselFamily("real", 2, [1.0, 1.0], np.ones((3, 2)))
    with pytest.raises(ValueError):
        BesselFamily("real", 2, [1.0, -1.0], np.eye(2))
    with pytest.raises(ValueError):
        BesselFamily("real", 2, [1.0, 1.0], np.eye(2) * 1j)
    with pytest.raises(ValueError):
        BesselFamily("rational", 2, [1.0, 1.0], np.eye(2))
    # a complex weight is an error, not a warning that drops its imaginary part
    with pytest.raises(InvalidValue, match="weights must be real"):
        BesselFamily("real", 1, np.array([1 + 1j]), [[1.0]])
    with pytest.raises(InvalidValue, match="weights must be real"):
        BesselFamily("real", 1, np.array([complex(1.0, np.nan)]), [[1.0]])
    f = BesselFamily("real", 1, np.array([2 + 0j]), [[1.0]])
    assert f.weights.dtype == float and f.weights[0] == 2.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: BesselFamily("real", 2, [[1.0, 1.0]], np.eye(2)), DimensionMismatch, "weights must be a vector"),
    (lambda: RhoForm([[1.0, 1.0], [0.0, 1.0]]), InvalidValue, "matrix is not hermitian"),
    (lambda: RhoForm([[1.0, 0.0], [0.0, -1.0]]), InvalidValue, "matrix is not positive semidefinite (min eig -1)"),
    (lambda: asymp_compare(RhoForm(np.eye(2)), RhoForm(np.eye(3))), DimensionMismatch, "forms have dims 2 and 3"),
    (lambda: def_equivalent_with_witness(standard_basis(2), standard_basis(3), np.ones((3, 2)), np.eye(3)),
     DimensionMismatch, "u_tilde must be 2 x 3, got (3, 3)"),
])
def test_input_guards_name_the_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_analysis_uses_second_argument_conjugation():
    # coefficient i of x is <x, f_i> = f_i* x
    f = BesselFamily("complex", 2, [1.0], np.array([[1j], [0.0]]))
    c = f.analysis(np.array([1.0, 0.0]))
    assert np.allclose(c, [-1j])


def test_weighted_analysis_matrix_reproduces_the_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_family(rng)
        w = f.weighted_analysis_matrix()
        x = rng.standard_normal(f.dim)
        if f.field == "complex":
            x = x + 1j * rng.standard_normal(f.dim)
        assert np.linalg.norm(w @ x) == pytest.approx(
            f.l2mu_norm(f.analysis(x)), rel=1e-12, abs=1e-12
        )


# -------------------------------------------------------- operator and rho


def test_frame_operator_golden_values():
    assert np.allclose(frame_operator(standard_basis(2)).matrix, np.eye(2))
    f = BesselFamily("real", 2, [1.0] * 3, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    p = frame_operator(f)
    assert np.allclose(p.matrix, [[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(p.eigenvalues, [1.0, 3.0])
    assert np.allclose(frame_operator(mercedes()).matrix, 1.5 * np.eye(2), atol=1e-12)


def test_rho_eval_golden_values():
    assert rho_eval(standard_basis(2), [3.0, 4.0]) == pytest.approx(5.0)
    assert rho_eval(standard_basis(2), [3j, 4.0]) == pytest.approx(5.0)  # C^2 point, R^2 family
    f = BesselFamily("real", 2, [1.0] * 3, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert rho_eval(f, [1.0, 0.0]) == pytest.approx(np.sqrt(2.0))
    assert rho_eval(f, [0.0, 0.0]) == 0.0


def test_rho_matches_direct_summation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        f = random_family(rng)
        for _ in range(5):
            x = rng.standard_normal(f.dim)
            if f.field == "complex":
                x = x + 1j * rng.standard_normal(f.dim)
            direct = direct_weighted_norm(f.weights, f.vectors, x)
            assert rho_eval(f, x) == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_rho_form_kernel_bookkeeping():
    p = RhoForm(np.diag([1.0, 0.0]))
    assert p.rank() == 1
    assert p.kernel_basis().shape == (2, 1)
    assert abs(p.kernel_basis()[1, 0]) == pytest.approx(1.0)
    assert p(np.array([0.0, 5.0])) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_rho_form_rejects_non_finite_matrices(bad):
    # eigh gives a NaN eigenvalue that no PSD, range or kernel test catches
    with pytest.raises(ValueError):
        RhoForm([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rho_form_reads_transposed_and_fortran_ordered_matrices(field):
    rng = np.random.default_rng(43)
    g = rng.standard_normal((4, 4))
    if field == "complex":
        g = g + 1j * rng.standard_normal((4, 4))
    h = g @ g.conj().T
    a = h + h.conj().T  # hermitian to the last bit
    want = RhoForm(a)
    for layout in (a.conj().T, np.asfortranarray(a)):
        assert not layout.flags.c_contiguous
        got = RhoForm(layout)
        for attr in ("matrix", "eigenvalues", "eigenvectors"):
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
        bad = layout.copy(order="K")
        bad[1, 2] = bad[2, 1] = np.nan
        assert not bad.flags.c_contiguous
        with pytest.raises(InvalidValue, match="finite"):
            RhoForm(bad)


# -------------------------------------------------------------- comparison


def test_compare_reflexive():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3))
    p = RhoForm(g @ g.T)
    v = asymp_compare(p, p)
    assert v.equivalent
    assert v.k1 == pytest.approx(1.0, abs=1e-12)
    assert v.k2 == pytest.approx(1.0, abs=1e-12)


def test_compare_scaled_rank_deficient_pair():
    a = RhoForm(np.diag([1.0, 0.0]))
    b = RhoForm(np.diag([2.0, 0.0]))
    v = asymp_compare(a, b)
    assert v.equivalent
    assert v.k1 == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert v.k2 == pytest.approx(np.sqrt(2.0), rel=1e-12)
    # and the constants really bound sampled ratios on the common range
    ok, lo, hi = mc_compare(a.matrix, b.matrix, samples=500, seed=1)
    assert ok and v.k1 <= lo + 1e-9 and hi <= v.k2 + 1e-9


def test_compare_rank_mismatch():
    v = asymp_compare(RhoForm(np.diag([1.0, 0.0])), RhoForm(np.eye(2)))
    assert not v.equivalent
    assert "rank" in v.reason
    assert v.k1 is None and v.k2 is None


def test_compare_crossed_kernels():
    # equal ranks but different kernels: the spill check must catch it
    v = asymp_compare(RhoForm(np.diag([1.0, 0.0])), RhoForm(np.diag([0.0, 1.0])))
    assert not v.equivalent
    assert "kernel" in v.reason


def test_compare_zero_forms():
    v = asymp_compare(RhoForm(np.zeros((2, 2))), RhoForm(np.zeros((2, 2))))
    assert v.equivalent and (v.k1, v.k2) == (1.0, 1.0)


def test_compare_agrees_with_sampling_oracle():
    rng = np.random.default_rng(23)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        qa, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if trial % 3 == 0:
            # engineered shared kernel of dimension 1
            da = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [0.0]])
            db = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [0.0]])
            a = RhoForm(qa @ np.diag(da) @ qa.T)
            b = RhoForm(qa @ np.diag(db) @ qa.T)
        elif trial % 3 == 1:
            g1 = rng.standard_normal((n, n))
            g2 = rng.standard_normal((n, n))
            a, b = RhoForm(g1 @ g1.T), RhoForm(g2 @ g2.T)
        else:
            # kernel mismatch on purpose
            da = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [0.0]])
            a = RhoForm(qa @ np.diag(da) @ qa.T)
            b = RhoForm(np.eye(n))
        verdict = asymp_compare(a, b)
        ok, lo, hi = mc_compare(a.matrix, b.matrix, samples=400, seed=trial)
        assert verdict.equivalent == ok
        if verdict.equivalent:
            assert verdict.k1 <= lo + 1e-9
            assert hi <= verdict.k2 + 1e-9
            # the stored unit vectors attain the bounds
            assert b(verdict.x_min) == pytest.approx(verdict.k1 * a(verdict.x_min), abs=1e-8)
            assert b(verdict.x_max) == pytest.approx(verdict.k2 * a(verdict.x_max), abs=1e-8)


# ------------------------------------------------------------ marked maps


def test_operator_class_tags():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert OperatorMatrix(rot, "iso").klass == "iso"
    with pytest.raises(ClassViolation):
        OperatorMatrix(2.0 * rot, "iso")
    with pytest.raises(ClassViolation):
        OperatorMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), "inj")
    with pytest.raises(ClassViolation):
        OperatorMatrix(np.ones((2, 3)), "inj-cl")  # wide cannot be injective
    OperatorMatrix(np.ones((3, 1)), "inj")
    with pytest.raises(ClassViolation):
        OperatorMatrix(np.diag([1e-11, 1.0]), "inj")  # at the default tol_rank
    OperatorMatrix(np.diag([1e-11, 1.0]), "inj", tol_rank=1e-30)
    with pytest.raises(ClassViolation):
        OperatorMatrix(np.eye(2), "inj", singular_values=[1.0, 0.0])  # taken as given
    OperatorMatrix(np.zeros((2, 2)), "any")
    with pytest.raises(ValueError):
        OperatorMatrix(rot, "surj")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("klass", ["any", "inj", "iso"])
def test_operator_matrix_rejects_non_finite_entries(bad, klass):
    with pytest.raises(InvalidValue, match="finite"):
        OperatorMatrix([[1.0, 0.0], [bad, 1.0]], klass)


def test_transport_form_is_conjugation():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3))
    p = RhoForm(g @ g.T)
    u = rng.standard_normal((2, 3))
    assert np.allclose(transport_form(u, p).matrix, u @ p.matrix @ u.T)


# ------------------------------------------------------- witnessed verdicts


def test_def_equivalence_reflexive_with_identity():
    f = standard_basis(2)
    v = def_equivalent_with_witness(f, f, np.eye(2), np.eye(2))
    assert v.equivalent
    assert np.allclose(v.constants, (1.0, 1.0, 1.0, 1.0), atol=1e-12)


def test_def_equivalence_through_inverse_root():
    f = BesselFamily("real", 2, [1.0] * 3, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    u, u_tilde = onb_witness(f)
    v = def_equivalent_with_witness(f, standard_basis(2), u, u_tilde)
    assert v.equivalent
    assert np.allclose(v.constants, (1.0, 1.0, 1.0, 1.0), atol=1e-9)


def test_def_equivalence_detects_rank_gap():
    lone = BesselFamily("real", 2, [1.0], np.array([[1.0], [0.0]]))
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = rng.standard_normal((2, 2))
        u = u + 3.0 * np.eye(2)  # keep it comfortably injective
        v = def_equivalent_with_witness(lone, standard_basis(2), u, np.linalg.inv(u))
        assert not v.equivalent
    with pytest.raises(DimensionMismatch):
        def_equivalent_with_witness(lone, standard_basis(2), np.eye(3), np.eye(3))


# ------------------------------------------------------------ frame bounds


def test_frame_bounds():
    v = is_frame(standard_basis(2))
    assert v.is_frame and (v.lower, v.upper) == (1.0, 1.0)
    v = is_frame(mercedes())
    assert v.is_frame
    assert v.lower == pytest.approx(1.5, abs=1e-12)
    assert v.upper == pytest.approx(1.5, abs=1e-12)
    lone = BesselFamily("real", 2, [1.0], np.array([[1.0], [0.0]]))
    assert not is_frame(lone).is_frame


def test_onb_witness_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_family(rng, dim=3)
        if not is_frame(f).is_frame:
            continue
        u, u_tilde = onb_witness(f)
        p = frame_operator(f).matrix
        assert np.linalg.norm(u.matrix @ p @ u.matrix.conj().T - np.eye(3), 2) < 1e-10
        assert np.linalg.norm(u_tilde.matrix @ u.matrix - np.eye(3), 2) < 1e-9


def test_onb_witness_scalar_for_tight_frames():
    u, u_tilde = onb_witness(mercedes())
    assert np.allclose(u.matrix, np.sqrt(2.0 / 3.0) * np.eye(2), atol=1e-12)
    assert np.allclose(u_tilde.matrix, np.sqrt(1.5) * np.eye(2), atol=1e-12)


def test_onb_witness_reads_tol_rank_and_no_svd(monkeypatch):
    # P = diag(1e-22, 1) is a frame only below the default tolerance; the
    # roots' singular values 1e11, 1 and 1e-11, 1 come from P's eigenvalues
    f = BesselFamily("real", 2, [1.0, 1.0], np.diag([1e-11, 1.0]))
    with pytest.raises(NotAFrame):
        onb_witness(f)

    def no_svd(*args, **kwargs):
        raise AssertionError("onb_witness ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    u, u_tilde = onb_witness(f, tol_rank=1e-30)
    assert (u.klass, u_tilde.klass) == ("inj", "inj")
    assert np.array_equal(u.matrix, np.diag([1e11, 1.0]))
    assert np.array_equal(u_tilde.matrix, np.diag([1e-11, 1.0]))


def test_onb_witness_requires_a_frame():
    lone = BesselFamily("real", 2, [1.0], np.array([[1.0], [0.0]]))
    with pytest.raises(NotAFrame):
        onb_witness(lone)


# -------------------------------------------------------- adjoint identity


def test_adjoint_identity():
    assert adjoint_identity_check(mercedes(), np.eye(2)) == 0.0
    rng = np.random.default_rng(29)
    for _ in range(10):
        alpha = rng.standard_normal((2, 2))
        assert adjoint_identity_check(mercedes(), alpha) < 1e-12
    for _ in range(10):
        f = random_family(rng, dim=3, field="complex")
        cols = int(rng.integers(2, 4))
        alpha = rng.standard_normal((3, cols)) + 1j * rng.standard_normal((3, cols))
        assert adjoint_identity_check(f, alpha) < 1e-12
    with pytest.raises(DimensionMismatch):
        adjoint_identity_check(mercedes(), np.eye(3))


def test_adjoint_identity_on_a_real_family_takes_alpha_as_real():
    f = standard_basis(2, "real")
    for alpha in (np.array([[1, 1j], [0, 1]]), [[1, 1j], [0, 1]]):
        with pytest.raises(InvalidValue):
            adjoint_identity_check(f, alpha)
    assert adjoint_identity_check(f, np.array([[1, 2 + 0j], [0, 1]])) == 0.0


# ------------------------------------------------------------ phase action


def test_phase_action_identity():
    f = mercedes()
    g = phase_unitary_act(f, np.eye(2), np.ones(3))
    assert g.field == "real"
    assert np.allclose(g.vectors, f.vectors)


def test_phase_action_rotation_preserves_identity_operator():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = phase_unitary_act(standard_basis(2), rot, np.ones(2))
    assert np.allclose(frame_operator(g).matrix, np.eye(2), atol=1e-12)


def test_phase_action_conjugates_the_operator():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = random_family(rng, dim=3, field="complex")
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, f.count))
        g = phase_unitary_act(f, q, phases)
        want = q @ frame_operator(f).matrix @ q.conj().T
        assert np.linalg.norm(frame_operator(g).matrix - want, 2) <= 1e-12 * max(
            1.0, float(np.linalg.norm(want, 2))
        )


def test_phase_action_guards():
    f = standard_basis(2)
    with pytest.raises(NotUnitary):
        phase_unitary_act(f, 2.0 * np.eye(2), np.ones(2))
    with pytest.raises(BadPhase):
        phase_unitary_act(f, np.eye(2), np.array([1.0, 0.5]))
    with pytest.raises(DimensionMismatch):
        phase_unitary_act(f, np.eye(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        phase_unitary_act(f, np.eye(2), np.ones(3))
    # non-finite input fails the unitarity and modulus tests, not a later one
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(NotUnitary):
            phase_unitary_act(f, u, np.ones(2))
        with pytest.raises(BadPhase):
            phase_unitary_act(f, np.eye(2), np.array([1.0, bad]))
    # a complex phase forces the complex field even for real data
    g = phase_unitary_act(f, np.eye(2), np.array([1j, 1.0]))
    assert g.field == "complex"


# ------------------------------------------------- cached frame forms


def gaussian_pair(rng, dim, field):
    """Two families of 2 * dim Gaussian vectors and an invertible witness pair."""
    def family():
        vecs = rng.standard_normal((dim, 2 * dim))
        if field == "complex":
            vecs = vecs + 1j * rng.standard_normal((dim, 2 * dim))
        return BesselFamily(field, dim, rng.uniform(0.5, 2.0, 2 * dim), vecs)

    u = rng.standard_normal((dim, dim)) + 3.0 * np.sqrt(dim) * np.eye(dim)
    return family(), family(), u, np.linalg.inv(u)


def one_question(f, g, u, u_tilde):
    """The calls of one comparison question about the pair (f, g)."""
    shape_only = np.eye(f.count)
    return (
        is_frame(f),
        onb_witness(f),
        def_equivalent_with_witness(f, g, u, u_tilde),
        bridge_equivalent(f, g, u.conj().T, shape_only, u_tilde.conj().T, shape_only),
    )


def test_one_question_builds_each_form_once(monkeypatch):
    f, g, u, u_tilde = gaussian_pair(np.random.default_rng(21), 4, "complex")
    built = []
    init = RhoForm.__init__

    def spy(self, matrix):
        built.append(sys._getframe(1).f_code.co_name)
        init(self, matrix)

    monkeypatch.setattr(RhoForm, "__init__", spy)
    frame_operator.cache_clear()
    one_question(f, g, u, u_tilde)
    assert built.count("frame_operator") == 2
    # the bridge reads the direct test's answer: two transported forms, not four
    assert built.count("transport_form") == 2 and len(built) == 4


def uncached(m):
    """Within this context no witnessed comparison is served from the last answer."""
    m.setattr(frames, "frame_operator", frame_operator.__wrapped__)
    m.setattr(frames, "_contents_key", lambda a: object())  # a key equal to no other


@pytest.mark.parametrize("field", ["real", "complex"])
def test_cached_forms_and_verdicts_equal_the_uncached_computation(field, monkeypatch):
    rng = np.random.default_rng(5)
    for dim in (4, 16, 64, 128):
        f, g, u, u_tilde = gaussian_pair(rng, dim, field)
        for fam in (f, g):
            cached, fresh = frame_operator(fam), frame_operator.__wrapped__(fam)
            for attr in ("matrix", "eigenvalues", "eigenvectors"):
                assert np.array_equal(getattr(cached, attr), getattr(fresh, attr))
        frame_operator.cache_clear()
        with_cache = one_question(f, g, u, u_tilde)
        assert with_cache[3].forward is with_cache[2].forward  # the bridge was served
        with monkeypatch.context() as m:
            uncached(m)
            without = one_question(f, g, u, u_tilde)
        assert without[3].forward is not without[2].forward
        assert with_cache[0] == without[0]
        for a, b in zip(with_cache[1], without[1]):
            assert np.array_equal(a.matrix, b.matrix)
        for dv, dw in zip(with_cache[2:], without[2:]):
            assert dv.equivalent == dw.equivalent
            for cv, cw in ((dv.forward, dw.forward), (dv.backward, dw.backward)):
                assert (cv.equivalent, cv.k1, cv.k2, cv.reason) == (cw.equivalent, cw.k1, cw.k2, cw.reason)
                assert np.array_equal(cv.x_min, cw.x_min) and np.array_equal(cv.x_max, cw.x_max)


def test_a_witness_changed_in_place_is_compared_again(monkeypatch):
    f, g, u, u_tilde = gaussian_pair(np.random.default_rng(8), 4, "real")
    first = def_equivalent_with_witness(f, g, u, u_tilde)
    assert def_equivalent_with_witness(f, g, u, u_tilde) is first
    u[0, 0] += 1.0
    again = def_equivalent_with_witness(f, g, u, u_tilde)
    assert again is not first
    # an equal copy is the same question
    assert def_equivalent_with_witness(f, g, u.copy(), u_tilde.copy()) is again
    with monkeypatch.context() as m:
        uncached(m)
        fresh = def_equivalent_with_witness(f, g, u, u_tilde)
    assert again.constants == fresh.constants != first.constants
    # the same values in another dtype are another question too
    assert def_equivalent_with_witness(f, g, u.astype(complex), u_tilde) is not again


def test_another_tol_rank_is_another_question():
    f = standard_basis(2)
    u = np.diag([1.0, 1e-6])  # carries f's form to diag(1, 1e-12)
    strict = def_equivalent_with_witness(f, f, u, np.eye(2))
    assert not strict.equivalent and strict.forward.reason == "kernel mismatch: ranks differ"
    loose = def_equivalent_with_witness(f, f, u, np.eye(2), tol_rank=1e-14)
    assert loose.equivalent
    assert def_equivalent_with_witness(f, f, u, np.eye(2)) is not loose


def test_a_new_question_frees_the_last_one_s_families():
    rng = np.random.default_rng(4)
    f, g, u, u_tilde = gaussian_pair(rng, 3, "real")
    def_equivalent_with_witness(f, g, u, u_tilde)
    gone = weakref.ref(f), weakref.ref(g)
    del f, g
    h, k, u, u_tilde = gaussian_pair(rng, 3, "real")
    def_equivalent_with_witness(h, k, u, u_tilde)
    gc.collect()
    assert gone[0]() is None and gone[1]() is None


def test_a_shared_verdict_s_vectors_are_read_only():
    f, g, u, u_tilde = gaussian_pair(np.random.default_rng(6), 3, "complex")
    dv = def_equivalent_with_witness(f, g, u, u_tilde)
    assert dv.equivalent
    for cv in (dv.forward, dv.backward):
        for x in (cv.x_min, cv.x_max):
            with pytest.raises(ValueError):
                x[0] = 0.0


@pytest.mark.parametrize("equivalent, eighs", [(True, 6), (False, 5)])
def test_one_question_makes_each_eigendecomposition_once(monkeypatch, equivalent, eighs):
    # two frame forms, two transported forms and one whitening per comparison
    # that reaches it; a kernel mismatch stops the forward one before it
    rng = np.random.default_rng(9)
    f, g, u, u_tilde = gaussian_pair(rng, 5, "real")
    if not equivalent:
        u = _invertible(rng, 5, rank=4)
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    frame_operator.cache_clear()
    answers = one_question(f, g, u, u_tilde)
    assert answers[2].equivalent == answers[3].equivalent == equivalent
    assert len(calls) == eighs


def test_cache_keeps_at_most_two_families_alive():
    rng = np.random.default_rng(3)
    f, g, h = (gaussian_pair(rng, 3, "real")[0] for _ in range(3))
    frame_operator(f)
    gone = weakref.ref(f)
    del f
    frame_operator(g)
    gc.collect()
    assert gone() is not None  # still one of the last two asked
    frame_operator(h)
    gc.collect()
    assert gone() is None
    assert frame_operator.cache_info().currsize == 2


def test_family_and_form_arrays_are_read_only():
    vecs, weights = np.eye(2, dtype=complex), np.array([1.0, 2.0])
    f = BesselFamily("complex", 2, weights, vecs)
    # views, not copies, and the caller's own arrays stay writeable
    assert np.shares_memory(f.vectors, vecs) and np.shares_memory(f.weights, weights)
    assert vecs.flags.writeable and weights.flags.writeable
    p = frame_operator(f)
    for a in (f.vectors, f.weights, p.matrix, p.eigenvalues, p.eigenvectors):
        with pytest.raises(ValueError):
            a[0] = 0.0


# ---------------------------------------------------- real data stays real


AGREE_RTOL = float(np.sqrt(np.finfo(float).eps))  # constants of a real case and its complex cast


def _invertible(rng, n, rank=None):
    """Q1 diag(s) Q2 with singular values in [0.5, 2], those past ``rank`` zeroed."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(0.5, 2.0, n)
    s[n if rank is None else rank:] = 0.0
    return (q1 * s) @ q2


def real_case(rng, trial):
    """An all-real question (weights, vectors of f and of g, u, u_tilde) at dim 1 to 16.

    By ``trial``: both families frames and the witnesses invertible, or a
    witness that loses a direction, or f of rank dim // 2 carried to g by
    the witness or by another map (kernels cross), or zero families.
    """
    n = 1 + trial % 16
    kind = trial % 6
    m = 2 * n
    w, wt = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
    v, vt = rng.standard_normal((n, m)), rng.standard_normal((n, m))
    u = _invertible(rng, n)
    u_tilde = np.linalg.inv(u)
    if kind == 1:
        u = _invertible(rng, n, rank=n - max(1, n // 4))
    elif kind in (2, 3):
        r = n // 2
        v = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        vt = (u if kind == 2 else _invertible(rng, n)) @ v
        wt = w
    elif kind == 4:
        v = vt = np.zeros((n, m))
    elif kind == 5:
        v = np.zeros((n, m))
    return w, v, wt, vt, u, u_tilde


def ask_all(field, w, v, wt, vt, u, u_tilde):
    """Every numeric verdict about the question, and the forms built for it."""
    f, g = BesselFamily(field, len(v), w, v), BesselFamily(field, len(vt), wt, vt)
    try:
        onb = onb_witness(f)
    except NotAFrame:
        onb = None
    return {
        "is_frame": is_frame(f),
        "onb": onb,
        "compare": asymp_compare(frame_operator(f), frame_operator(g)),
        "def": def_equivalent_with_witness(f, g, u, u_tilde),
        "bridge": bridge_equivalent(
            f, g, u.conj().T, np.zeros((g.count, f.count)), u_tilde.conj().T, np.zeros((f.count, g.count))
        ),
    }


def compare_verdicts(answers):
    a = answers
    return [a["compare"], a["def"].forward, a["def"].backward, a["bridge"].forward, a["bridge"].backward]


def _close(x, y, scale):
    return abs(x - y) <= AGREE_RTOL * max(abs(y), scale)


def test_real_questions_agree_with_their_complex_cast_and_stay_real(monkeypatch):
    built = []
    init = RhoForm.__init__

    def spy(self, matrix):
        init(self, matrix)
        built.append(self)

    monkeypatch.setattr(RhoForm, "__init__", spy)
    rng = np.random.default_rng(2028)
    kinds_equivalent = set()
    for trial in range(240):  # every dim 1 to 16 with each of the six kinds, 2.5 times
        case = real_case(rng, trial)
        built.clear()
        real = ask_all("real", *case)
        real_forms = list(built)
        built.clear()
        w, v, wt, vt, u, u_tilde = case
        cplx = ask_all("complex", w, v.astype(complex), wt, vt.astype(complex),
                       u.astype(complex), u_tilde.astype(complex))
        assert real_forms and built
        for p in real_forms:
            assert (p.matrix.dtype, p.eigenvectors.dtype) == (np.float64, np.float64), trial
        for p in built:
            assert (p.matrix.dtype, p.eigenvectors.dtype) == (np.complex128, np.complex128), trial

        fr, fc = real["is_frame"], cplx["is_frame"]
        assert fr.is_frame == fc.is_frame, trial
        assert _close(fr.upper, fc.upper, 0.0) and _close(fr.lower, fc.lower, fc.upper), trial
        assert (real["onb"] is None) == (cplx["onb"] is None) == (not fr.is_frame), trial
        if real["onb"] is not None:
            for a, b in zip(real["onb"], cplx["onb"]):
                assert a.matrix.dtype == np.float64 and a.klass == b.klass
                assert np.linalg.norm(a.matrix - b.matrix, 2) <= AGREE_RTOL * np.linalg.norm(b.matrix, 2)
        assert real["def"].equivalent == cplx["def"].equivalent, trial
        assert real["bridge"].equivalent == cplx["bridge"].equivalent == real["def"].equivalent, trial
        for vr, vc in zip(compare_verdicts(real), compare_verdicts(cplx)):
            assert (vr.equivalent, vr.reason) == (vc.equivalent, vc.reason), trial
            if vr.equivalent:
                assert _close(vr.k1, vc.k1, 0.0) and _close(vr.k2, vc.k2, 0.0), trial
                kinds_equivalent.add(trial % 6)
            for x in (vr.x_min, vr.x_max):
                assert x is None or x.dtype == np.float64, trial
    # the rank-deficient and zero kinds reach an equivalent comparison too
    assert kinds_equivalent >= {0, 2, 4}


def test_a_complex_witness_gives_a_real_family_complex_forms():
    rng = np.random.default_rng(12)
    w, v, wt, vt, u, u_tilde = real_case(rng, 8)  # dim 9, f of rank 4 carried to g by u
    f, g = BesselFamily("real", len(v), w, v), BesselFamily("real", len(vt), wt, vt)
    assert frame_operator(f).matrix.dtype == np.float64
    uc = u * np.exp(0.3j)  # the same witness up to a phase: the verdict cannot change
    assert transport_form(uc, frame_operator(f)).matrix.dtype == np.complex128
    dv = def_equivalent_with_witness(f, g, uc, u_tilde)
    assert dv.equivalent
    # only the forward comparison reads the complex witness
    assert dv.forward.x_min.dtype == np.complex128 and dv.backward.x_min.dtype == np.float64
    assert np.allclose(dv.constants, def_equivalent_with_witness(f, g, u, u_tilde).constants, rtol=AGREE_RTOL)
