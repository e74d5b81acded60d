"""Finite Bessel families, frame operators and two-sided norm comparison.

A family is a finite list of vectors f_i in R^n or C^n with strictly
positive weights mu_i.  Its analysis map sends x to the coefficient list
(<x, f_i>)_i, measured in the weighted l2 norm, so the induced
quadratic form is x -> sqrt(x* P x) with P = sum_i mu_i f_i f_i*.

Inner products are linear in the first argument: <x, y> = y* x.

Two positive-semidefinite forms are comparable exactly when their
kernels agree; the optimal two-sided constants are then the extreme
generalized eigenvalues of the pair restricted to the common range,
computed by projecting onto that range and whitening by the reference
form's positive square root.

One dtype rule holds for every matrix here: it is complex only when an
input is complex.  A real family, form or witness stays ``float64``
from the family through to the verdict, so real data runs in real
BLAS and LAPACK; a family's field names the dtype of its vectors.

A family and its frame form are read-only values: their arrays cannot
be written.  ``frame_operator`` keeps the forms of the last two
families asked, so a question about one family or a pair (f, f~)
builds each family's form once.  ``def_equivalent_with_witness`` keeps
its last answer, keyed by the families' identity, the witnesses'
contents and ``tol_rank``, so a witnessed comparison asked twice in a
row (directly and through the bridge) is computed once; a verdict's
vectors are read-only too, since its callers share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadPhase,
    ClassViolation,
    DimensionMismatch,
    InvalidValue,
    NotAFrame,
    NotUnitary,
)

TOL_RANK = 1e-10  # relative kernel threshold
TOL_PSD = 1e-9    # relative positive-semidefiniteness slack
_HERM_TOL = 1e-12


def _as_array(a, field=None):
    """``a`` as a float or complex array: of the named field, or else of the input's kind."""
    a = np.asarray(a)
    if field is None:
        field = "complex" if np.iscomplexobj(a) else "real"
    return np.asarray(a, dtype=complex if field == "complex" else float)


def _as_matrix(m, field=None):
    a = _as_array(m, field)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    return a


def _in_field(a, field, what):
    """``a`` as an array, taken as real in a real field if its imaginary part is zero."""
    a = np.asarray(a)
    if field == "real" and np.iscomplexobj(a):
        if np.any(np.imag(a) != 0):
            raise InvalidValue(f"real family with non-real {what}")
        a = a.real
    return a


def _frozen(a):
    """A read-only view of a, sharing its memory."""
    v = a.view()
    v.flags.writeable = False
    return v


class BesselFamily:
    """A weighted finite vector family in R^n or C^n.

    A family is a value: it keeps read-only views of the arrays it is
    given, without copying them, and the caller must not change those
    arrays afterwards.
    """

    def __init__(self, field, dim, weights, vectors):
        if field not in ("real", "complex"):
            raise InvalidValue(f"field must be 'real' or 'complex', got {field!r}")
        self.field = field
        self.dim = int(dim)
        weights = np.asarray(weights)
        if np.iscomplexobj(weights) and np.any(np.imag(weights) != 0):
            raise InvalidValue("weights must be real")
        self.weights = _frozen(np.asarray(np.real(weights), dtype=float))
        self.vectors = _frozen(_as_matrix(_in_field(vectors, field, "vectors"), field))
        if self.weights.ndim != 1:
            raise DimensionMismatch("weights must be a vector")
        if self.vectors.shape != (self.dim, len(self.weights)):
            raise DimensionMismatch(
                f"vectors must be {self.dim} x {len(self.weights)}, got {self.vectors.shape}"
            )
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise InvalidValue("weights must be finite and strictly positive")
        if not np.all(np.isfinite(self.vectors)):  # a complex entry is finite when both parts are
            raise InvalidValue("vectors must be finite")

    @property
    def count(self):
        return len(self.weights)

    def analysis(self, x):
        """Coefficients <x, f_i> = f_i* x (unweighted); complex x is allowed."""
        return self.vectors.conj().T @ np.asarray(x)

    def l2mu_norm(self, coeffs):
        """Weighted coefficient norm sqrt(sum_i mu_i |c_i|^2)."""
        return float(np.sqrt(np.sum(self.weights * np.abs(np.asarray(coeffs)) ** 2)))

    def weighted_analysis_matrix(self):
        """W with ||W x||_2 equal to the weighted analysis norm of x."""
        return np.sqrt(self.weights)[:, None] * self.vectors.conj().T


def standard_basis(n, field="real"):
    return BesselFamily(field, n, np.ones(n), np.eye(n))


@lru_cache(maxsize=2)  # keyed by identity; two entries cover a pair (f, f~)
def frame_operator(f: BesselFamily) -> "RhoForm":
    """P = sum_i mu_i f_i f_i*, returned as a quadratic form."""
    v = f.vectors
    p = (v * f.weights) @ v.conj().T
    return RhoForm((p + p.conj().T) / 2.0)


class RhoForm:
    """The seminorm x -> sqrt(x* P x) of a positive-semidefinite matrix P."""

    def __init__(self, matrix):
        p = _as_matrix(matrix)
        if not np.all(np.isfinite(p)):
            raise InvalidValue("matrix must be finite")
        scale = float(np.max(np.abs(p))) if p.size else 0.0
        if scale and float(np.max(np.abs(p - p.conj().T))) > _HERM_TOL * scale:
            raise InvalidValue("matrix is not hermitian")
        p = (p + p.conj().T) / 2.0
        self.matrix = p
        w, u = np.linalg.eigh(p)
        lam_max = float(w[-1]) if len(w) else 0.0
        if len(w) and float(w[0]) < -TOL_PSD * max(lam_max, 0.0):
            raise InvalidValue(f"matrix is not positive semidefinite (min eig {w[0]:g})")
        self.eigenvalues = np.clip(w, 0.0, None)
        self.eigenvectors = u
        self.lam_max = max(lam_max, 0.0)
        for a in (p, self.eigenvalues, u):
            a.flags.writeable = False

    @property
    def dim(self):
        return self.matrix.shape[0]

    def kernel_threshold(self):
        return self.lam_max * TOL_RANK

    def rank(self):
        return int(np.sum(self.eigenvalues > self.kernel_threshold()))

    def kernel_basis(self):
        return self.eigenvectors[:, self.eigenvalues <= self.kernel_threshold()]

    def __call__(self, x):
        x = np.asarray(x)
        q = float(np.real(x.conj() @ (self.matrix @ x)))
        return float(np.sqrt(max(q, 0.0)))


def rho_eval(f: BesselFamily, x) -> float:
    """The weighted analysis norm of x."""
    return f.l2mu_norm(f.analysis(x))


@dataclass(frozen=True)
class CompareVerdict:
    """Outcome of a two-sided comparison of forms a and b.

    When ``equivalent``, ``k1 . a(x) <= b(x) <= k2 . a(x)`` for all x and
    both bounds are attained at the stored unit vectors.
    """

    equivalent: bool
    k1: float | None = None
    k2: float | None = None
    reason: str | None = None
    x_min: np.ndarray | None = None
    x_max: np.ndarray | None = None


def asymp_compare(a: RhoForm, b: RhoForm, *, tol_rank=TOL_RANK) -> CompareVerdict:
    """Decide a <~> b and return the optimal constants (K1, K2).

    The forms are comparable iff their kernels coincide (rank test at the
    relative threshold ``tol_rank``).  On the orthocomplement of the
    common kernel, K2^2 / K1^2 are the extreme generalized eigenvalues
    of b's matrix against a's.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"forms have dims {a.dim} and {b.dim}")
    thr_a, thr_b = a.lam_max * tol_rank, b.lam_max * tol_rank
    keep_a, keep_b = a.eigenvalues > thr_a, b.eigenvalues > thr_b
    ra, rb = int(np.sum(keep_a)), int(np.sum(keep_b))
    if ra == 0 and rb == 0:
        return CompareVerdict(True, 1.0, 1.0)
    if ra != rb:
        return CompareVerdict(False, reason="kernel mismatch: ranks differ")
    # not ~keep: a NaN eigenvalue (eigh returns one for a NaN input) is in neither
    ker_a = a.eigenvectors[:, a.eigenvalues <= thr_a]
    ker_b = b.eigenvectors[:, b.eigenvalues <= thr_b]
    if ker_a.shape[1]:
        spill = float(np.linalg.norm(ker_a.conj().T @ b.matrix @ ker_a, 2))
        if spill > thr_b:
            return CompareVerdict(False, reason="kernel mismatch: ker(a) not in ker(b)")
        spill = float(np.linalg.norm(ker_b.conj().T @ a.matrix @ ker_b, 2))
        if spill > thr_a:
            return CompareVerdict(False, reason="kernel mismatch: ker(b) not in ker(a)")
    # project onto the common range and whiten by a's positive square root
    q = a.eigenvectors[:, keep_a]
    inv_sqrt = 1.0 / np.sqrt(a.eigenvalues[keep_a])
    m = (inv_sqrt[:, None] * (q.conj().T @ b.matrix @ q)) * inv_sqrt[None, :]
    m = (m + m.conj().T) / 2.0
    w, y = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    k1, k2 = float(np.sqrt(w[0])), float(np.sqrt(w[-1]))

    def back(yvec):
        x = q @ (inv_sqrt * yvec)
        nrm = np.linalg.norm(x)
        return _frozen(x / nrm if nrm else x)  # callers of a kept verdict share it

    return CompareVerdict(True, k1, k2, x_min=back(y[:, 0]), x_max=back(y[:, -1]))


_CLASS_TAGS = ("any", "inj", "inj-cl", "iso")


class OperatorMatrix:
    """A matrix tagged with the morphism class it is claimed to live in.

    Tags: "any" (no constraint), "inj" / "inj-cl" (injective; every
    finite-dimensional injection has closed range), "iso" (isometry,
    A* A = I).  The tag is verified on construction: injectivity from the
    matrix's singular values at the relative threshold ``tol_rank``, by an
    SVD unless the caller already knows them (``singular_values``).
    """

    def __init__(self, matrix, klass="any", *, tol_rank=TOL_RANK, singular_values=None):
        self.matrix = _as_matrix(matrix)
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidValue("matrix must be finite")
        if klass not in _CLASS_TAGS:
            raise ValueError(f"unknown class tag {klass!r}")
        self.klass = klass
        rows, cols = self.matrix.shape
        if klass in ("inj", "inj-cl"):
            if rows < cols:
                raise ClassViolation(f"{rows} x {cols} matrix cannot be injective")
            s = np.linalg.svd(self.matrix, compute_uv=False) if singular_values is None else singular_values
            if cols and (not len(s) or np.min(s) <= np.max(s) * tol_rank):
                raise ClassViolation("matrix is not injective")
        elif klass == "iso":
            gram = self.matrix.conj().T @ self.matrix
            if float(np.linalg.norm(gram - np.eye(cols), 2)) > TOL_PSD:
                raise ClassViolation("matrix is not an isometry")

    @property
    def shape(self):
        return self.matrix.shape


def _as_operator(m) -> OperatorMatrix:
    return m if isinstance(m, OperatorMatrix) else OperatorMatrix(m)


def transport_form(u, p: RhoForm) -> RhoForm:
    """The form of the transported family: u P u*."""
    m = u.matrix if isinstance(u, OperatorMatrix) else _as_matrix(u)
    t = m @ p.matrix @ m.conj().T
    return RhoForm((t + t.conj().T) / 2.0)  # hermitian up to rounding


@dataclass(frozen=True)
class DefEquivVerdict:
    equivalent: bool
    forward: CompareVerdict
    backward: CompareVerdict

    @property
    def constants(self):
        """(K1, K2, L1, L2): forward then backward optimal constants."""
        return (self.forward.k1, self.forward.k2, self.backward.k1, self.backward.k2)


def _contents_key(m):
    """Shape, dtype and a 128-bit digest of m's bytes in C order: m's value, not its identity."""
    import hashlib  # on first use, so importing the package loads no hash module

    digest = hashlib.blake2b(np.ascontiguousarray(m), digest_size=16).digest()
    return m.shape, m.dtype.str, digest


_last_question = None  # (key, verdict) of the last witnessed comparison, replaced whole


def def_equivalent_with_witness(
    f: BesselFamily, f_tilde: BesselFamily, u, u_tilde, *, tol_rank=TOL_RANK
) -> DefEquivVerdict:
    """Both-ways comparison through a given pair of witness operators.

    ``u`` carries f's form to f_tilde's space and ``u_tilde`` the other
    way; the verdict asks that the transported form of f be comparable
    to the form of f_tilde and symmetrically.

    The last question answered is kept: the same families (by identity),
    witnesses of the same contents and the same ``tol_rank`` return the
    same read-only verdict, so ``bridge_equivalent`` asked after this
    test, or before it, compares nothing twice.
    """
    global _last_question
    u, u_tilde = _as_operator(u), _as_operator(u_tilde)
    if u.shape != (f_tilde.dim, f.dim):
        raise DimensionMismatch(f"u must be {f_tilde.dim} x {f.dim}, got {u.shape}")
    if u_tilde.shape != (f.dim, f_tilde.dim):
        raise DimensionMismatch(f"u_tilde must be {f.dim} x {f_tilde.dim}, got {u_tilde.shape}")
    key = (f, f_tilde, _contents_key(u.matrix), _contents_key(u_tilde.matrix), tol_rank)
    last = _last_question
    if last is not None and last[0] == key:
        return last[1]
    pf, pt = frame_operator(f), frame_operator(f_tilde)
    fwd = asymp_compare(transport_form(u, pf), pt, tol_rank=tol_rank)
    bwd = asymp_compare(transport_form(u_tilde, pt), pf, tol_rank=tol_rank)
    verdict = DefEquivVerdict(fwd.equivalent and bwd.equivalent, fwd, bwd)
    _last_question = (key, verdict)
    return verdict


@dataclass(frozen=True)
class FrameVerdict:
    is_frame: bool
    lower: float
    upper: float


def is_frame(f: BesselFamily, *, tol_rank=TOL_RANK) -> FrameVerdict:
    """Spanning test; the optimal frame bounds are the extreme eigenvalues."""
    p = frame_operator(f)
    lam = p.eigenvalues
    lo = float(lam[0]) if len(lam) else 0.0
    hi = float(lam[-1]) if len(lam) else 0.0
    return FrameVerdict(lo > hi * tol_rank and lo > 0.0, lo, hi)


def onb_witness(f: BesselFamily, *, tol_rank=TOL_RANK):
    """Self-adjoint witness pair (P^-1/2, P^1/2) carrying f to the standard basis.

    Both are tagged injective at ``tol_rank`` from the eigenvalues of P,
    whose roots are their singular values.
    """
    p = frame_operator(f)
    if not is_frame(f, tol_rank=tol_rank).is_frame:  # reads the same cached form
        raise NotAFrame("family has no positive lower bound")
    u_vecs = p.eigenvectors
    s = np.sqrt(p.eigenvalues)
    return tuple(
        OperatorMatrix((u_vecs * sv) @ u_vecs.conj().T, "inj", tol_rank=tol_rank, singular_values=sv)
        for sv in (1.0 / s, s)
    )


def probe_vectors(dim, count, *, seed=0, field="complex"):
    """Deterministic probe set: the standard basis, then seeded gaussians."""
    rng = np.random.default_rng(seed)
    pts = list(np.eye(dim))  # its rows: the identity is symmetric
    for _ in range(count):
        z = rng.standard_normal(dim)
        if field == "complex":
            z = z + 1j * rng.standard_normal(dim)
        pts.append(z)
    return pts


def phase_unitary_act(f: BesselFamily, u, phases) -> BesselFamily:
    """The transported family with vectors phase_i . u f_i.

    u must be unitary on f's space and every phase must lie on the unit
    circle; the result is complex unless everything involved is real.
    """
    u = np.asarray(u)
    phases = np.asarray(phases)
    if u.shape != (f.dim, f.dim):
        raise DimensionMismatch(f"u must be {f.dim} x {f.dim}, got {u.shape}")
    if phases.shape != (f.count,):
        raise DimensionMismatch(f"need {f.count} phases, got {phases.shape}")
    uc, pc = _as_array(u), _as_array(phases)
    if not np.all(np.isfinite(uc)) or np.linalg.norm(uc.conj().T @ uc - np.eye(f.dim), 2) > TOL_PSD:
        raise NotUnitary("u is not unitary")
    if not np.all(np.isfinite(pc)) or np.any(np.abs(np.abs(pc) - 1.0) > 1e-12):
        raise BadPhase("phases must have unit modulus")
    all_real = (
        f.field == "real"
        and not np.iscomplexobj(u)
        and np.all(np.isreal(phases))
    )
    field = "real" if all_real else "complex"
    vecs = pc[None, :] * (uc @ f.vectors)
    if field == "real":
        vecs = np.real(vecs)
    return BesselFamily(field, f.dim, f.weights, vecs)
