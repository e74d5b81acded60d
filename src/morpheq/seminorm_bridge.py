"""Scaled-operator seminorms and the transport bridge into frame numerics.

A seminorm on a finite-dimensional space is represented by a pair
(scale c, operator A) meaning x -> c * ||A x||.  This class is closed
under the three parameter maps used throughout:

    sigma(m):  (c, A) -> (c * ||A||_op, m)     -- scaled pullback norm
    tau1(m):   (c, A) -> (c, A @ m)            -- precomposition
    tau2(m):   (c, A) -> (c * ||A||_op, I)     -- sup times ambient norm

All maps run contravariantly: a morphism m from H1 to H2 carries
seminorms on H2 to seminorms on H1.  tau1 and tau2 respect composition;
sigma deliberately does not, and ``non_functoriality_gap`` measures the
pointwise discrepancy.

Weighted coefficient spaces are presented in coordinates where the
inner product is the standard one, so the analysis operator of a
weighted family f is the matrix diag(sqrt(mu)) V* and its pullback norm
is exactly the family's quadratic seminorm.  ``bridge_equivalent``
decides two-sided comparability of two families through transport
operators and returns the four scalar cells certifying it; its verdict
is the direct spectral test in ``frames``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidValue
from .frames import (
    TOL_PSD,
    TOL_RANK,
    BesselFamily,
    DefEquivVerdict,
    _as_operator,
    def_equivalent_with_witness,
)

_DOM_SLACK = 1e-9


class SeminormRep:
    """The seminorm x -> scale * ||op x|| on op's domain space."""

    def __init__(self, scale, op):
        self.scale = float(scale)
        if not np.isfinite(self.scale) or self.scale < 0:
            raise InvalidValue(f"scale must be finite and nonnegative, got {scale!r}")
        self.op = _as_operator(op)

    @property
    def matrix(self):
        return self.op.matrix

    @property
    def dim(self):
        """Dimension of the space the seminorm lives on."""
        return self.op.matrix.shape[1]

    def __call__(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}, got {x.shape}")
        return self.scale * float(np.linalg.norm(self.matrix @ x))

    def sup_unit_sphere(self):
        """Largest value on the unit sphere: scale times the spectral norm."""
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return self.scale * (float(s[0]) if len(s) else 0.0)

    @property
    def dominated(self):
        """Whether the seminorm is bounded by the ambient norm."""
        return self.sup_unit_sphere() <= 1.0 + _DOM_SLACK

    def gram(self):
        """scale^2 * op* op — the quadratic form the seminorm squares to."""
        a = self.matrix
        g = (self.scale**2) * (a.conj().T @ a)
        return (g + g.conj().T) / 2.0

    def scaled(self, r) -> "SeminormRep":
        return SeminormRep(self.scale * float(r), self.op)

    def __repr__(self):
        return f"SeminormRep(scale={self.scale!r}, dim={self.dim})"


def ambient_norm(dim) -> SeminormRep:
    return SeminormRep(1.0, np.eye(dim))


def eval_seminorm(s: SeminormRep, x) -> float:
    return s(x)


def leq_seminorm(s: SeminormRep, t: SeminormRep, *, tol=TOL_PSD) -> bool:
    """True iff t <= s pointwise, decided on the squared quadratic forms."""
    if s.dim != t.dim:
        raise DimensionMismatch(f"seminorms live on dims {s.dim} and {t.dim}")
    gs, gt = s.gram(), t.gram()
    w = np.linalg.eigvalsh(gs - gt)
    ref = max(
        float(np.linalg.eigvalsh(gs)[-1]),
        float(np.linalg.eigvalsh(gt)[-1]),
    )
    if ref == 0.0:
        return True
    return float(w[0]) >= -tol * ref


def cell_holds(c, src: SeminormRep, tgt: SeminormRep, *, tol=TOL_PSD) -> bool:
    """Whether the scalar c is a valid cell src => tgt, i.e. c * tgt <= src."""
    return leq_seminorm(src, tgt.scaled(c), tol=tol)


_PARAM_KINDS = ("sigma", "tau1", "tau2")


def apply_param(which, m, s: SeminormRep) -> SeminormRep:
    """Carry the seminorm s backwards along m by one of the three maps.

    m runs from its domain space to s's space; the result lives on m's
    domain.  sigma keeps only the sup of s; tau1 precomposes; tau2
    keeps only the sup and forgets the shape entirely.
    """
    if which not in _PARAM_KINDS:
        raise ValueError(f"unknown parameter map {which!r}")
    mo = _as_operator(m)
    rows, cols = mo.matrix.shape
    if s.dim != rows:
        raise DimensionMismatch(
            f"seminorm lives on dim {s.dim} but the morphism has codomain dim {rows}"
        )
    if which == "sigma":
        return SeminormRep(s.sup_unit_sphere(), mo)
    if which == "tau1":
        return SeminormRep(s.scale, s.matrix @ mo.matrix)
    return SeminormRep(s.sup_unit_sphere(), np.eye(cols))


def non_functoriality_gap(m, m_bar, s: SeminormRep, probes) -> float:
    """Max pointwise gap between staged and composed sigma along m then m_bar.

    The staged route applies sigma twice; the composed route applies it
    once to the composite morphism.  tau1/tau2 would give gap zero here;
    sigma generally does not.
    """
    mo, mb = _as_operator(m), _as_operator(m_bar)
    if mb.matrix.shape[1] != mo.matrix.shape[0]:
        raise DimensionMismatch(
            f"cannot compose {mb.matrix.shape} after {mo.matrix.shape}"
        )
    staged = apply_param("sigma", mo, apply_param("sigma", mb, s))
    composed = apply_param("sigma", mb.matrix @ mo.matrix, s)
    gap = 0.0
    for x in probes:
        gap = max(gap, abs(staged(x) - composed(x)))
    return gap


def weighted_analysis_rep(f: BesselFamily) -> SeminormRep:
    """The family's quadratic seminorm as a (1, analysis matrix) pair."""
    return SeminormRep(1.0, f.weighted_analysis_matrix())


def bridge_composite(f: BesselFamily, u1, u2, s: SeminormRep) -> SeminormRep:
    """Closed form of the three-stage transport of s through (u1, f, u2).

    u1 maps the target space into f's space; u2 maps f's coefficient
    space into s's space's index side.  The closed form is
    (scale * ||op||, W_f @ u1) where W_f is the weighted analysis
    matrix — only the sup of s survives the middle stage.
    """
    u1o, u2o = _as_operator(u1), _as_operator(u2)
    if u1o.matrix.shape[0] != f.dim:
        raise DimensionMismatch(f"u1 must land in dim {f.dim}, got {u1o.matrix.shape}")
    if u2o.matrix.shape != (s.dim, f.count):
        raise DimensionMismatch(
            f"u2 must be {s.dim} x {f.count}, got {u2o.matrix.shape}"
        )
    w = f.weighted_analysis_matrix()
    return SeminormRep(s.sup_unit_sphere(), w @ u1o.matrix)


def bridge_composite_staged(f: BesselFamily, u1, u2, s: SeminormRep) -> SeminormRep:
    """The same transport computed stage by stage, for cross-checking."""
    after_tau2 = apply_param("tau2", u2, s)
    after_sigma = apply_param("sigma", f.weighted_analysis_matrix(), after_tau2)
    return apply_param("tau1", u1, after_sigma)


@dataclass(frozen=True)
class BridgeVerdict(DefEquivVerdict):
    """Two-sided transport comparison of a pair of families.

    ``cells`` holds the four scalars (c, c_tilde, d, d_tilde) =
    (K1, 1/K2, L1, 1/L2) built from the forward and backward optimal
    constants; they exist exactly when ``equivalent``.
    """

    @property
    def cells(self):
        if not self.equivalent:
            return None
        k1, k2 = self.forward.k1, self.forward.k2
        l1, l2 = self.backward.k1, self.backward.k2
        return (k1, 1.0 / k2 if k2 else float("inf"), l1, 1.0 / l2 if l2 else float("inf"))


def bridge_equivalent(
    f: BesselFamily,
    f_tilde: BesselFamily,
    u1,
    u2,
    v1,
    v2,
    *,
    tol_rank=TOL_RANK,
) -> BridgeVerdict:
    """Decide whether the transported seminorm of each family bounds the other.

    u1 carries f_tilde's space into f's and v1 the reverse; u2/v2 move
    coefficient spaces and only their shapes matter, since the middle
    stage keeps nothing but a sup.  The verdict and constants are the
    direct witnessed comparison of the two quadratic forms under u1*, v1*.
    """
    u1o, v1o = _as_operator(u1), _as_operator(v1)
    u2o, v2o = _as_operator(u2), _as_operator(v2)
    if u1o.matrix.shape != (f.dim, f_tilde.dim):
        raise DimensionMismatch(
            f"u1 must be {f.dim} x {f_tilde.dim}, got {u1o.matrix.shape}"
        )
    if v1o.matrix.shape != (f_tilde.dim, f.dim):
        raise DimensionMismatch(
            f"v1 must be {f_tilde.dim} x {f.dim}, got {v1o.matrix.shape}"
        )
    if u2o.matrix.shape != (f_tilde.count, f.count):
        raise DimensionMismatch(
            f"u2 must be {f_tilde.count} x {f.count}, got {u2o.matrix.shape}"
        )
    if v2o.matrix.shape != (f.count, f_tilde.count):
        raise DimensionMismatch(
            f"v2 must be {f.count} x {f_tilde.count}, got {v2o.matrix.shape}"
        )
    direct = def_equivalent_with_witness(
        f, f_tilde, u1o.matrix.conj().T, v1o.matrix.conj().T, tol_rank=tol_rank
    )
    return BridgeVerdict(direct.equivalent, direct.forward, direct.backward)
