"""frames-compare: the numeric layers only, on seeded pairs of weighted families.

Each task asks one comparison question of a pair (f, f~) at dim 4, 16,
64 or 128, real or complex: ``is_frame`` and ``onb_witness`` on f, then
``def_equivalent_with_witness`` and ``bridge_equivalent`` through the
same witnesses.  Half the witnesses are invertible (equivalent), half
rank-deficient (kernel mismatch).  Small dims are bound by Python
overhead, large ones by LAPACK; the categorical layers never run.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from morpheq import frames, seminorm_bridge

import reference
from task import Task, mismatch

# (dim, tasks per field); the p50 task is a dim-16 one, away from a size edge
SIZES = ((4, 12), (16, 12), (64, 4), (128, 2))
FIELDS = ("real", "complex")
PROBES = 8


def _gauss(rng, field, *shape):
    z = rng.standard_normal(shape)
    return z + 1j * rng.standard_normal(shape) if field == "complex" else z


def witness_matrix(rng, field, n, rank):
    """Q1 diag(s) Q2 with singular values in [0.5, 2], the last n - rank zeroed."""
    q1, _ = np.linalg.qr(_gauss(rng, field, n, n))
    q2, _ = np.linalg.qr(_gauss(rng, field, n, n))
    s = rng.uniform(0.5, 2.0, n)
    s[rank:] = 0.0
    return (q1 * s) @ q2


class Case:
    """Raw inputs of one comparison question, and the program's views of them."""

    def __init__(self, rng, n, field, equivalent):
        m = 2 * n
        self.label = f"dim {n} {field} {'equivalent' if equivalent else 'kernel-mismatch'}"
        self.n, self.field, self.equivalent = n, field, equivalent
        self.w, self.v = rng.uniform(0.5, 2.0, m), _gauss(rng, field, n, m)
        self.wt, self.vt = rng.uniform(0.5, 2.0, m), _gauss(rng, field, n, m)
        self.u = witness_matrix(rng, field, n, n if equivalent else n - max(1, n // 4))
        self.ut = witness_matrix(rng, field, n, n)
        self.probes = [_gauss(rng, "complex", n) for _ in range(PROBES)]
        self.f = frames.BesselFamily(field, n, self.w, self.v)
        self.ft = frames.BesselFamily(field, n, self.wt, self.vt)
        self.shape_only = np.eye(m)
        self._ref = None

    def ref(self):
        """Reference matrices and frame bounds, formed from the raw vectors."""
        if self._ref is None:
            p = reference.frame_matrix(self.w, self.v)
            pt = reference.frame_matrix(self.wt, self.vt)
            lam = np.linalg.eigvalsh(p)
            self._ref = p, pt, float(lam[0]), float(lam[-1])
        return self._ref


class Workload:
    MIN_PASSES = 1

    def __init__(self, root, seed):
        rng = np.random.default_rng(seed)
        self.cases = [
            Case(rng, n, field, i % 2 == 0)
            for n, count in SIZES
            for field in FIELDS
            for i in range(count)
        ]
        self.constants = []  # (case, forward (k1, k2), backward (l1, l2)) for the final check

    def tasks(self):
        return [Task(c.label, partial(compare, c), partial(self.check, c)) for c in self.cases]

    def check(self, case, output):
        errors = check(case, output)
        dv = output[2]
        if dv.equivalent and not errors:
            self.constants.append((case, (dv.forward.k1, dv.forward.k2), (dv.backward.k1, dv.backward.k2)))
        return errors

    def finish(self):
        """Optimal constants against scipy's generalized eigensolver.

        Run once after the timed passes, so scipy's import stays out of
        the task process's memory while the tasks run.
        """
        errors = []
        tol = reference.tolerance(np.complex128)
        expected = {}
        for case, fwd, bwd in self.constants:
            if id(case) not in expected:
                p, pt, _, _ = case.ref()
                pushed = case.u @ p @ case.u.conj().T  # f's form carried to f~'s space
                pulled = case.ut @ pt @ case.ut.conj().T  # f~'s form carried to f's space
                expected[id(case)] = (reference.generalized_extremes(pushed, pt),
                                      reference.generalized_extremes(pulled, p))
            for what, got, want in zip(("forward", "backward"), (fwd, bwd), expected[id(case)]):
                if not np.allclose(got, want, rtol=tol, atol=0.0):
                    errors.append(mismatch(case.label, f"{what} (k1, k2)", got, want))
        return errors


def compare(case):
    fv = frames.is_frame(case.f)
    onb = frames.onb_witness(case.f)
    dv = frames.def_equivalent_with_witness(case.f, case.ft, case.u, case.ut)
    bv = seminorm_bridge.bridge_equivalent(
        case.f, case.ft, case.u.conj().T, case.shape_only, case.ut.conj().T, case.shape_only,
    )
    return fv, onb, dv, bv


def check(case, output):
    fv, (u_inv, u_root), dv, bv = output
    tol = reference.tolerance(np.complex128)
    label = case.label
    p, pt, lo, hi = case.ref()
    errors = []
    if not fv.is_frame:
        errors.append(mismatch(label, "is_frame", fv.is_frame, True))
    if abs(fv.lower - lo) > tol * hi or abs(fv.upper - hi) > tol * hi:
        errors.append(mismatch(label, "frame bounds", (fv.lower, fv.upper), (lo, hi)))
    n = case.n
    white = u_inv.matrix @ p @ u_inv.matrix.conj().T
    if np.linalg.norm(white - np.eye(n), 2) > tol or np.linalg.norm(u_root.matrix @ u_inv.matrix - np.eye(n), 2) > tol:
        errors.append(f"{label}: onb_witness does not whiten the form to I")
    if dv.equivalent != case.equivalent:
        return errors + [mismatch(label, "verdict", dv.equivalent, case.equivalent)]
    if bv.equivalent != dv.equivalent:
        errors.append(mismatch(label, "bridge verdict", bv.equivalent, dv.equivalent))
    if not case.equivalent:
        if dv.forward.equivalent or not (dv.forward.reason or "").startswith("kernel mismatch"):
            errors.append(mismatch(label, "forward reason", dv.forward.reason, "kernel mismatch"))
        return errors
    sides = (
        ("forward", dv.forward, bv.forward, case.u.conj().T, (case.w, case.v), (case.wt, case.vt)),
        ("backward", dv.backward, bv.backward, case.ut.conj().T, (case.wt, case.vt), (case.w, case.v)),
    )
    for what, cv, bcv, pull, src, tgt in sides:
        if not np.allclose((bcv.k1, bcv.k2), (cv.k1, cv.k2), rtol=tol, atol=0.0):
            errors.append(mismatch(label, f"bridge {what} constants", (bcv.k1, bcv.k2), (cv.k1, cv.k2)))

        def a(x, pull=pull, src=src):
            return reference.analysis_norm(*src, pull @ x)

        def b(x, tgt=tgt):
            return reference.analysis_norm(*tgt, x)

        for z in case.probes:
            if cv.k1 * a(z) > b(z) * (1 + tol) or b(z) > cv.k2 * a(z) * (1 + tol):
                errors.append(f"{label}: {what} bounds fail at a probe")
                break
        for k, x in ((cv.k1, cv.x_min), (cv.k2, cv.x_max)):
            if abs(b(x) - k * a(x)) > tol * max(b(x), k * a(x)):
                errors.append(f"{label}: {what} bound {k!r} not attained at its stored vector")
    return errors
