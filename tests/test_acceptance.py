"""End-to-end acceptance battery.

One test per shipped guarantee.  Each test prints a single verdict line

    [criterion NN] PASS/FAIL — detail

(visible because -s is on in the pytest config) and then asserts, so a
red run still shows every verdict.  Failures are collected, not raised
at first sight, to keep the printed line honest about how much broke.
"""

import time
from fractions import Fraction

import numpy as np

from morpheq import (
    BesselFamily,
    CentralCell,
    RhoForm,
    SeminormRep,
    ambient_norm,
    apply_param,
    are_equivalent,
    asymp_compare,
    bridge_composite,
    bridge_composite_staged,
    bridge_equivalent,
    check_interchange,
    compose_cells_horizontal,
    compose_cells_vertical,
    def_equivalent_with_witness,
    delooped_equivalent,
    derive_symmetry,
    derive_transitivity,
    frame_operator,
    identity_cell,
    is_frame,
    is_two_cell,
    onb_witness,
    orbit_equivalent,
    orbit_partition,
    phase_unitary_act,
    probe_vectors,
    rho_eval,
    scalar_map,
    standard_basis,
    transport_form,
    verify_witness,
    PreordObject,
)
from morpheq.errors import NotAFrame

from instance_gen import fixed_actions, random_equiv_instance
from oracles import adjoint_identity_check, direct_weighted_norm, mc_compare, non_functoriality_gap


def _verdict(num, failures, detail):
    status = "FAIL" if failures else "PASS"
    tail = "; ".join(str(f) for f in failures[:4]) if failures else detail
    print(f"[criterion {num:02d}] {status} — {tail}", flush=True)
    assert not failures, f"criterion {num:02d}: {len(failures)} failure(s): {failures[:4]}"


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_unitary(rng, n):
    q, _ = np.linalg.qr(_crandn(rng, n, n))
    return q


def _well_conditioned(rng, n):
    """Invertible n x n with singular values in [0.5, 2]."""
    q1 = _rand_unitary(rng, n)
    q2 = _rand_unitary(rng, n)
    return q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2.conj().T


# ------------------------------------------------------------------ 01


def test_criterion_01_relation_laws_on_random_instances():
    failures = []
    t0 = time.perf_counter()
    for seed in range(100):
        e = random_equiv_instance(seed)
        ms = list(e.c.morphisms)
        if not (
            len(e.c.objects) <= 3
            and len(ms) <= 8
            and len(e.d.one_cells) <= 12
            and len(e.d.two_cells) <= 24
        ):
            failures.append(f"seed {seed}: size budget exceeded")
            continue
        rel = {}
        for a in ms:
            for b in ms:
                rel[(a, b)] = are_equivalent(e, a, b)[0]
        for a in ms:
            if not rel[(a, a)]:
                failures.append(f"seed {seed}: not reflexive at {a!r}")
        for a in ms:
            for b in ms:
                if rel[(a, b)] != rel[(b, a)]:
                    failures.append(f"seed {seed}: not symmetric at ({a!r}, {b!r})")
        for a in ms:
            for b in ms:
                if not rel[(a, b)]:
                    continue
                for c in ms:
                    if rel[(b, c)] and not rel[(a, c)]:
                        failures.append(
                            f"seed {seed}: not transitive at ({a!r}, {b!r}, {c!r})"
                        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s over the 60s budget")
    _verdict(1, failures, f"100 instances, exhaustive pairs and triples, {elapsed:.1f}s")


# ------------------------------------------------------------------ 02


def test_criterion_02_derived_witnesses_verify_and_match_the_formulas():
    failures = []
    n_sym = n_trans = 0
    for seed in range(60):
        e = random_equiv_instance(seed)
        c, d = e.c, e.d
        tau1, tau2 = e.tau1, e.tau2
        ms = list(c.morphisms)
        wit = {}
        for a in ms:
            for b in ms:
                ok, w = are_equivalent(e, a, b)
                if ok:
                    wit[(a, b)] = w

        for (a, b), w in wit.items():
            n_sym += 1
            ws = derive_symmetry(e, a, b, w)
            if not verify_witness(e, b, a, ws):
                failures.append(f"seed {seed}: symmetry witness fails on ({a!r}, {b!r})")

        for (a, b), w1 in wit.items():
            for (b2, c3), w2 in wit.items():
                if b2 != b:
                    continue
                n_trans += 1
                wt = derive_transitivity(e, a, b, c3, w1, w2)
                got = verify_witness(e, a, c3, wt)
                if not got:
                    failures.append(
                        f"seed {seed}: transitivity witness fails on "
                        f"({a!r}, {b!r}, {c3!r}): {got.failure}"
                    )
                    continue

                def sandwich(cell, left, right):
                    return d.whisker_left(tau1(left), d.whisker_right(cell, tau2(right)))

                structural = (
                    wt.u1 == c.compose(w2.u1, w1.u1)
                    and wt.u2 == c.compose(w1.u2, w2.u2)
                    and wt.v1 == c.compose(w1.v1, w2.v1)
                    and wt.v2 == c.compose(w2.v2, w1.v2)
                    and wt.phi == d.vcomp(w2.phi, sandwich(w1.phi, w2.u1, w2.u2))
                    and wt.phi_tilde
                    == d.vcomp(sandwich(w1.phi_tilde, w2.u1, w2.u2), w2.phi_tilde)
                    and wt.psi == d.vcomp(w1.psi, sandwich(w2.psi, w1.v1, w1.v2))
                    and wt.psi_tilde
                    == d.vcomp(sandwich(w2.psi_tilde, w1.v1, w1.v2), w1.psi_tilde)
                )
                boundaries = (
                    d.cell(wt.phi).src == e.composite(wt.u1, a, wt.u2)
                    and d.cell(wt.phi).tgt == e.sigma(c3)
                    and d.cell(wt.phi_tilde).src == e.sigma(c3)
                    and d.cell(wt.phi_tilde).tgt == e.composite(wt.u1, a, wt.u2)
                    and d.cell(wt.psi).src == e.composite(wt.v1, c3, wt.v2)
                    and d.cell(wt.psi).tgt == e.sigma(a)
                    and d.cell(wt.psi_tilde).src == e.sigma(a)
                    and d.cell(wt.psi_tilde).tgt == e.composite(wt.v1, c3, wt.v2)
                )
                if not structural:
                    failures.append(
                        f"seed {seed}: composite does not match the pasting formula "
                        f"on ({a!r}, {b!r}, {c3!r})"
                    )
                if not boundaries:
                    failures.append(
                        f"seed {seed}: composite boundaries disagree with the tables "
                        f"on ({a!r}, {b!r}, {c3!r})"
                    )
    if n_sym == 0 or n_trans == 0:
        failures.append(f"premises not exercised (sym {n_sym}, trans {n_trans})")
    _verdict(2, failures, f"{n_sym} symmetry + {n_trans} transitivity derivations, all verified")


# ------------------------------------------------------------------ 03


def _partition_by(eq, items):
    blocks = []
    for x in items:
        for b in blocks:
            if eq(b[0], x):
                b.append(x)
                break
        else:
            blocks.append([x])
    return sorted((sorted(b) for b in blocks), key=lambda b: b[0])


def test_criterion_03_delooped_verdicts_match_orbits_exactly():
    failures = []
    t0 = time.perf_counter()
    n_actions = 0
    for name, act in fixed_actions():
        n_actions += 1
        want = sorted((sorted(b) for b in orbit_partition(act)), key=lambda b: b[0])
        for bound in (0, 1, 2):
            for x in act.carrier:
                for y in act.carrier:
                    got, _ = delooped_equivalent(act, x, y, bound)
                    expect = orbit_equivalent(act, x, y)[0]
                    if got != expect:
                        failures.append(
                            f"{name} L={bound}: ({x}, {y}) delooped {got}, orbit {expect}"
                        )
            blocks = _partition_by(
                lambda x, y: delooped_equivalent(act, x, y, bound)[0], act.carrier
            )
            if blocks != want:
                failures.append(f"{name} L={bound}: partition {blocks} != {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s over the 10s budget")
    _verdict(
        3,
        failures,
        f"{n_actions} actions x L in {{0,1,2}}, all pairs + partitions, {elapsed:.2f}s",
    )


# ------------------------------------------------------------------ 04


def _rate_square(rng):
    """Two vertically composable scalar cells beside two more, at exact caps."""
    def frac(lo=1, hi=9):
        return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))

    b1, b2, b3 = frac(), frac(), frac()
    e1, e2, e3 = frac(), frac(), frac()
    a3, a2, a1 = b3, b3 * b2, b3 * b2 * b1
    r3, r2, r1 = e3, e3 * e2, e3 * e2 * e1
    x = PreordObject("X", [Fraction(1), Fraction(2)])
    yvals = sorted({a * v for a in (a1, a2, a3) for v in (1, 2)})
    y = PreordObject("Y", yvals)
    zvals = sorted({r * v for r in (r1, r2, r3) for v in yvals})
    z = PreordObject("Z", zvals)
    f = scalar_map("f", a1, x, y)
    g = scalar_map("g", a2, x, y)
    h = scalar_map("h", a3, x, y)
    p = scalar_map("p", r1, y, z)
    q = scalar_map("q", r2, y, z)
    r = scalar_map("r", r3, y, z)
    c = CentralCell(b1, f, g)
    c2 = CentralCell(b2, g, h)
    dd = CentralCell(e1, p, q)
    dd2 = CentralCell(e2, q, r)
    return (b1, b2, e1, e2), (f, g, h, p, q, r), (c, c2, dd, dd2)


def test_criterion_04_scaled_preorder_cells_compose_and_interchange():
    failures = []
    rng = np.random.default_rng(404)
    n_checked = 0
    for trial in range(50):
        caps, maps, cells = _rate_square(rng)
        b1, b2, e1, e2 = caps
        f, g, h, p, q, r = maps
        c, c2, dd, dd2 = cells
        try:
            for mmap in maps:
                ident = identity_cell(mmap)
                if not (
                    is_two_cell(Fraction(1), mmap, mmap) and ident.value == Fraction(1)
                ):
                    failures.append(f"trial {trial}: identity cell rejected on {mmap.name}")
            unit = compose_cells_vertical(c, identity_cell(f))
            if unit.value != c.value or not unit.src.equals(f) or not unit.tgt.equals(g):
                failures.append(f"trial {trial}: vertical unit law broken")
            left = compose_cells_vertical(c2, c)
            right = compose_cells_vertical(dd2, dd)
            if left.value != b1 * b2 or not left.src.equals(f) or not left.tgt.equals(h):
                failures.append(f"trial {trial}: left vertical composite wrong")
            if right.value != e1 * e2 or not right.src.equals(p) or not right.tgt.equals(r):
                failures.append(f"trial {trial}: right vertical composite wrong")
            beside = compose_cells_horizontal(dd, c)
            if beside.value != b1 * e1:
                failures.append(f"trial {trial}: horizontal composite value wrong")
            if not check_interchange(c, c2, dd, dd2):
                failures.append(f"trial {trial}: interchange fails")
            hz_first = compose_cells_vertical(
                compose_cells_horizontal(dd2, c2), compose_cells_horizontal(dd, c)
            )
            vert_first = compose_cells_horizontal(right, left)
            if not (
                hz_first.value == vert_first.value == b1 * b2 * e1 * e2
                and hz_first.src.equals(vert_first.src)
                and hz_first.tgt.equals(vert_first.tgt)
            ):
                failures.append(f"trial {trial}: interchange composites disagree")
            n_checked += 1
        except Exception as exc:  # any raise means an instance was rejected
            failures.append(f"trial {trial}: unexpected {type(exc).__name__}: {exc}")
    if n_checked < 50:
        failures.append(f"only {n_checked} instances ran")
    _verdict(4, failures, f"{n_checked} random rational squares, exact arithmetic")


# ------------------------------------------------------------------ 05


def test_criterion_05_weighted_norm_matches_direct_summation():
    failures = []
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(1, 7))
        field = "real" if trial % 2 == 0 else "complex"
        vecs = rng.standard_normal((dim, count))
        if field == "complex":
            vecs = vecs + 1j * rng.standard_normal((dim, count))
        weights = rng.uniform(0.2, 3.0, size=count)
        fam = BesselFamily(field, dim, weights, vecs)
        for _ in range(100):
            x = rng.standard_normal(dim)
            if field == "complex":
                x = x + 1j * rng.standard_normal(dim)
            a = rho_eval(fam, x)
            b = direct_weighted_norm(weights, vecs, x)
            scale = max(abs(a), abs(b))
            dev = abs(a - b) / scale if scale else 0.0
            worst = max(worst, dev)
            if dev > 1e-10:
                failures.append(f"trial {trial}: relative deviation {dev:.2e}")
                break
    _verdict(5, failures, f"50 families x 100 probes, worst relative dev {worst:.2e}")


# ------------------------------------------------------------------ 06


def _psd_pair(rng, trial):
    """A PSD pair: generic full-rank, engineered equal-kernel, or mismatched."""
    dim = int(rng.integers(2, 5))
    kind = ("generic", "equal-kernel", "mismatch")[trial % 3]
    if kind == "generic":
        ma, mb = _crandn(rng, dim, dim), _crandn(rng, dim, dim)
        a = ma @ ma.conj().T + np.diag(rng.uniform(0.1, 1.0, dim))
        b = mb @ mb.conj().T + np.diag(rng.uniform(0.1, 1.0, dim))
        return a, b
    if kind == "equal-kernel":
        qmat = _rand_unitary(rng, dim)
        k = int(rng.integers(1, dim))
        da = np.concatenate([np.zeros(k), rng.uniform(0.5, 3.0, dim - k)])
        db = np.concatenate([np.zeros(k), rng.uniform(0.5, 3.0, dim - k)])
        return (qmat * da) @ qmat.conj().T, (qmat * db) @ qmat.conj().T
    if trial % 2 == 0:
        qmat = _rand_unitary(rng, dim)
        da = np.concatenate([[0.0], rng.uniform(0.5, 3.0, dim - 1)])
        a = (qmat * da) @ qmat.conj().T
        mb = _crandn(rng, dim, dim)
        b = mb @ mb.conj().T + np.diag(rng.uniform(0.1, 1.0, dim))
        return a, b
    q1, q2 = _rand_unitary(rng, dim), _rand_unitary(rng, dim)
    da = np.concatenate([[0.0], rng.uniform(0.5, 3.0, dim - 1)])
    db = np.concatenate([[0.0], rng.uniform(0.5, 3.0, dim - 1)])
    return (q1 * da) @ q1.conj().T, (q2 * db) @ q2.conj().T


def test_criterion_06_compare_decider_matches_sampling_oracle():
    failures = []
    rng = np.random.default_rng(606)
    n_eq = n_neq = 0
    for trial in range(100):
        a, b = _psd_pair(rng, trial)
        pa, pb = RhoForm(a), RhoForm(b)
        verdict = asymp_compare(pa, pb)
        oracle_ok, rmin, rmax = mc_compare(a, b, samples=1000, seed=trial)
        if verdict.equivalent != oracle_ok:
            failures.append(
                f"trial {trial}: decider {verdict.equivalent} vs oracle {oracle_ok}"
            )
            continue
        if not verdict.equivalent:
            n_neq += 1
            continue
        n_eq += 1
        k1, k2 = verdict.k1, verdict.k2
        if rmin < k1 - 1e-9 * max(1.0, k1) or rmax > k2 + 1e-9 * max(1.0, k2):
            failures.append(
                f"trial {trial}: sampled ratios [{rmin:.12f}, {rmax:.12f}] "
                f"escape [{k1:.12f}, {k2:.12f}]"
            )
        at_min = pb(verdict.x_min) / pa(verdict.x_min)
        at_max = pb(verdict.x_max) / pa(verdict.x_max)
        if abs(at_min - k1) > 1e-6 * max(1.0, k1) or abs(at_max - k2) > 1e-6 * max(1.0, k2):
            failures.append(
                f"trial {trial}: probes attain ({at_min:.9f}, {at_max:.9f}) "
                f"for constants ({k1:.9f}, {k2:.9f})"
            )
    if n_eq == 0 or n_neq == 0:
        failures.append(f"one-sided coverage (eq {n_eq}, neq {n_neq})")
    _verdict(6, failures, f"100 pairs ({n_eq} comparable, {n_neq} not), oracle agrees")


# ------------------------------------------------------------------ 07


def test_criterion_07_frames_are_exactly_the_basis_equivalent_families():
    failures = []
    rng = np.random.default_rng(707)
    n_frames = n_other = 0
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        field = "real" if trial % 2 == 0 else "complex"
        if trial % 3 == 2:
            count = int(rng.integers(1, 7))
            sub = rng.standard_normal((dim, dim - 1))
            coeff = rng.standard_normal((dim - 1, count))
            if field == "complex":
                sub = sub + 1j * rng.standard_normal((dim, dim - 1))
                coeff = coeff + 1j * rng.standard_normal((dim - 1, count))
            vecs = sub @ coeff
        elif trial % 5 == 0:
            count = dim - 1
            vecs = rng.standard_normal((dim, count))
            if field == "complex":
                vecs = vecs + 1j * rng.standard_normal((dim, count))
        else:
            count = int(rng.integers(dim, 7))
            vecs = rng.standard_normal((dim, count))
            if field == "complex":
                vecs = vecs + 1j * rng.standard_normal((dim, count))
        weights = rng.uniform(0.3, 2.0, size=count)
        fam = BesselFamily(field, dim, weights, vecs)
        spanning = is_frame(fam).is_frame
        try:
            u, u_tilde = onb_witness(fam)
            dv = def_equivalent_with_witness(fam, standard_basis(dim, field), u, u_tilde)
            success = dv.equivalent
        except NotAFrame:
            dv = None
            success = False
        if spanning != success:
            failures.append(f"trial {trial}: spanning {spanning} but witness route {success}")
            continue
        if success:
            n_frames += 1
            if any(abs(k - 1.0) > 1e-9 for k in dv.constants):
                failures.append(f"trial {trial}: constants {dv.constants} not all 1")
        else:
            n_other += 1
    if n_frames == 0 or n_other == 0:
        failures.append(f"one-sided coverage (frames {n_frames}, non-frames {n_other})")
    _verdict(
        7, failures, f"{n_frames} frames + {n_other} non-frames, both directions agree"
    )


# ------------------------------------------------------------------ 08


def test_criterion_08_phase_and_unitary_moves_preserve_the_form():
    failures = []
    rng = np.random.default_rng(808)
    for trial in range(25):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(dim, 7))
        vecs = _crandn(rng, dim, count)
        weights = rng.uniform(0.3, 2.0, size=count)
        fam = BesselFamily("complex", dim, weights, vecs)
        umat = _rand_unitary(rng, dim)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
        moved = phase_unitary_act(fam, umat, phases)
        pf, pm = frame_operator(fam), frame_operator(moved)
        want = umat @ pf.matrix @ umat.conj().T
        rel = np.linalg.norm(pm.matrix - want) / np.linalg.norm(want)
        if rel > 1e-12:
            failures.append(f"trial {trial}: conjugation deviation {rel:.2e}")
        verdict = asymp_compare(transport_form(umat, pf), pm)
        if not verdict.equivalent:
            failures.append(f"trial {trial}: transported forms not comparable")
        elif abs(verdict.k1 - 1.0) > 1e-9 or abs(verdict.k2 - 1.0) > 1e-9:
            failures.append(
                f"trial {trial}: constants ({verdict.k1}, {verdict.k2}) not both 1"
            )
    _verdict(8, failures, "25 unitary+phase moves, conjugation exact, constants (1, 1)")


# ------------------------------------------------------------------ 09


def test_criterion_09_analysis_after_a_map_is_analysis_of_the_pulled_family():
    failures = []
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(1, 7))
        n_t = int(rng.integers(2, 5))
        field = "real" if trial % 2 == 0 else "complex"
        vecs = rng.standard_normal((dim, count))
        alpha = rng.standard_normal((dim, n_t))
        if field == "complex":
            vecs = vecs + 1j * rng.standard_normal((dim, count))
            alpha = alpha + 1j * rng.standard_normal((dim, n_t))
        fam = BesselFamily(field, dim, rng.uniform(0.2, 3.0, size=count), vecs)
        dev = adjoint_identity_check(fam, alpha, seed=trial)
        worst = max(worst, dev)
        if dev > 1e-10:
            failures.append(f"trial {trial}: relative deviation {dev:.2e}")
    _verdict(9, failures, f"50 (family, map) pairs, worst relative dev {worst:.2e}")


# ------------------------------------------------------------------ 10


def test_criterion_10_sup_collapse_gap_and_precomposition_laws():
    failures = []
    m = np.diag([1.0, 2.0])
    gap = non_functoriality_gap(m, m, ambient_norm(2), [np.array([1.0, 0.0])])
    if abs(gap - 1.0) > 1e-12:
        failures.append(f"documented gap is {gap!r}, expected exactly 1.0")

    rng = np.random.default_rng(1010)
    for trial in range(100):
        d0, d1, d2 = (int(rng.integers(1, 5)) for _ in range(3))
        k = int(rng.integers(1, 5))
        s = SeminormRep(float(rng.uniform(0.5, 2.0)), _crandn(rng, k, d2))
        m2 = _crandn(rng, d2, d1)
        m1 = _crandn(rng, d1, d0)
        probes = probe_vectors(d0, 8, seed=trial)
        for which in ("tau1", "tau2"):
            staged = apply_param(which, m1, apply_param(which, m2, s))
            merged = apply_param(which, m2 @ m1, s)
            for x in probes:
                a, b = staged(x), merged(x)
                if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
                    failures.append(
                        f"trial {trial}: {which} staged {a!r} != merged {b!r}"
                    )
                    break
    _verdict(
        10,
        failures,
        "gap exactly 1.0 at the documented probe; both precomposition maps compose on 100 pairs",
    )


# ------------------------------------------------------------------ 11


def test_criterion_11_bridge_route_agrees_with_the_direct_route():
    failures = []
    rng = np.random.default_rng(1111)
    n_eq = n_neq = 0
    for trial in range(50):
        if trial % 2 == 0:
            dim = int(rng.integers(1, 4))
            count_f = int(rng.integers(dim, 5))
            count_t = int(rng.integers(dim, 5))
            fam = BesselFamily(
                "complex", dim, rng.uniform(0.3, 2.0, count_f), _crandn(rng, dim, count_f)
            )
            fam_t = BesselFamily(
                "complex", dim, rng.uniform(0.3, 2.0, count_t), _crandn(rng, dim, count_t)
            )
            u1 = _well_conditioned(rng, dim)
            v1 = _well_conditioned(rng, dim)
        else:
            dim = int(rng.integers(2, 4))
            count_f = int(rng.integers(1, 5))
            count_t = int(rng.integers(dim, 5))
            sub = _crandn(rng, dim, dim - 1)
            fam = BesselFamily(
                "complex",
                dim,
                rng.uniform(0.3, 2.0, count_f),
                sub @ _crandn(rng, dim - 1, count_f),
            )
            fam_t = BesselFamily(
                "complex", dim, rng.uniform(0.3, 2.0, count_t), _crandn(rng, dim, count_t)
            )
            u1 = _crandn(rng, dim, dim)
            v1 = _crandn(rng, dim, dim)
        u2 = _crandn(rng, fam_t.count, fam.count)
        v2 = _crandn(rng, fam.count, fam_t.count)

        bv = bridge_equivalent(fam, fam_t, u1, u2, v1, v2)
        dv = def_equivalent_with_witness(fam, fam_t, u1.conj().T, v1.conj().T)
        if bv.equivalent != dv.equivalent:
            failures.append(
                f"trial {trial}: bridge {bv.equivalent} vs direct {dv.equivalent}"
            )
            continue
        if bv.equivalent:
            n_eq += 1
            same_constants = (
                bv.forward.k1 == dv.forward.k1
                and bv.forward.k2 == dv.forward.k2
                and bv.backward.k1 == dv.backward.k1
                and bv.backward.k2 == dv.backward.k2
            )
            if not same_constants:
                failures.append(f"trial {trial}: routes disagree on the constants")
        else:
            n_neq += 1

        s = SeminormRep(
            float(rng.uniform(0.5, 2.0)), _crandn(rng, int(rng.integers(1, 4)), fam_t.count)
        )
        closed = bridge_composite(fam, u1, u2, s)
        staged = bridge_composite_staged(fam, u1, u2, s)
        for x in probe_vectors(dim, 10, seed=trial):
            a, b = closed(x), staged(x)
            if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
                failures.append(f"trial {trial}: staged {b!r} != closed {a!r}")
                break
    if n_eq == 0 or n_neq == 0:
        failures.append(f"one-sided coverage (eq {n_eq}, neq {n_neq})")
    _verdict(
        11,
        failures,
        f"50 six-tuples ({n_eq} equivalent, {n_neq} not): routes agree, staging exact",
    )
