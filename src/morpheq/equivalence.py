"""Witnessed equivalence of morphisms relative to a 2-categorical parameter.

The parameter is a bundle (c, d, sigma, tau1, tau2): a finite category
``c``, a finite strict 2-category ``d``, two functors ``tau1``, ``tau2``
and a bare morphism assignment ``sigma``, all three agreeing on objects.
Two morphisms ``m: A -> B`` and ``mt: At -> Bt`` of ``c`` are equivalent
when there are comparison morphisms ``u1: B -> Bt``, ``u2: At -> A``,
``v1: Bt -> B``, ``v2: A -> At`` in ``c`` together with 2-cells of ``d``

    phi:       tau1(u1) . sigma(m) . tau2(u2) => sigma(mt)
    phi_tilde: sigma(mt) => tau1(u1) . sigma(m) . tau2(u2)
    psi:       tau1(v1) . sigma(mt) . tau2(v2) => sigma(m)
    psi_tilde: sigma(m) => tau1(v1) . sigma(mt) . tau2(v2)

Witness search is deterministic: identifiers are enumerated in
lexicographic order and the first witness found is returned.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .catkernel import FiniteCategory, Finite2Category, FunctorData, MorphismFunction, Violation, _raise_on
from .errors import InvalidPremise, NotComposable


@dataclass(frozen=True)
class Witness:
    """The eight components of one equivalence witness."""

    u1: str
    u2: str
    v1: str
    v2: str
    phi: str
    phi_tilde: str
    psi: str
    psi_tilde: str


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failure: str | None = None

    def __bool__(self):
        return self.ok


class EquivData:
    """The parameter bundle (c, d, sigma, tau1, tau2).

    The witness search asks it, through ``_least_factors``, for the least
    comparison pair giving each composite it tries.  A generic bundle
    answers from the side index kept for the search and the classes sweep
    (``_sides``); a bundle that knows its composites, as a delooped slice
    does, answers from them.
    """

    def __init__(self, c: FiniteCategory, d: Finite2Category, sigma: MorphismFunction,
                 tau1: FunctorData, tau2: FunctorData, *, validate=True):
        self.c = c
        self.d = d
        self.sigma = sigma
        self.tau1 = tau1
        self.tau2 = tau2
        # the caches of the search and the classes sweep (_least_u2, _sides):
        # the tau2-image of each u2 hom-set, a row per left and u2 hom-set,
        # and each side's composites with their least (u1, u2)
        self._images, self._rows, self._sides = {}, {}, {}
        if validate:
            _raise_on(self.violations())

    def violations(self):
        """Every violated parameter condition (empty iff lawful).

        c and d are checked by their own validators, not here.
        """
        bad = []
        parts = (("sigma", self.sigma), ("tau1", self.tau1), ("tau2", self.tau2))
        for name, part in parts:
            if part.source is not self.c or part.target is not self.d:
                bad.append(Violation("wrong-ends", name))
        if bad:
            return bad
        omap = self.sigma.object_map
        if self.tau1.object_map != omap or self.tau2.object_map != omap:
            bad.append(Violation("object-map-disagree", "sigma/tau1/tau2"))
        for name, part in parts:
            bad.extend(Violation(f"{name}:{v.code}", v.detail) for v in part.validate())
        return bad

    def composite(self, u1, m, u2):
        """The 1-cell tau1(u1) . sigma(m) . tau2(u2) of d.

        Requires u1 to start where m ends and u2 to end where m starts.
        """
        c, d = self.c, self.d
        if c.dom(u1) != c.cod(m):
            raise NotComposable(f"dom({u1!r}) != cod({m!r})")
        if c.cod(u2) != c.dom(m):
            raise NotComposable(f"cod({u2!r}) != dom({m!r})")
        inner = d.compose(self.sigma(m), self.tau2(u2))
        return d.compose(self.tau1(u1), inner)

    def _least_factors(self, m, bt, at):
        """A function mapping each 1-cell x of d to the least (u1, u2), with
        u1: cod m -> bt and u2: at -> dom m, whose composite
        tau1(u1) . sigma(m) . tau2(u2) is x, or to None when there is none;
        read from m's side of the kept index (``_sides``)."""
        return _sides(self, m, bt, (at,))[at].get


def verify_witness(e: EquivData, m, m_tilde, w: Witness) -> VerifyResult:
    """Check all eight boundary conditions; name the first failing one."""
    c, d = e.c, e.d
    am, at = c.arrow(m), c.arrow(m_tilde)
    sig_m, sig_mt = e.sigma(m), e.sigma(m_tilde)

    u1, u2, v1, v2 = (c.arrow(w.u1), c.arrow(w.u2), c.arrow(w.v1), c.arrow(w.v2))
    if (u1.dom, u1.cod) != (am.cod, at.cod):
        return VerifyResult(False, "u1 boundary")
    if (u2.dom, u2.cod) != (at.dom, am.dom):
        return VerifyResult(False, "u2 boundary")
    if (v1.dom, v1.cod) != (at.cod, am.cod):
        return VerifyResult(False, "v1 boundary")
    if (v2.dom, v2.cod) != (am.dom, at.dom):
        return VerifyResult(False, "v2 boundary")

    x = e.composite(w.u1, m, w.u2)
    y = e.composite(w.v1, m_tilde, w.v2)
    phi, phi_t = d.cell(w.phi), d.cell(w.phi_tilde)
    psi, psi_t = d.cell(w.psi), d.cell(w.psi_tilde)
    if (phi.src, phi.tgt) != (x, sig_mt):
        return VerifyResult(False, "phi boundary")
    if (phi_t.src, phi_t.tgt) != (sig_mt, x):
        return VerifyResult(False, "phi_tilde boundary")
    if (psi.src, psi.tgt) != (y, sig_m):
        return VerifyResult(False, "psi boundary")
    if (psi_t.src, psi_t.tgt) != (sig_m, y):
        return VerifyResult(False, "psi_tilde boundary")
    return VerifyResult(True)


def _least_u2(e: EquivData, lrow, over, at, a):
    """Each composite left . tau2(u2) of d over u2: at -> a, mapped to the least
    u2 giving it, read from left's composition row ``lrow`` and its
    absorbing id ``over``: the row ``_sides`` reads per left and at.

    The tau2-image of the hom-set, each image mapped to the least u2 with
    it, is kept on e.  The composites are read from the smaller side: the
    image, each looked up in the row, or the entries the row stores, each
    kept when its column is in the image.  The absorbing id goes to the
    least u2 whose image the row does not store, among the first
    len(row) + 1 of the image.
    """
    image = e._images.get((at, a))
    if image is None:
        image = e._images[(at, a)] = {}
        tau2 = e.tau2.morphism_map
        for u2 in e.c.hom(at, a):
            image.setdefault(tau2[u2], u2)
    out = {}
    if len(image) <= len(lrow):
        for y, u2 in image.items():
            out.setdefault(lrow.get(y, over), u2)
        return out
    for y, x in lrow.items():
        u2 = image.get(y)
        if u2 is not None and (x not in out or u2 < out[x]):
            out[x] = u2
    for y, u2 in image.items():
        if y not in lrow:
            if over not in out or u2 < out[over]:
                out[over] = u2
            break
    return out


def _sides(e: EquivData, m, bt, ats):
    """{at: the side of m over cod m -> bt and at -> dom m} for each at of
    ``ats``: each composite tau1(u1).sigma(m).tau2(u2), mapped to the least
    (u1, u2) giving it.  Sides are kept on e by (sigma(m), cod m, bt, at,
    dom m).  The missing ones are filled in one walk over the distinct
    lefts tau1(u1).sigma(m), u1 in (sorted, so string) order, reading each
    left's ``_least_u2`` row over each at: a composite takes the first u1
    whose row holds it, with that row's u2, which is the least pair.
    """
    c, skel = e.c, e.d.skeleton
    a, sig = c.arrow(m), e.sigma(m)
    keys = {at: (sig, a.cod, bt, at, a.dom) for at in ats}
    new = {at: {} for at, key in keys.items() if key not in e._sides}
    if new:
        rows, tau1, over = skel.rows, e.tau1.morphism_map, skel.compose_table.absorbing
        lefts = {}  # each distinct left, with its first u1
        for u1 in c.hom(a.cod, bt):
            left = rows[tau1[u1]].get(sig, over)
            if left not in lefts:
                lefts[left] = u1
        for left, u1 in lefts.items():
            for at, side in new.items():
                key = (left, at, a.dom)
                row = e._rows.get(key)
                if row is None:
                    row = e._rows[key] = _least_u2(e, rows[left], over, at, a.dom)
                for x, u2 in row.items():
                    if x not in side:
                        side[x] = (u1, u2)
        for at, side in new.items():
            e._sides[keys[at]] = side
    return {at: e._sides[key] for at, key in keys.items()}


def _side_search(e: EquivData, m_from, m_to):
    """First (u1, u2, fwd, bwd) with cells both ways, in lexicographic order.

    Looks for u1: cod(m_from) -> cod(m_to), u2: dom(m_to) -> dom(m_from)
    and 2-cells  tau1(u1).sigma(m_from).tau2(u2) <=> sigma(m_to).  The
    qualifying composites are those in ``d.linked_to(target)``: for each,
    the bundle gives the least (u1, u2) composing to it
    (``e._least_factors``), and the least of those is the answer (two
    composites never share one), with the least of ``d.cells_between``
    each way.
    """
    d = e.d
    a_to = e.c.arrow(m_to)
    target = e.sigma(m_to)
    least = e._least_factors(m_from, a_to.cod, a_to.dom)
    hits = [(pair, x) for x in d.linked_to(target) if (pair := least(x)) is not None]
    if not hits:
        return None
    (u1, u2), x = min(hits)
    return u1, u2, d.cells_between(x, target)[0], d.cells_between(target, x)[0]


def are_equivalent(e: EquivData, m, m_tilde):
    """Decide equivalence; return (verdict, witness or None).

    The returned witness is the lexicographically first one in the
    component order (u1, u2, phi, phi_tilde, v1, v2, psi, psi_tilde);
    the two sides of the search are independent, so the first witness
    factors into the first u-side and the first v-side.
    """
    e.c.arrow(m)
    e.c.arrow(m_tilde)
    u_side = _side_search(e, m, m_tilde)
    if u_side is None:
        return False, None
    v_side = _side_search(e, m_tilde, m)
    if v_side is None:
        return False, None
    u1, u2, phi, phi_t = u_side
    v1, v2, psi, psi_t = v_side
    return True, Witness(u1, u2, v1, v2, phi, phi_t, psi, psi_t)


def derive_reflexivity(e: EquivData, m) -> Witness:
    """Identity comparison morphisms and identity 2-cells on sigma(m)."""
    c, d = e.c, e.d
    a = c.arrow(m)
    ident = d.id_two(e.sigma(m))
    w = Witness(
        u1=c.id_of(a.cod), u2=c.id_of(a.dom),
        v1=c.id_of(a.cod), v2=c.id_of(a.dom),
        phi=ident, phi_tilde=ident, psi=ident, psi_tilde=ident,
    )
    return w


def derive_symmetry(e: EquivData, m, m_tilde, w: Witness) -> Witness:
    """Swap the two halves of a witness for (m, m_tilde)."""
    got = verify_witness(e, m, m_tilde, w)
    if not got:
        raise InvalidPremise(f"witness fails: {got.failure}")
    return Witness(
        u1=w.v1, u2=w.v2, v1=w.u1, v2=w.u2,
        phi=w.psi, phi_tilde=w.psi_tilde, psi=w.phi, psi_tilde=w.phi_tilde,
    )


def derive_transitivity(e: EquivData, m, m_bar, m_barbar, w1: Witness, w2: Witness) -> Witness:
    """Compose a witness for (m, m_bar) with one for (m_bar, m_barbar).

    Comparison morphisms compose in c; the 2-cells are pasted by
    whiskering the inner cell with the outer comparison images and
    composing vertically with the outer cell.
    """
    for (a, b, w) in ((m, m_bar, w1), (m_bar, m_barbar, w2)):
        got = verify_witness(e, a, b, w)
        if not got:
            raise InvalidPremise(f"witness for ({a!r}, {b!r}) fails: {got.failure}")
    c, d = e.c, e.d
    tau1, tau2 = e.tau1.morphism_map, e.tau2.morphism_map

    def sandwich(cell, left, right):
        # 1_{tau1(left)} *h cell *h 1_{tau2(right)} as two whiskerings
        return d.whisker_left(tau1[left], d.whisker_right(cell, tau2[right]))

    u1 = c.compose(w2.u1, w1.u1)
    u2 = c.compose(w1.u2, w2.u2)
    v1 = c.compose(w1.v1, w2.v1)
    v2 = c.compose(w2.v2, w1.v2)
    phi = d.vcomp(w2.phi, sandwich(w1.phi, w2.u1, w2.u2))
    phi_tilde = d.vcomp(sandwich(w1.phi_tilde, w2.u1, w2.u2), w2.phi_tilde)
    psi = d.vcomp(w1.psi, sandwich(w2.psi, w1.v1, w1.v2))
    psi_tilde = d.vcomp(sandwich(w2.psi_tilde, w1.v1, w1.v2), w1.psi_tilde)
    return Witness(u1, u2, v1, v2, phi, phi_tilde, psi, psi_tilde)


def _members(bits):
    """The positions of the set bits of ``bits``, least first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _union(bitsets):
    """The OR of some Python-int bitsets."""
    return functools.reduce(operator.or_, bitsets, 0)


def equivalence_classes(e: EquivData):
    """Partition of all morphisms of c: sorted blocks, listed by least member.

    One sweep, with no pair search.  Morphism i of the sorted list is bit
    i of a Python int.  Each morphism m gets its reach, the set of mt for
    which ``_side_search(e, m, mt)`` finds a u-side: for each hom-set
    At -> Bt, its members whose sigma is linked to a composite of m's side
    over cod m -> Bt and At -> dom m.  ``mask(x)`` holds the mt whose sigma
    lies in ``d.linked_to(x)``, and the reach ORs it over the sides' keys.

    A block is the morphisms that reach its least member and that it
    reaches, the two sides ``are_equivalent`` asks.  This is exact on a
    lawful bundle, where the relation is reflexive, symmetric and
    transitive (the derive_* witnesses).  Masks and reaches last for one
    call; the sides (``_sides``) are kept on ``e``, shared with the
    witness search.
    """
    c, d = e.c, e.d
    sigma = e.sigma.morphism_map
    items = sorted(c.morphisms)
    by_sigma, homs = {}, {}  # homs[Bt][At]: the morphisms At -> Bt
    for i, m in enumerate(items):
        a = c.morphisms[m]
        by_sigma[sigma[m]] = by_sigma.get(sigma[m], 0) | 1 << i
        ats = homs.setdefault(a.cod, {})
        ats[a.dom] = ats.get(a.dom, 0) | 1 << i

    @functools.cache
    def mask(x):
        return _union(map(by_sigma.get, d.linked_to(x), itertools.repeat(0)))

    reach = []
    for m in items:
        got = 0
        for bt, ats in homs.items():
            for at, side in _sides(e, m, bt, ats).items():
                got |= ats[at] & _union(map(mask, side))
        reach.append(got)

    blocks = []
    placed = 0
    for i in range(len(items)):
        if not placed >> i & 1:
            block = 1 << i
            for j in _members(reach[i] & ~placed & ~block):
                if reach[j] >> i & 1:
                    block |= 1 << j
            placed |= block
            blocks.append([items[j] for j in _members(block)])
    return blocks
