"""Table-driven finite categories and strict 2-categories.

Everything is stored as explicit finite tables over opaque string
identifiers, so every axiom instance can be checked exhaustively.
Composition tables are keyed ``(second, first)`` and read "second after
first": the entry for ``(g, f)`` is ``g . f`` and requires
``cod(f) == dom(g)``.

Validation is eager: the constructors raise :class:`InvalidInstance`
unless told otherwise, and ``validate()`` returns the full list of
violated axiom instances as data for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InterchangeViolation,
    InvalidInstance,
    NotComposable,
    UnknownId,
)


@dataclass(frozen=True)
class Violation:
    """One violated axiom instance: a short code plus the offending ids."""

    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class Arrow:
    """A morphism or 1-cell record."""

    id: str
    dom: str
    cod: str


@dataclass(frozen=True)
class Cell:
    """A 2-cell record between parallel 1-cells."""

    id: str
    src: str
    tgt: str


def _as_arrows(items):
    out = []
    for it in items:
        if isinstance(it, Arrow):
            out.append(it)
        else:
            i, d, c = it
            out.append(Arrow(i, d, c))
    return out


class FiniteCategory:
    """A finite category given by identity and composition tables."""

    def __init__(self, objects, morphisms, identity, compose, *, validate=True):
        self.objects = tuple(objects)
        arrows = _as_arrows(morphisms)
        self.morphisms = {a.id: a for a in arrows}
        if len(self.morphisms) != len(arrows):
            raise InvalidInstance([Violation("duplicate-id", "repeated morphism id")])
        self.identity = dict(identity)
        self.compose_table = dict(compose)
        self._check_refs()
        self._hom = {}
        for a in self.morphisms.values():
            self._hom.setdefault((a.dom, a.cod), []).append(a.id)
        for key in self._hom:
            self._hom[key].sort()
        if validate:
            report = self.validate()
            if report:
                raise InvalidInstance(report)

    def _check_refs(self):
        objs = set(self.objects)
        for a in self.morphisms.values():
            if a.dom not in objs or a.cod not in objs:
                raise UnknownId(f"morphism {a.id!r} has unknown endpoint")
        for x, m in self.identity.items():
            if x not in objs:
                raise UnknownId(f"identity table mentions unknown object {x!r}")
            if m not in self.morphisms:
                raise UnknownId(f"identity of {x!r} is unknown morphism {m!r}")
        for (g, f), h in self.compose_table.items():
            for m in (g, f, h):
                if m not in self.morphisms:
                    raise UnknownId(f"compose table mentions unknown morphism {m!r}")

    # -- accessors ----------------------------------------------------

    def arrow(self, m):
        try:
            return self.morphisms[m]
        except KeyError:
            raise UnknownId(f"unknown morphism {m!r}") from None

    def dom(self, m):
        return self.arrow(m).dom

    def cod(self, m):
        return self.arrow(m).cod

    def id_of(self, x):
        try:
            return self.identity[x]
        except KeyError:
            raise UnknownId(f"unknown object {x!r}") from None

    def hom(self, a, b):
        """Morphisms a -> b, sorted by identifier."""
        return tuple(self._hom.get((a, b), ()))

    def compose(self, g, f):
        """The composite g . f (g after f)."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            pass
        ga, fa = self.arrow(g), self.arrow(f)
        if fa.cod != ga.dom:
            raise NotComposable(f"cod({f!r}) = {fa.cod!r} != dom({g!r}) = {ga.dom!r}")
        raise InvalidInstance([Violation("compose-missing", f"({g}, {f})")])

    # -- validation ---------------------------------------------------

    def validate(self):
        """Return every violated category axiom instance (empty iff lawful)."""
        bad = []
        mor = self.morphisms
        comp = self.compose_table
        for x in self.objects:
            m = self.identity.get(x)
            if m is None:
                bad.append(Violation("identity-missing", x))
                continue
            a = mor[m]
            if a.dom != x or a.cod != x:
                bad.append(Violation("identity-boundary", f"id of {x} is {m}: {a.dom}->{a.cod}"))
        for g in mor.values():
            for f in mor.values():
                if f.cod == g.dom and (g.id, f.id) not in comp:
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
            if comp[(self.identity[f.cod], f.id)] != f.id:
                bad.append(Violation("unit-left", f.id))
            if comp[(f.id, self.identity[f.dom])] != f.id:
                bad.append(Violation("unit-right", f.id))
        for f in mor.values():
            for g in mor.values():
                if g.dom != f.cod:
                    continue
                gf = comp[(g.id, f.id)]
                for h in mor.values():
                    if h.dom != g.cod:
                        continue
                    if comp[(h.id, gf)] != comp[(comp[(h.id, g.id)], f.id)]:
                        bad.append(Violation("assoc", f"({h.id}, {g.id}, {f.id})"))
        return bad

    @classmethod
    def from_dict(cls, data, *, validate=True):
        return cls(
            data["objects"],
            [(m["id"], m["dom"], m["cod"]) for m in data["morphisms"]],
            data["identity"],
            {(g, f): h for g, f, h in data["compose"]},
            validate=validate,
        )


def _built_on_read(name):
    """A table attribute that the builder fills, with its two siblings, on first read."""

    def build(self):
        self._fill_tables(*self._tables())
        return self.__dict__[name]

    return cached_property(build)


class Finite2Category:
    """A finite strict 2-category over explicit whiskering and vcomp tables.

    Horizontal composition of 2-cells is derived from the two whiskering
    orders.  ``validate()`` checks the sesquicategory axioms and then that
    those orders agree (interchange): a lawful 1-skeleton; vcomp making each
    hom a category; whiskering by a 1-cell a functor of homs (identities and
    vertical composites kept), trivial along identity 1-cells, repeated
    along composites, and commuting with whiskering on the other side.  Such
    a sesquicategory is a strict 2-category (R. Street, "Categorical
    structures", Handbook of Algebra 1, 1996; J. G. Stell, "Modelling term
    rewriting systems by sesqui-categories", 1994), so the middle-four
    exchange holds as a theorem and is not checked apart.

    The vcomp and whiskering tables are given either as three mappings or,
    through ``tables``, as one zero-argument callable returning the three;
    the callable runs the first time one of them is read (``validate()``,
    ``vcomp``, ``whisker_*``, ``hcomp`` or the table attributes).  The
    cells, the skeleton and the boundary index are always built eagerly.
    """

    def __init__(
        self,
        objects,
        one_cells,
        identity,
        compose,
        two_cells,
        identity2,
        vcomp=None,
        whisker_left=None,
        whisker_right=None,
        *,
        tables=None,
        validate=True,
    ):
        self.skeleton = FiniteCategory(objects, one_cells, identity, compose, validate=False)
        cells = [c if isinstance(c, Cell) else Cell(*c) for c in two_cells]
        self.two_cells = {c.id: c for c in cells}
        if len(self.two_cells) != len(cells):
            raise InvalidInstance([Violation("duplicate-id", "repeated 2-cell id")])
        self.identity2 = dict(identity2)
        self._check_refs()
        if tables is None:
            self._fill_tables(vcomp, whisker_left, whisker_right)
        else:
            self._tables = tables
        self._by_boundary = {}
        for c in cells:
            self._by_boundary.setdefault((c.src, c.tgt), []).append(c.id)
        for key in self._by_boundary:
            self._by_boundary[key].sort()
        # 1-cell -> the 1-cells with a 2-cell to it and a 2-cell from it
        self._linked = {}
        for f, g in self._by_boundary:
            if (g, f) in self._by_boundary:
                self._linked.setdefault(g, set()).add(f)
        if validate:
            report = self.validate()
            if report:
                raise InvalidInstance(report)

    def _check_refs(self):
        ones = self.skeleton.morphisms
        twos = self.two_cells
        for c in twos.values():
            if c.src not in ones or c.tgt not in ones:
                raise UnknownId(f"2-cell {c.id!r} has unknown boundary")
        for f, a in self.identity2.items():
            if f not in ones or a not in twos:
                raise UnknownId(f"identity2 entry ({f!r}, {a!r}) has unknown id")

    def _fill_tables(self, vcomp, whisker_left, whisker_right):
        # plain instance attributes: once set, the cached properties are
        # never consulted again, so a read costs an attribute lookup
        self.vcomp_table = dict(vcomp)
        self.wl_table = dict(whisker_left)
        self.wr_table = dict(whisker_right)
        self._tables = None  # frees the builder and what it holds
        ones = self.skeleton.morphisms
        twos = self.two_cells
        for (b, a), r in self.vcomp_table.items():
            for cid in (b, a, r):
                if cid not in twos:
                    raise UnknownId(f"vcomp table mentions unknown 2-cell {cid!r}")
        for (k, a), r in self.wl_table.items():
            if k not in ones:
                raise UnknownId(f"whisker-left mentions unknown 1-cell {k!r}")
            if a not in twos or r not in twos:
                raise UnknownId("whisker-left mentions unknown 2-cell")
        for (a, k), r in self.wr_table.items():
            if k not in ones:
                raise UnknownId(f"whisker-right mentions unknown 1-cell {k!r}")
            if a not in twos or r not in twos:
                raise UnknownId("whisker-right mentions unknown 2-cell")

    vcomp_table = _built_on_read("vcomp_table")
    wl_table = _built_on_read("wl_table")
    wr_table = _built_on_read("wr_table")

    # -- accessors ----------------------------------------------------

    @property
    def objects(self):
        return self.skeleton.objects

    @property
    def one_cells(self):
        return self.skeleton.morphisms

    def cell(self, a):
        try:
            return self.two_cells[a]
        except KeyError:
            raise UnknownId(f"unknown 2-cell {a!r}") from None

    def compose(self, g, f):
        """Composite of 1-cells, g after f."""
        return self.skeleton.compose(g, f)

    def id_one(self, x):
        return self.skeleton.id_of(x)

    def id_two(self, f):
        try:
            return self.identity2[f]
        except KeyError:
            if f in self.one_cells:
                raise InvalidInstance([Violation("id2-missing", f)]) from None
            raise UnknownId(f"unknown 1-cell {f!r}") from None

    def cells_between(self, f, g):
        """2-cells f => g, sorted by identifier."""
        return tuple(self._by_boundary.get((f, g), ()))

    def vcomp(self, b, a):
        """Vertical composite b . a (b after a)."""
        try:
            return self.vcomp_table[(b, a)]
        except KeyError:
            pass
        ca, cb = self.cell(a), self.cell(b)
        if ca.tgt != cb.src:
            raise NotComposable(f"tgt({a!r}) != src({b!r})")
        raise InvalidInstance([Violation("vcomp-missing", f"({b}, {a})")])

    def whisker_left(self, k, a):
        """Whisker the 2-cell a on the left by the 1-cell k."""
        try:
            return self.wl_table[(k, a)]
        except KeyError:
            pass
        ka = self.skeleton.arrow(k)
        ca = self.cell(a)
        if ka.dom != self.skeleton.cod(ca.src):
            raise NotComposable(f"dom({k!r}) != cod(src({a!r}))")
        raise InvalidInstance([Violation("whisker-left-missing", f"({k}, {a})")])

    def whisker_right(self, a, k):
        """Whisker the 2-cell a on the right by the 1-cell k."""
        try:
            return self.wr_table[(a, k)]
        except KeyError:
            pass
        ka = self.skeleton.arrow(k)
        ca = self.cell(a)
        if ka.cod != self.skeleton.dom(ca.src):
            raise NotComposable(f"cod({k!r}) != dom(src({a!r}))")
        raise InvalidInstance([Violation("whisker-right-missing", f"({a}, {k})")])

    def hcomp(self, b, a):
        """Horizontal composite b * a, derived from the two whiskering orders.

        Raises InterchangeViolation if the orders disagree (cannot happen on
        an instance that passed validation).
        """
        ca, cb = self.cell(a), self.cell(b)
        first = self.vcomp(self.whisker_left(cb.tgt, a), self.whisker_right(b, ca.src))
        second = self.vcomp(self.whisker_right(b, ca.tgt), self.whisker_left(cb.src, a))
        if first != second:
            raise InterchangeViolation(f"hcomp({b!r}, {a!r}): {first!r} != {second!r}")
        return first

    # -- validation ---------------------------------------------------

    def validate(self):
        """Return every violated 2-category axiom instance (empty iff lawful)."""
        bad = [Violation("one:" + v.code, v.detail) for v in self.skeleton.validate()]
        if bad:
            return bad  # the 2-cell layer assumes a lawful 1-skeleton
        ones = self.skeleton.morphisms
        comp = self.skeleton.compose_table
        twos = self.two_cells
        vtab, wl, wr = self.vcomp_table, self.wl_table, self.wr_table

        for c in twos.values():
            fa, ga = ones[c.src], ones[c.tgt]
            if fa.dom != ga.dom or fa.cod != ga.cod:
                bad.append(Violation("cell-parallel", c.id))
        for f in ones:
            a = self.identity2.get(f)
            if a is None:
                bad.append(Violation("id2-missing", f))
            elif twos[a].src != f or twos[a].tgt != f:
                bad.append(Violation("id2-boundary", f"id2({f}) = {a}"))
        if bad:
            return bad

        vcomposable = []
        for b in twos.values():
            for a in twos.values():
                if a.tgt == b.src:
                    vcomposable.append((b.id, a.id))
        for pair in vcomposable:
            if pair not in vtab:
                bad.append(Violation("vcomp-missing", f"({pair[0]}, {pair[1]})"))
        for (b, a), r in vtab.items():
            if twos[a].tgt != twos[b].src:
                bad.append(Violation("vcomp-extra", f"({b}, {a})"))
            elif twos[r].src != twos[a].src or twos[r].tgt != twos[b].tgt:
                bad.append(Violation("vcomp-boundary", f"({b}, {a}) -> {r}"))

        for a in twos.values():
            acod = ones[a.src].cod
            for k in ones.values():
                if k.dom == acod and (k.id, a.id) not in wl:
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
            adom = ones[a.src].dom
            for k in ones.values():
                if k.cod == adom and (a.id, k.id) not in wr:
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
            if vtab[(self.identity2[a.tgt], a.id)] != a.id:
                bad.append(Violation("vcomp-unit-left", a.id))
            if vtab[(a.id, self.identity2[a.src])] != a.id:
                bad.append(Violation("vcomp-unit-right", a.id))
        for (b, a) in vcomposable:
            ba = vtab[(b, a)]
            for c in twos.values():
                if c.src != twos[b].tgt:
                    continue
                if vtab[(c.id, ba)] != vtab[(vtab[(c.id, b)], a)]:
                    bad.append(Violation("vcomp-assoc", f"({c.id}, {b}, {a})"))

        for a in twos.values():
            idc = self.skeleton.identity[ones[a.src].cod]
            if wl[(idc, a.id)] != a.id:
                bad.append(Violation("whisker-left-unit", a.id))
            idd = self.skeleton.identity[ones[a.src].dom]
            if wr[(a.id, idd)] != a.id:
                bad.append(Violation("whisker-right-unit", a.id))
        for f, a in self.identity2.items():
            fa = ones[f]
            for k in ones.values():
                if k.dom == fa.cod and wl[(k.id, a)] != self.identity2[comp[(k.id, f)]]:
                    bad.append(Violation("whisker-left-id2", f"({k.id}, {f})"))
                if k.cod == fa.dom and wr[(a, k.id)] != self.identity2[comp[(f, k.id)]]:
                    bad.append(Violation("whisker-right-id2", f"({f}, {k.id})"))
        for a in twos.values():
            acod = ones[a.src].cod
            for k2 in ones.values():
                if k2.dom != acod:
                    continue
                inner = wl[(k2.id, a.id)]
                for k1 in ones.values():
                    if k1.dom != k2.cod:
                        continue
                    if wl[(comp[(k1.id, k2.id)], a.id)] != wl[(k1.id, inner)]:
                        bad.append(Violation("whisker-left-functorial", f"({k1.id}, {k2.id}, {a.id})"))
            adom = ones[a.src].dom
            for k2 in ones.values():
                if k2.cod != adom:
                    continue
                inner = wr[(a.id, k2.id)]
                for k1 in ones.values():
                    if k1.cod != k2.dom:
                        continue
                    if wr[(a.id, comp[(k2.id, k1.id)])] != wr[(inner, k1.id)]:
                        bad.append(Violation("whisker-right-functorial", f"({a.id}, {k2.id}, {k1.id})"))
        if bad:
            return bad

        # whiskering keeps vertical composites, and its two sides commute
        by_dom, by_cod = {}, {}
        for k in ones.values():
            by_dom.setdefault(k.dom, []).append(k.id)
            by_cod.setdefault(k.cod, []).append(k.id)
        for (b, a) in vcomposable:
            ba = vtab[(b, a)]
            f = ones[twos[a].src]
            for k in by_dom[f.cod]:
                if wl[(k, ba)] != vtab[(wl[(k, b)], wl[(k, a)])]:
                    bad.append(Violation("whisker-left-vcomp", f"({k}, {b}, {a})"))
            for k in by_cod[f.dom]:
                if wr[(ba, k)] != vtab[(wr[(b, k)], wr[(a, k)])]:
                    bad.append(Violation("whisker-right-vcomp", f"({b}, {a}, {k})"))
        for a in twos.values():
            f = ones[a.src]
            for j in by_cod[f.dom]:
                aj = wr[(a.id, j)]
                for k in by_dom[f.cod]:
                    if wr[(wl[(k, a.id)], j)] != wl[(k, aj)]:
                        bad.append(Violation("whisker-assoc", f"({k}, {a.id}, {j})"))
        if bad:
            return bad

        # interchange: both whiskering orders of every horizontal composite agree
        for b in twos.values():
            for a in twos.values():
                if ones[a.src].cod != ones[b.src].dom:
                    continue
                one = vtab[(wl[(b.tgt, a.id)], wr[(b.id, a.src)])]
                two = vtab[(wr[(b.id, a.tgt)], wl[(b.src, a.id)])]
                if one != two:
                    bad.append(Violation("interchange-orders", f"({b.id}, {a.id})"))
        return bad

    @classmethod
    def from_dict(cls, data, *, validate=True):
        return cls(
            data["objects"],
            [(m["id"], m["dom"], m["cod"]) for m in data["one_cells"]],
            data["identity"],
            {(g, f): h for g, f, h in data["compose"]},
            [(c["id"], c["src"], c["tgt"]) for c in data["two_cells"]],
            data["identity2"],
            {(b, a): r for b, a, r in data["vcomp"]},
            {(k, a): r for k, a, r in data["whisker_left"]},
            {(a, k): r for a, k, r in data["whisker_right"]},
            validate=validate,
        )


class FunctorData:
    """A functor from a finite category to the 1-skeleton of a 2-category."""

    def __init__(self, source: FiniteCategory, target: Finite2Category, object_map, morphism_map, *, validate=True):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.morphism_map = dict(morphism_map)
        self._check_refs()
        if validate:
            report = self.validate()
            if report:
                raise InvalidInstance(report)

    def _check_refs(self):
        for x in self.source.objects:
            y = self.object_map.get(x)
            if y is None:
                raise UnknownId(f"object map misses {x!r}")
            if y not in set(self.target.objects):
                raise UnknownId(f"object map sends {x!r} to unknown {y!r}")
        for m in self.source.morphisms:
            n = self.morphism_map.get(m)
            if n is None:
                raise UnknownId(f"morphism map misses {m!r}")
            if n not in self.target.one_cells:
                raise UnknownId(f"morphism map sends {m!r} to unknown {n!r}")

    def on_object(self, x):
        return self.object_map[x]

    def __call__(self, m):
        return self.morphism_map[m]

    def validate(self):
        """Boundary compatibility plus identity and composition preservation."""
        bad = self.boundary_violations()
        src = self.source
        for x in src.objects:
            if self.morphism_map[src.id_of(x)] != self.target.id_one(self.object_map[x]):
                bad.append(Violation("functor-identity", x))
        for g in src.morphisms.values():
            for f in src.morphisms.values():
                if f.cod != g.dom:
                    continue
                gf = src.compose_table[(g.id, f.id)]
                lhs = self.morphism_map[gf]
                rhs = self.target.skeleton.compose_table.get(
                    (self.morphism_map[g.id], self.morphism_map[f.id])
                )
                if lhs != rhs:
                    bad.append(Violation("functor-compose", f"({g.id}, {f.id})"))
        return bad

    def boundary_violations(self):
        bad = []
        tgt = self.target.skeleton
        for m, a in ((m, self.source.morphisms[m]) for m in self.source.morphisms):
            img = tgt.arrow(self.morphism_map[m])
            if img.dom != self.object_map[a.dom] or img.cod != self.object_map[a.cod]:
                bad.append(Violation("map-boundary", m))
        return bad


class MorphismFunction(FunctorData):
    """A boundary-compatible morphism assignment with no composition law.

    Identity and composite preservation are deliberately not required;
    only dom/cod compatibility is checked.
    """

    def validate(self):
        return self.boundary_violations()
