"""Table-driven finite categories and strict 2-categories.

Everything is stored as explicit finite tables over opaque string
identifiers, so every axiom instance can be checked exhaustively.
Composition reads "second after first": the entry for ``(g, f)`` is
``g . f`` and requires ``cod(f) == dom(g)``.  A category stores it as
rows ``{g: {f: g . f}}``, the form every law and the witness search
read; ``compose_table`` is a read-only view of those rows keyed
``(g, f)``, and tables are given to the constructors in that keying.

Validation is eager: the constructors raise :class:`InvalidInstance`
unless told otherwise, and ``validate()`` returns the full list of
violated axiom instances as data for reporting.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product, repeat
from operator import itemgetter, ne

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


def _index(items, key):
    """Map each key value to the items with that value, in the order given."""
    out = {}
    for it in items:
        out.setdefault(key(it), []).append(it)
    return out


def _gather(xs):
    """A function reading a row at every key of the non-empty ``xs``, as one tuple."""
    if len(xs) == 1:
        x = xs[0]
        return lambda row: (row[x],)
    return itemgetter(*xs)


def _pairwise(rows, ks, xs):
    """``rows[k][x]`` for the ``k, x`` of ``ks, xs`` taken in step, as an iterator."""
    return map(dict.__getitem__, map(rows.__getitem__, ks), xs)


def _positions(ids):
    return {x: i for i, x in enumerate(ids)}


def _in_order(found):
    """The violations of ``(key, Violation)`` pairs, sorted by key."""
    return [v for _, v in sorted(found, key=itemgetter(0))]


def _action_failures(act, groups, outers_of, composite):
    """Triples (h, g, x) with ``act[composite(h, g)][x] != act[h][act[g][x]]``.

    ``act`` maps each k to its row ``{x: k acting on x}``.  ``groups`` pairs
    a non-empty list of xs with the inner gs whose rows are read at them.
    For each such g and each outer h in ``outers_of(g)`` the law is one
    comparison of two gathered tuples, the row of h . g against the row of
    h read at the values of g's row.  Only a pair whose tuples differ is
    walked to name its failing xs.
    """
    out = []
    for xs, inners in groups:
        at_xs = _gather(xs)
        for g in inners:
            at_gx = _gather(at_xs(act[g]))
            for h in outers_of(g):
                lhs = at_xs(act[composite(h, g)])
                rhs = at_gx(act[h])
                if lhs != rhs:
                    out.extend((h, g, x) for x, l, r in zip(xs, lhs, rhs) if l != r)
    return out


def _as_arrows(items):
    out = []
    for it in items:
        if isinstance(it, Arrow):
            out.append(it)
        else:
            i, d, c = it
            out.append(Arrow(i, d, c))
    return out


class ComposeTable(Mapping):
    """A read-only view of composition rows as the mapping ``(g, f) -> g . f``.

    Nothing is copied: a lookup reads ``rows[g][f]``.  Iteration walks the
    rows, or the pairs in the order they were given when that order
    interleaves rows (``order``), so ``dict(view)`` gives back a table
    entry for entry and order for order.
    """

    __slots__ = ("rows", "_order")

    def __init__(self, rows, order=None):
        self.rows = rows
        self._order = order

    def __getitem__(self, key):
        g, f = key
        try:
            return self.rows[g][f]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self):
        if self._order is not None:
            return iter(self._order)
        return ((g, f) for g, row in self.rows.items() for f in row)

    def __len__(self):
        return sum(map(len, self.rows.values()))


def _as_rows(compose):
    """A ``ComposeTable`` over the rows of ``compose``, which maps ``(g, f)`` to
    ``g . f`` (or lists such pairs); a ``ComposeTable`` is taken as it is."""
    if isinstance(compose, ComposeTable):
        return compose
    pairs = compose if isinstance(compose, Mapping) else dict(compose)
    rows = {}
    last = row = None
    interleaved = False
    for (g, f), h in pairs.items():
        if row is None or g != last:
            interleaved = interleaved or g in rows
            row = rows.setdefault(g, {})
            last = g
        row[f] = h
    return ComposeTable(rows, tuple(pairs) if interleaved else None)


class FiniteCategory:
    """A finite category given by identity and composition tables.

    Composition is stored as rows, ``rows[g][f] = g . f``, built from the
    ``(g, f)``-keyed table given or, for a ``ComposeTable``, taken over
    without a copy.  ``compose_table`` is a read-only view of the rows that
    iterates in the given order.
    """

    def __init__(self, objects, morphisms, identity, compose, *, validate=True):
        self.objects = tuple(objects)
        arrows = _as_arrows(morphisms)
        self.morphisms = {a.id: a for a in arrows}
        if len(self.morphisms) != len(arrows):
            raise InvalidInstance([Violation("duplicate-id", "repeated morphism id")])
        self.identity = dict(identity)
        self.compose_table = _as_rows(compose)
        self.rows = self.compose_table.rows
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
        ids = set(self.morphisms)
        if ids.issuperset(self.rows) and all(
            ids.issuperset(row) and ids.issuperset(row.values()) for row in self.rows.values()
        ):
            return
        for (g, f), h in self.compose_table.items():  # name the first unknown id
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
            return self.rows[g][f]
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
        rows = self.rows
        by_dom = _index(mor, lambda m: mor[m].dom)
        by_cod = _index(mor, lambda m: mor[m].cod)
        for x in self.objects:
            m = self.identity.get(x)
            if m is None:
                bad.append(Violation("identity-missing", x))
                continue
            a = mor[m]
            if a.dom != x or a.cod != x:
                bad.append(Violation("identity-boundary", f"id of {x} is {m}: {a.dom}->{a.cod}"))
        for g in mor.values():
            row = rows.get(g.id, {})
            for f in by_cod.get(g.dom, ()):
                if f not in row:
                    bad.append(Violation("compose-missing", f"({g.id}, {f})"))
        # a row g passes when each f in it ends at dom g, and each g . f starts
        # at dom f and ends at cod g; only a table with a failing row is
        # walked, in the order it was given, to name its faults
        dom = {m: a.dom for m, a in mor.items()}
        cod = {m: a.cod for m, a in mor.items()}
        if not all(
            set(map(cod.__getitem__, row)) <= {dom[g]}
            and set(map(cod.__getitem__, row.values())) <= {cod[g]}
            and list(map(dom.__getitem__, row)) == list(map(dom.__getitem__, row.values()))
            for g, row in rows.items()
        ):
            for (g, f), h in self.compose_table.items():
                if cod[f] != dom[g]:
                    bad.append(Violation("compose-extra", f"({g}, {f})"))
                elif dom[h] != dom[f] or cod[h] != cod[g]:
                    bad.append(Violation("compose-boundary", f"({g}, {f}) -> {h}"))
        if bad:
            return bad  # unit/assoc checks assume a total, boundary-correct table
        for f in mor.values():
            if rows[self.identity[f.cod]][f.id] != f.id:
                bad.append(Violation("unit-left", f.id))
            if rows[f.id][self.identity[f.dom]] != f.id:
                bad.append(Violation("unit-right", f.id))
        # associativity as rows[h . g] = rows[h] o rows[g] on the f into dom g;
        # key (f, g, h)
        failed = _action_failures(
            rows, ((by_cod[x], gs) for x, gs in by_dom.items()),
            lambda g: by_dom.get(mor[g].cod, ()), lambda h, g: rows[h][g],
        )
        at = _positions(mor)
        bad += _in_order(
            ((at[f], at[g], at[h]), Violation("assoc", f"({h}, {g}, {f})")) for h, g, f in failed
        )
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
        rows = self.skeleton.rows
        twos = self.two_cells
        id2 = self.identity2
        vtab, wl, wr = self.vcomp_table, self.wl_table, self.wr_table
        by_dom = _index(ones, lambda k: ones[k].dom)
        by_cod = _index(ones, lambda k: ones[k].cod)
        cells_from = _index(twos, lambda c: twos[c].src)
        cells_to = _index(twos, lambda c: twos[c].tgt)

        for c in twos.values():
            fa, ga = ones[c.src], ones[c.tgt]
            if fa.dom != ga.dom or fa.cod != ga.cod:
                bad.append(Violation("cell-parallel", c.id))
        for f in ones:
            a = id2.get(f)
            if a is None:
                bad.append(Violation("id2-missing", f))
            elif twos[a].src != f or twos[a].tgt != f:
                bad.append(Violation("id2-boundary", f"id2({f}) = {a}"))
        if bad:
            return bad

        for b in twos.values():
            for a in cells_to.get(b.src, ()):
                if (b.id, a) not in vtab:
                    bad.append(Violation("vcomp-missing", f"({b.id}, {a})"))
        for (b, a), r in vtab.items():
            if twos[a].tgt != twos[b].src:
                bad.append(Violation("vcomp-extra", f"({b}, {a})"))
            elif twos[r].src != twos[a].src or twos[r].tgt != twos[b].tgt:
                bad.append(Violation("vcomp-boundary", f"({b}, {a}) -> {r}"))

        for a in twos.values():
            for k in by_dom.get(ones[a.src].cod, ()):
                if (k, a.id) not in wl:
                    bad.append(Violation("whisker-left-missing", f"({k}, {a.id})"))
        for (k, a), r in wl.items():
            if ones[k].dom != ones[twos[a].src].cod:
                bad.append(Violation("whisker-left-extra", f"({k}, {a})"))
                continue
            want_src = rows[k][twos[a].src]
            want_tgt = rows[k][twos[a].tgt]
            if twos[r].src != want_src or twos[r].tgt != want_tgt:
                bad.append(Violation("whisker-left-boundary", f"({k}, {a}) -> {r}"))

        for a in twos.values():
            for k in by_cod.get(ones[a.src].dom, ()):
                if (a.id, k) not in wr:
                    bad.append(Violation("whisker-right-missing", f"({a.id}, {k})"))
        for (a, k), r in wr.items():
            if ones[k].cod != ones[twos[a].src].dom:
                bad.append(Violation("whisker-right-extra", f"({a}, {k})"))
                continue
            want_src = rows[twos[a].src][k]
            want_tgt = rows[twos[a].tgt][k]
            if twos[r].src != want_src or twos[r].tgt != want_tgt:
                bad.append(Violation("whisker-right-boundary", f"({a}, {k}) -> {r}"))
        if bad:
            return bad

        # The tables are now total where the laws read them, and every 1-cell
        # and object has an identity cell, so no index list below is empty.
        # Each law is an equation between rows: vrow[b] is a |-> b.a,
        # wlrow[k] is a |-> k|>a and wrrow[k] is a |-> a<|k.  The failures of
        # a stage are sorted by the key named at it, the order of a loop over
        # its instances.
        vrow = {b: {} for b in twos}
        for (b, a), r in vtab.items():
            vrow[b][a] = r
        wlrow = {k: {} for k in ones}
        for (k, a), r in wl.items():
            wlrow[k][a] = r
        wrrow = {k: {} for k in ones}
        for (a, k), r in wr.items():
            wrrow[k][a] = r
        at1, at2 = _positions(ones), _positions(twos)
        by_hom, cells_starting_at, cells_ending_at = {}, {}, {}
        for c in twos.values():
            f = ones[c.src]
            by_hom.setdefault((f.dom, f.cod), []).append(c.id)
            cells_starting_at.setdefault(f.dom, []).append(c.id)
            cells_ending_at.setdefault(f.cod, []).append(c.id)

        for a in twos.values():
            if vtab[(id2[a.tgt], a.id)] != a.id:
                bad.append(Violation("vcomp-unit-left", a.id))
            if vtab[(a.id, id2[a.src])] != a.id:
                bad.append(Violation("vcomp-unit-right", a.id))
        # V(c . b) = V(c) o V(b) on the a into src(b); key (b, a, c)
        failed = _action_failures(
            vrow, ((cells_to[f], bs) for f, bs in cells_from.items()),
            lambda b: cells_from.get(twos[b].tgt, ()), lambda c, b: vrow[c][b],
        )
        bad += _in_order(
            ((at2[b], at2[a], at2[c]), Violation("vcomp-assoc", f"({c}, {b}, {a})")) for c, b, a in failed
        )

        for a in twos.values():
            idc = self.skeleton.identity[ones[a.src].cod]
            if wl[(idc, a.id)] != a.id:
                bad.append(Violation("whisker-left-unit", a.id))
            idd = self.skeleton.identity[ones[a.src].dom]
            if wr[(a.id, idd)] != a.id:
                bad.append(Violation("whisker-right-unit", a.id))
        # whiskering keeps identities; key (position in identity2, k, side)
        found = []
        for i, (f, a) in enumerate(id2.items()):
            fa = ones[f]
            for k in by_dom.get(fa.cod, ()):
                if wlrow[k][a] != id2[rows[k][f]]:
                    found.append(((i, at1[k], 0), Violation("whisker-left-id2", f"({k}, {f})")))
            for k in by_cod.get(fa.dom, ()):
                if wrrow[k][a] != id2[rows[f][k]]:
                    found.append(((i, at1[k], 1), Violation("whisker-right-id2", f"({f}, {k})")))
        bad += _in_order(found)
        # W(k1 . k2) = W(k1) o W(k2); key (a, side, k2, k1)
        failed_left = _action_failures(
            wlrow, ((cells_ending_at[y], ks) for y, ks in by_dom.items()),
            lambda k2: by_dom.get(ones[k2].cod, ()), lambda k1, k2: rows[k1][k2],
        )
        failed_right = _action_failures(
            wrrow, ((cells_starting_at[y], ks) for y, ks in by_cod.items()),
            lambda k2: by_cod.get(ones[k2].dom, ()), lambda k1, k2: rows[k2][k1],
        )
        found = [
            ((at2[a], 0, at1[k2], at1[k1]), Violation("whisker-left-functorial", f"({k1}, {k2}, {a})"))
            for k1, k2, a in failed_left
        ]
        found += [
            ((at2[a], 1, at1[k2], at1[k1]), Violation("whisker-right-functorial", f"({a}, {k2}, {k1})"))
            for k1, k2, a in failed_right
        ]
        bad += _in_order(found)
        if bad:
            return bad

        # W_k o V_b = V_{W_k(b)} o W_k on the cells a into src(b), for each
        # whiskering 1-cell k on either side; key (b, a, side, k)
        found = []
        for g, cells in cells_to.items():
            at_cells = _gather(cells)
            sides = ((0, wlrow, by_dom.get(ones[g].cod, ())), (1, wrrow, by_cod.get(ones[g].dom, ())))
            whiskers = [(side, k, w[k], _gather(at_cells(w[k]))) for side, w, ks in sides for k in ks]
            for b in cells_from.get(g, ()):
                at_bcells = _gather(at_cells(vrow[b]))
                for side, k, wk, at_kcells in whiskers:
                    lhs = at_bcells(wk)
                    rhs = at_kcells(vrow[wk[b]])
                    if lhs != rhs:
                        found += [
                            ((at2[b], at2[a], side, at1[k]),
                             Violation("whisker-left-vcomp", f"({k}, {b}, {a})") if side == 0
                             else Violation("whisker-right-vcomp", f"({b}, {a}, {k})"))
                            for a, x, y in zip(cells, lhs, rhs) if x != y
                        ]
        bad += _in_order(found)
        # WR_j o WL_k = WL_k o WR_j on each hom-set of 2-cells; key (a, j, k)
        found = []
        for (x, y), cells in by_hom.items():
            at_cells = _gather(cells)
            js = [(j, wrrow[j], _gather(at_cells(wrrow[j]))) for j in by_cod.get(x, ())]
            for k in by_dom.get(y, ()):
                wk = wlrow[k]
                at_kcells = _gather(at_cells(wk))
                for j, wj, at_jcells in js:
                    lhs = at_kcells(wj)
                    rhs = at_jcells(wk)
                    if lhs != rhs:
                        found += [
                            ((at2[a], at1[j], at1[k]), Violation("whisker-assoc", f"({k}, {a}, {j})"))
                            for a, u, v in zip(cells, lhs, rhs) if u != v
                        ]
        bad += _in_order(found)
        if bad:
            return bad

        # interchange: both whiskering orders of b * a, for all the b starting
        # and a ending at each object, as two b-major streams; key (b, a)
        def orders(bs, cells):
            at_cells = _gather(cells)
            src_rows = [wrrow[twos[a].src] for a in cells]
            tgt_rows = [wrrow[twos[a].tgt] for a in cells]
            at_bs = list(map(itemgetter, bs))
            tgt_a = chain.from_iterable(map(at_cells, [wlrow[twos[b].tgt] for b in bs]))
            src_a = chain.from_iterable(map(at_cells, [wlrow[twos[b].src] for b in bs]))
            b_src = chain.from_iterable(map(map, at_bs, repeat(src_rows)))
            b_tgt = chain.from_iterable(map(map, at_bs, repeat(tgt_rows)))
            return _pairwise(vrow, tgt_a, b_src), _pairwise(vrow, b_tgt, src_a)

        found = []
        for y, bs in cells_starting_at.items():
            cells = cells_ending_at[y]
            if any(map(ne, *orders(bs, cells))):
                found += [
                    ((at2[b], at2[a]), Violation("interchange-orders", f"({b}, {a})"))
                    for (b, a), u, v in zip(product(bs, cells), *orders(bs, cells)) if u != v
                ]
        bad += _in_order(found)
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
        objs = set(self.target.objects)
        for x in self.source.objects:
            y = self.object_map.get(x)
            if y is None:
                raise UnknownId(f"object map misses {x!r}")
            if y not in objs:
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
        by_cod = _index(src.morphisms.values(), lambda a: a.cod)
        mm, target_rows = self.morphism_map, self.target.skeleton.rows
        for g in src.morphisms.values():
            for f in by_cod.get(g.dom, ()):
                lhs = mm[src.rows[g.id][f.id]]
                rhs = target_rows.get(mm[g.id], {}).get(mm[f.id])
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
