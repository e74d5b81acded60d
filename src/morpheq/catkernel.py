"""Table-driven finite categories and strict 2-categories.

Everything is stored as explicit finite tables over opaque string
identifiers, so every axiom instance can be checked exhaustively.
Composition reads "second after first": the entry for ``(g, f)`` is
``g . f`` and requires ``cod(f) == dom(g)``.  Every table is stored once,
as rows keyed by the acting cell (``{g: {f: g . f}}``, ``{b: {a: b . a}}``,
``{k: {a: k |> a}}`` and ``{k: {a: a <| k}}``), the form every law and the
witness search read.  The ``*_table`` attributes are read-only views of
those rows in the keying the constructors take: ``(g, f)``, ``(b, a)``,
``(k, a)`` and ``(a, k)``.

Validation is eager: the constructors raise :class:`InvalidInstance`
unless told otherwise, and ``validate()`` returns the full list of
violated axiom instances as data for reporting.  Each cubic law is first
checked on a generating set (Light's test; Clifford and Preston, 1961,
§1.2), and in full only when that check fails, to name every instance.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import eq, itemgetter, ne

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


def _generators(rows, source, target, units):
    """The set of arrows picked, in the order of ``source``, unless a unit or
    already a composite of earlier picks, in the category stored as rows
    ``rows[g][f] = g . f``.  The composites are closed under composing with
    a pick on the left, so every arrow is a unit, a pick, or p . y for a
    pick p and an arrow y that entered that closure before it.
    """
    units = set(units)
    picks, made = {}, set()  # picks by source, and the composites so far
    for f in source:
        if f in units or f in made:
            continue
        picks.setdefault(source[f], []).append(f)
        todo = [f] + [v for x, v in rows[f].items() if x in made]
        while todo:
            y = todo.pop()
            if y not in made:
                made.add(y)
                todo += [rows[p][y] for p in picks.get(target[y], ())]
    return set(chain.from_iterable(picks.values()))


def _sift(xs, keep):
    """The xs in ``keep``, in order, or all of them when ``keep`` is None."""
    return xs if keep is None else [x for x in xs if x in keep]


def _proven(stage, premises, *gens):
    """The failures of the law ``stage(*keeps)`` checks at the cells kept (a
    set each, or None for all), by Light's test (A. H. Clifford and G. B.
    Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2): given
    ``premises``, the cells where the law holds contain the units and are
    closed under composition (each stage's docstring proves it), so if it
    holds at the generators ``gens`` it holds everywhere.  Otherwise the
    law is checked in full, to name every failing instance.
    """
    if premises and not stage(*gens):
        return []
    return stage(*(None,) * len(gens))


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


class RowTable(Mapping):
    """A read-only view of rows ``{r: {c: value}}``, keyed ``(r, c)`` or, when
    ``flipped``, ``(c, r)``.

    Nothing is copied: a lookup reads one row.  Iteration walks the rows,
    or the keys in the order they were given when that order interleaves
    rows (``order``), so ``dict(view)`` gives back a table entry for entry
    and order for order.
    """

    __slots__ = ("rows", "flipped", "_order")

    def __init__(self, rows, order=None, flipped=False):
        self.rows = rows
        self.flipped = flipped
        self._order = order

    def key(self, r, c):
        """The key of the entry ``rows[r][c]``; given a key, its ``(r, c)``."""
        return (c, r) if self.flipped else (r, c)

    def __getitem__(self, key):
        x, y = key
        try:
            return self.rows[y][x] if self.flipped else self.rows[x][y]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self):
        if self._order is not None:
            return iter(self._order)
        if self.flipped:
            return ((c, r) for r, row in self.rows.items() for c in row)
        return ((r, c) for r, row in self.rows.items() for c in row)

    def __len__(self):
        return sum(map(len, self.rows.values()))


def _as_rows(table, flipped=False):
    """A ``RowTable`` over the rows of ``table``, which maps keys to values (or
    lists such pairs), keys read as in a view ``flipped`` or not; a
    ``RowTable`` keyed that way is taken as it is."""
    if isinstance(table, RowTable) and table.flipped == flipped:
        return table
    pairs = table if isinstance(table, Mapping) else dict(table)
    rows = {}
    last = row = None
    interleaved = False
    for (x, y), v in pairs.items():
        r, c = (y, x) if flipped else (x, y)
        if row is None or r != last:
            interleaved = interleaved or r in rows
            row = rows.setdefault(r, {})
            last = r
        row[c] = v
    return RowTable(rows, tuple(pairs) if interleaved else None, flipped)


def _check_table_refs(table, heads, ids, unknown_head, unknown):
    """Raise ``UnknownId`` unless every row of ``table`` is keyed in ``heads``
    and holds only ``ids``.  Each row is tested as a set; only a failing
    table is walked, in its order, to name the first unknown id with the
    message ``unknown_head`` or ``unknown`` (formatted with the id)."""
    rows = table.rows
    if heads.issuperset(rows) and all(ids.issuperset(r) and ids.issuperset(r.values()) for r in rows.values()):
        return
    for key, v in table.items():
        r, c = table.key(*key)
        if r not in heads:
            raise UnknownId(unknown_head.format(r))
        for x in (c, v):
            if x not in ids:
                raise UnknownId(unknown.format(x))


def _gate(table, name, need, wanted, bounds, ends, column_rank=None):
    """The ``-missing``, ``-extra`` and ``-boundary`` faults of a table.

    Row r must hold exactly the columns ``wanted[need[r]]``, for every r of
    ``need``.  ``bounds`` maps each value to its boundary pair, and
    ``ends(rows)`` lists the pairs that the values of such rows must have,
    entry by entry.  Both are tested on whole rows; only a failing test
    walks the table to name its faults: the missing entries row by row, or
    column by column in ``column_rank`` order when given, then the extra
    and off-boundary entries in the order the table was given.
    """
    rows = table.rows
    allowed = {x: set(cs) for x, cs in wanted.items()}
    empty, none = {}, set()
    exact = all(map(eq, map(dict.keys, map(rows.get, need, repeat(empty))),
                    map(allowed.get, need.values(), repeat(none))))
    fit = rows if exact else {  # the entries whose boundaries ends() can give
        r: {c: v for c, v in row.items() if c in allowed.get(need[r], none)} for r, row in rows.items()}
    want, got = ends(fit), [bounds[v] for row in fit.values() for v in row.values()]
    if exact and want == got:
        return []
    off = set(compress(((r, c) for r, row in fit.items() for c in row), map(ne, want, got)))
    bad = []
    if not exact:
        gaps = [(r, c) for r, x in need.items() for c in wanted.get(x, ()) if c not in rows.get(r, empty)]
        if column_rank is not None:
            gaps.sort(key=lambda rc: column_rank[rc[1]])
        bad += [Violation(name + "-missing", "({}, {})".format(*table.key(r, c))) for r, c in gaps]
    for key, v in table.items():
        r, c = table.key(*key)
        if c not in allowed.get(need[r], none):
            bad.append(Violation(name + "-extra", "({}, {})".format(*key)))
        elif (r, c) in off:
            bad.append(Violation(name + "-boundary", "({}, {}) -> {}".format(*key, v)))
    return bad


def _category_laws(rows, unit, source, target, by_source, by_target, code, order, gens):
    """The unit and associativity failures of a category stored as ``rows``.

    Arrows run from ``source`` to ``target``, ``unit`` maps each object to
    its identity, ``by_source`` and ``by_target`` list the arrows by their
    ends, and ``gens`` generates them.  Associativity is rows[h . g] =
    rows[h] o rows[g] on the f into the source of g; its failures are
    sorted by ``order(h, g, f)`` read at the positions of the arrows.
    """
    bad = []
    for f in source:
        if rows[unit[target[f]]][f] != f:
            bad.append(Violation(code + "unit-left", f))
        if rows[f][unit[source[f]]] != f:
            bad.append(Violation(code + "unit-right", f))

    def assoc(keep):
        """Associativity at the middle arrows g kept.  Given the unit laws it
        holds at units, and at g1 . g2 if at g1 and g2:
        (h (g1 g2)) f = ((h g1) g2) f = (h g1)(g2 f) = h (g1 (g2 f)) = h ((g1 g2) f).
        """
        return _action_failures(
            rows, ((by_target[x], _sift(gs, keep)) for x, gs in by_source.items()),
            lambda g: by_source.get(target[g], ()), lambda h, g: rows[h][g],
        )

    failed = _proven(assoc, not bad, gens)
    at = _positions(source)
    return bad + _in_order(
        (order(at[h], at[g], at[f]), Violation(code + "assoc", f"({h}, {g}, {f})")) for h, g, f in failed
    )


def _composing(source, target):
    """``ends`` for a composition table: ``r . c`` runs from the source of c to
    the target of r."""
    return lambda rows: [(source[c], t) for r, row in rows.items() for t in (target[r],) for c in row]


class FiniteCategory:
    """A finite category given by identity and composition tables.

    Composition is stored as rows, ``rows[g][f] = g . f``, built from the
    ``(g, f)``-keyed table given or, for a ``RowTable``, taken over without
    a copy.  ``compose_table`` is the read-only view of the rows that
    iterates in the given order.
    """

    def __init__(self, objects, morphisms, identity, compose, *, validate=True):
        self.objects = tuple(objects)
        arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in morphisms]
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
        unknown = "compose table mentions unknown morphism {!r}"
        _check_table_refs(self.compose_table, ids, ids, unknown, unknown)

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
        dom = {m: a.dom for m, a in mor.items()}
        cod = {m: a.cod for m, a in mor.items()}
        for x in self.objects:
            m = self.identity.get(x)
            if m is None:
                bad.append(Violation("identity-missing", x))
                continue
            a = mor[m]
            if a.dom != x or a.cod != x:
                bad.append(Violation("identity-boundary", f"id of {x} is {m}: {a.dom}->{a.cod}"))
        # row g holds the f ending at dom g, and g . f runs from dom f to cod g
        by_dom = _index(mor, dom.__getitem__)
        by_cod = _index(mor, cod.__getitem__)
        bounds = {m: (a.dom, a.cod) for m, a in mor.items()}
        bad += _gate(self.compose_table, "compose", dom, by_cod, bounds, _composing(dom, cod))
        if bad:
            return bad  # unit/assoc checks assume a total, boundary-correct table
        gens = _generators(self.rows, dom, cod, self.identity.values())
        return _category_laws(self.rows, self.identity, dom, cod, by_dom, by_cod, "", lambda h, g, f: (f, g, h), gens)

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


# a side's name, and the ends of k and of the 1-cells of a that meet in k |> a or a <| k
_SIDES = {False: ("whisker-left", "dom", "cod"), True: ("whisker-right", "cod", "dom")}


class _Side:
    """Whiskering on one side of a ``Finite2Category``, read as the left side.

    Whiskering on the right is whiskering on the left in the 2-category
    with its 1-cells reversed: ``dom`` and ``cod`` swap and k after f is
    f . k, so one code path checks both sides.  ``rows[k][a]`` is a
    whiskered by k, ``by_dom`` lists the 1-cells by ``dom``, and
    ``ending_at`` the 2-cells by the object where their 1-cells end, both
    on this reading.
    """

    def __init__(self, d, right, dom, cod, by_dom, ending_at, bounds):
        self.right = right
        self.name = _SIDES[right][0]
        self.table = d.wr_table if right else d.wl_table
        self.rows = self.table.rows
        self._composites = d.skeleton.rows
        self._bounds = bounds
        self.dom, self.cod, self.by_dom, self.ending_at = dom, cod, by_dom, ending_at

    def of(self, k, f):
        """k after f on this side: ``k . f``, or ``f . k`` on the right."""
        return self._composites[f][k] if self.right else self._composites[k][f]

    def ends(self, rows):
        """The boundary pair of each 2-cell of ``rows`` whiskered by its row's 1-cell."""
        comp, bounds = self._composites, self._bounds
        if self.right:
            return [(comp[f][k], comp[g][k]) for k, row in rows.items() for f, g in map(bounds.__getitem__, row)]
        return [(ck[f], ck[g]) for k, row in rows.items() for ck in (comp[k],) for f, g in map(bounds.__getitem__, row)]

    def show(self, *terms):
        """The ids of an instance, in the order this side writes them."""
        return "(" + ", ".join(reversed(terms) if self.right else terms) + ")"


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
    exchange holds as a theorem and is not checked apart.  Each cubic law is
    checked first at generators of the 1-skeleton and of vcomp (Light's
    test, Clifford and Preston 1961, §1.2), once the laws its proof uses
    hold: the unit laws for associativity and functoriality, functoriality
    and vcomp associativity for whiskering keeping vcomp, functoriality on
    both sides for their commuting, and whiskering keeping vcomp, the id2
    and the unit laws for interchange.

    The vcomp and whiskering tables are given either as three mappings or,
    through ``tables``, as one zero-argument callable returning the three;
    the callable runs the first time one of them is read (``validate()``,
    ``vcomp``, ``whisker_*``, ``hcomp`` or the table attributes).  Either
    way they are stored as rows keyed by the acting cell, once, and
    ``vcomp_table``, ``wl_table`` and ``wr_table`` are views of them.  The
    cells, the skeleton and the boundary index are always built eagerly.
    """

    def __init__(self, objects, one_cells, identity, compose, two_cells, identity2,
                 vcomp=None, whisker_left=None, whisker_right=None, *, tables=None, validate=True):
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
        self.vcomp_table = _as_rows(vcomp)
        self.wl_table = _as_rows(whisker_left)
        self.wr_table = _as_rows(whisker_right, flipped=True)
        self._tables = None  # frees the builder and what it holds
        ones, twos = set(self.skeleton.morphisms), set(self.two_cells)
        unknown = "vcomp table mentions unknown 2-cell {!r}"
        _check_table_refs(self.vcomp_table, twos, twos, unknown, unknown)
        for name, table in (("whisker-left", self.wl_table), ("whisker-right", self.wr_table)):
            _check_table_refs(table, ones, twos, name + " mentions unknown 1-cell {!r}",
                              name + " mentions unknown 2-cell")

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
            return self.vcomp_table.rows[b][a]
        except KeyError:
            pass
        ca, cb = self.cell(a), self.cell(b)
        if ca.tgt != cb.src:
            raise NotComposable(f"tgt({a!r}) != src({b!r})")
        raise InvalidInstance([Violation("vcomp-missing", f"({b}, {a})")])

    def whisker_left(self, k, a):
        """Whisker the 2-cell a on the left by the 1-cell k."""
        return self._whisker(False, k, a)

    def whisker_right(self, a, k):
        """Whisker the 2-cell a on the right by the 1-cell k."""
        return self._whisker(True, k, a)

    def _whisker(self, right, k, a):
        table = self.wr_table if right else self.wl_table
        try:
            return table.rows[k][a]
        except KeyError:
            pass
        name, near, far = _SIDES[right]
        if getattr(self.skeleton.arrow(k), near) != getattr(self.skeleton.arrow(self.cell(a).src), far):
            raise NotComposable(f"{near}({k!r}) != {far}(src({a!r}))")
        raise InvalidInstance([Violation(name + "-missing", "({}, {})".format(*table.key(k, a)))])

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
        ones, twos, id2 = self.skeleton.morphisms, self.two_cells, self.identity2
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

        # every table is read as rows keyed by the acting cell: vrow[b] is
        # a |-> b . a, and side.rows[k] is a |-> k |> a or a |-> a <| k
        dom = {k: a.dom for k, a in ones.items()}
        cod = {k: a.cod for k, a in ones.items()}
        src = {c: x.src for c, x in twos.items()}
        tgt = {c: x.tgt for c, x in twos.items()}
        bounds = {c: (x.src, x.tgt) for c, x in twos.items()}
        at1, at2 = _positions(ones), _positions(twos)
        by_dom, by_cod = _index(ones, dom.__getitem__), _index(ones, cod.__getitem__)
        cells_from, cells_to, by_hom, starting_at, ending_at = {}, {}, {}, {}, {}
        for c, (f, g) in bounds.items():
            cells_from.setdefault(f, []).append(c)
            cells_to.setdefault(g, []).append(c)
            by_hom.setdefault((dom[f], cod[f]), []).append(c)
            starting_at.setdefault(dom[f], []).append(c)
            ending_at.setdefault(cod[f], []).append(c)
        vrow = self.vcomp_table.rows
        left = _Side(self, False, dom, cod, by_dom, ending_at, bounds)
        right = _Side(self, True, cod, dom, by_cod, starting_at, bounds)
        sides = (left, right)
        bad += _gate(self.vcomp_table, "vcomp", src, cells_to, bounds, _composing(src, tgt))
        for side in sides:
            bad += _gate(side.table, side.name, side.dom, side.ending_at, bounds, side.ends, at2)
        if bad:
            return bad

        # The tables are now total where the laws read them and every 1-cell
        # has an identity cell, so only lists sifted to generators can be
        # empty.  Each law is an equation between rows, checked at generators
        # first; a stage's failures are sorted by its key, a loop's order.
        identity = self.skeleton.identity
        gens1 = _generators(self.skeleton.rows, dom, cod, identity.values())
        gens2 = _generators(vrow, src, tgt, id2.values())
        bad += _category_laws(vrow, id2, src, tgt, cells_from, cells_to, "vcomp-", lambda c, b, a: (b, a, c), gens2)

        for a in twos:
            for side in sides:
                if side.rows[identity[side.cod[src[a]]]][a] != a:
                    bad.append(Violation(side.name + "-unit", a))
        units_hold = not bad
        # whiskering keeps identities; key (position in identity2, k, side)
        bad += _in_order(
            ((i, at1[k], side.right), Violation(side.name + "-id2", side.show(k, f)))
            for i, (f, a) in enumerate(id2.items()) for side in sides
            for k in side.by_dom.get(side.cod[f], ()) if side.rows[k][a] != id2[side.of(k, f)]
        )

        def functorial(keep):
            """W(k1 . k2) = W(k1) o W(k2) at the inner k2 kept; key (a, side,
            k2, k1).  Given the whisker-unit laws it holds at units, and at
            g1 . g2 if at g1 and g2: W(k1 g1 g2) = W(k1 g1) W(g2) =
            W(k1) W(g1) W(g2) = W(k1) W(g1 g2).
            """
            return [
                ((at2[a], side.right, at1[k2], at1[k1]), Violation(side.name + "-functorial", side.show(k1, k2, a)))
                for side in sides
                for k1, k2, a in _action_failures(
                    side.rows, ((side.ending_at[y], _sift(ks, keep)) for y, ks in side.by_dom.items()),
                    lambda k2: side.by_dom.get(side.cod[k2], ()), side.of,
                )
            ]

        bad += _in_order(_proven(functorial, units_hold, gens1))
        if bad:
            return bad
        # every law so far holds, which is all the premises the proofs below use

        def whisker_vcomp(keep1, keep2):
            """W_k o V_b = V_{W_k(b)} o W_k on the cells a into src(b), for each
            kept whiskering 1-cell k on either side and kept b; key (b, a,
            side, k).  At one k it holds at identity b by the id2 and unit
            laws, and at b1 . b2 if at b1 and b2, as vcomp is associative:
            W(b1 b2 a) = W(b1) W(b2 a) = W(b1) W(b2) W(a) = W(b1 b2) W(a).  So
            it holds at every b for generators k, then at units (the unit
            law) and at k1 . k2 by functoriality: W_{k1 k2}(b a) =
            W_{k1}(W_{k2}(b) W_{k2}(a)) = W_{k1 k2}(b) W_{k1 k2}(a).
            """
            found = []
            for g, cells in cells_to.items():
                at_cells = _gather(cells)
                whiskers = [(side, k, side.rows[k], _gather(at_cells(side.rows[k])))
                            for side in sides for k in _sift(side.by_dom.get(side.cod[g], ()), keep1)]
                for b in _sift(cells_from.get(g, ()), keep2):
                    at_bcells = _gather(at_cells(vrow[b]))
                    for side, k, wk, at_kcells in whiskers:
                        lhs = at_bcells(wk)
                        rhs = at_kcells(vrow[wk[b]])
                        if lhs != rhs:
                            found += [
                                ((at2[b], at2[a], side.right, at1[k]),
                                 Violation(side.name + "-vcomp", side.show(k, f"{b}, {a}")))
                                for a, x, y in zip(cells, lhs, rhs) if x != y
                            ]
            return found

        bad += _in_order(_proven(whisker_vcomp, True, gens1, gens2))
        wlrow, wrrow = left.rows, right.rows

        def whisker_assoc(keep):
            """WR_j o WL_k = WL_k o WR_j on each hom-set of 2-cells, at the j and
            k kept; key (a, j, k).  At one j it holds at identity k by the
            unit law, and at k1 . k2 if at k1 and k2, by left functoriality:
            WR_j WL_{k1} WL_{k2} = WL_{k1} WR_j WL_{k2} = WL_{k1} WL_{k2} WR_j.
            So it holds at every k for generators j, and then at every j by
            the same argument on the right.
            """
            found = []
            for (x, y), cells in by_hom.items():
                at_cells = _gather(cells)
                js = [(j, wrrow[j], _gather(at_cells(wrrow[j]))) for j in _sift(by_cod.get(x, ()), keep)]
                for k in _sift(by_dom.get(y, ()), keep):
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
            return found

        bad += _in_order(_proven(whisker_assoc, True, gens1))
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

        def interchange(keep):
            """The two orders agree at the b and a kept.  For b: g => g' and
            a: f => f' they are (g' |> a)(b <| f) and (b <| f')(g |> a).  At
            one b they agree at identity a by the id2 and unit laws, and at
            a1 . a2 if at a1 and a2, as left whiskering keeps vcomp:
            (g' |> a1)(g' |> a2)(b <| f) = (g' |> a1)(b <| f'')(g |> a2) =
            (b <| f')(g |> a1)(g |> a2).  So they agree at every a for
            generators b, and then at every b by the same argument on the right.
            """
            found = []
            for y, bs in starting_at.items():
                bs, cells = _sift(bs, keep), _sift(ending_at[y], keep)
                if bs and cells and any(map(ne, *orders(bs, cells))):
                    found += [
                        ((at2[b], at2[a]), Violation("interchange-orders", f"({b}, {a})"))
                        for (b, a), u, v in zip(product(bs, cells), *orders(bs, cells)) if u != v
                    ]
            return found

        bad += _in_order(_proven(interchange, True, gens2))
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
