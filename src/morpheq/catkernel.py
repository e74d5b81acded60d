"""Table-driven finite categories and strict 2-categories.

Everything is stored as explicit finite tables over opaque string
identifiers, so every axiom instance can be checked exhaustively.
Composition reads "second after first": the entry for ``(g, f)`` is
``g . f`` and requires ``cod(f) == dom(g)``.  Every table is stored once,
as rows keyed by the acting cell (``{g: {f: g . f}}``, ``{b: {a: b . a}}``,
``{k: {a: k |> a}}`` and ``{k: {a: a <| k}}``), the form every law and the
witness search read.  The ``*_table`` attributes are read-only views of
those rows in the keying the constructors take: ``(g, f)``, ``(b, a)``,
``(k, a)`` and ``(a, k)``.  A table may be sparse: its view then declares
an absorbing id, the value of every pair in the table its rows do not store.

Validation is eager: the constructors raise :class:`InvalidInstance`
unless told otherwise, and ``validate()`` returns the full list of
violated axiom instances as data for reporting.  Each cubic law is first
checked on a generating set (Light's test; Clifford and Preston, 1961,
§1.2), and in full only when that check fails, to name every instance;
the laws that read (h g) x = h (g x), a group's and an action's among
them, share one such check.  The rules the package's other checks share
(raising on a report, repeated ids, table totality) are defined here once.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import itemgetter, le, ne

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


def _raise_on(report):
    """Raise :class:`InvalidInstance` naming the violations of ``report``, unless it is empty."""
    if report:
        raise InvalidInstance(report)


def _distinct(names, what):
    """``names`` as a tuple, unless one is repeated."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise InvalidInstance([Violation("duplicate-id", f"repeated {what}")])
    return names


def _total(rows, heads, xs, values, code):
    """A ``code`` violation for each (g, x) of ``heads`` by ``xs`` whose entry
    ``rows[g][x]`` is missing or not in ``values``, in that order."""
    empty = {}
    return [
        Violation(code, f"({g}, {x})")
        for g in heads for row in (rows.get(g, empty),) for x in xs
        if (v := row.get(x)) is None or v not in values
    ]


def _index(items, key):
    """Map each key value to the items with that value, in the order given."""
    out = {}
    for it in items:
        out.setdefault(key(it), []).append(it)
    return out


def _gather(xs):
    """A function reading a row, given in full, at every key of the non-empty
    ``xs``, as one tuple."""
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


def _generators(table, source, target, units):
    """The set of arrows picked, in the order of ``source``, unless a unit or
    already a composite of earlier picks, in the category stored as the rows
    of ``table``, ``rows[g][f] = g . f``, each read as ``.get(f, absorbing)``.
    The composites are closed under composing with a pick on the left, so
    every arrow is a unit, a pick, or p . y for a pick p and an arrow y that
    entered that closure before it.
    """
    rows, units, over = table.rows, set(units), table.absorbing
    picks, picked, made, ending = set(), {}, set(), {}  # the picks, their rows by source, the composites, by target
    for f in source:
        if f in units or f in made:
            continue
        row = rows[f]
        picks.add(f)
        picked.setdefault(source[f], []).append(row)
        todo = [f] + [row.get(y, over) for y in ending.get(source[f], ())]
        while todo:
            y = todo.pop()
            if y not in made:
                made.add(y)
                ending.setdefault(target[y], []).append(y)
                todo += [prow.get(y, over) for prow in picked.get(target[y], ())]
    return picks


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


def _action_failures(act, groups, outers_of, composite, premises, gens):
    """Triples (h, g, x) with ``act[composite(h, g)][x] != act[h][act[g][x]]``,
    checked at the inner gs in ``gens`` first (``_proven``).  ``premises``
    says the unit laws hold, and h (g1 g2) = (h g1) g2, which for a
    category's associativity is the law at g1; then the gs where the law
    holds contain the units, and g1 g2 with g1 and g2: (h (g1 g2)) x =
    ((h g1) g2) x = (h g1)(g2 x) = h (g1 (g2 x)) = h ((g1 g2) x).

    ``act`` maps each k to its row ``{x: k acting on x}`` read in full, as
    a table's ``full`` rows do.  ``groups`` lists pairs of a non-empty list
    of xs with the inner gs whose rows are read at them.
    For each such g and each outer h in ``outers_of(g)`` the law is one
    comparison of two gathered tuples, the row of h . g against the row of
    h read at the values of g's row.  Only a pair whose tuples differ is
    walked to name its failing xs.  Outers in a row with one composite,
    as the long words of a delooped slice all give its overflow cell,
    gather that composite's row once.
    """
    def failures(keep):
        out = []
        for xs, inners in groups:
            at_xs = _gather(xs)
            for g in _sift(inners, keep):
                at_gx = _gather(at_xs(act[g]))
                last = object()  # no composite gathered yet
                for h in outers_of(g):
                    hg = composite(h, g)
                    if hg is not last:
                        last, lhs = hg, at_xs(act[hg])
                    rhs = at_gx(act[h])
                    if lhs != rhs:
                        out.extend((h, g, x) for x, l, r in zip(xs, lhs, rhs) if l != r)
        return out

    return _proven(failures, premises, gens)


class _Completed:
    """Sparse rows read in full: row r is ``blanks[r] | rows[r]``, its columns
    mapped to the absorbing id and then to its entries, a merge nothing keeps."""

    __slots__ = ("rows", "blanks")

    def __init__(self, rows, blanks):
        self.rows, self.blanks = rows, blanks

    def __getitem__(self, r):
        return self.blanks[r] | self.rows[r]


class RowTable(Mapping):
    """A read-only view of rows ``{r: {c: value}}``, keyed ``(r, c)`` or, when
    ``flipped``, ``(c, r)``.

    Nothing is copied: a lookup reads one row.  Iteration walks the rows,
    or the keys in the order they were given when that order interleaves
    rows (``order``), so ``dict(view)`` gives back a table entry for entry
    and order for order.  A sparse view declares the ``absorbing`` id, the
    value of every pair of the table a row does not store, read as
    ``rows[r].get(c, absorbing)``, and needs ``columns``: each row head
    mapped to the columns of its row, stored or not, in order, each with
    the absorbing id as its value.  It then holds every such pair, and
    after them any entry a row stores off its columns, so ``len``,
    iteration and ``dict(view)`` are those of the dense table.  ``full``
    reads each row in full, as stored or completed over its columns.
    """

    __slots__ = ("rows", "flipped", "_order", "columns", "absorbing", "full")

    def __init__(self, rows, order=None, flipped=False, columns=None, absorbing=None):
        self.rows = rows
        self.flipped = flipped
        self._order = order
        self.columns = columns
        self.absorbing = absorbing
        self.full = rows if columns is None else _Completed(rows, columns)

    def key(self, r, c):
        """The key of the entry ``rows[r][c]``; given a key, its ``(r, c)``."""
        return (c, r) if self.flipped else (r, c)

    def __getitem__(self, key):
        r, c = key[::-1] if self.flipped else key
        try:
            return self.rows[r][c]
        except KeyError:
            if self.columns is not None and c in self.columns.get(r, ()):
                return self.absorbing
            raise KeyError(key) from None

    def _pairs(self):
        """Every ``(r, c)`` of the view, row by row."""
        if self.columns is None:
            return ((r, c) for r, row in self.rows.items() for c in row)
        empty = {}
        return ((r, c) for r, cs in self.columns.items()
                for c in chain(cs, [c for c in self.rows.get(r, empty) if c not in cs]))

    def __iter__(self):
        if self._order is not None:
            return iter(self._order)
        if self.flipped:
            return ((c, r) for r, c in self._pairs())
        return self._pairs()

    def __len__(self):
        if self.columns is None:
            return sum(map(len, self.rows.values()))
        return sum(map(len, self.columns.values())) + sum(
            c not in self.columns.get(r, ()) for r, row in self.rows.items() for c in row)


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

    Row r may hold only the columns ``wanted[need[r]]``, for every r of
    ``need``.  Each column it leaves out is a missing entry, or reads the
    absorbing id when the table has one.  ``bounds`` maps each value to its
    boundary pair, and ``ends(*parts)`` lists the pairs that the values at
    the columns of the rows of each part must have, entry by entry.  Both
    are tested on whole rows; only a failing test walks the table to name
    its faults: the missing entries row by row, or column by column in
    ``column_rank`` order when given, then the extra and off-boundary
    entries in the order the table was given.
    """
    rows, over = table.rows, table.absorbing
    allowed = {x: set(cs) for x, cs in wanted.items()}
    empty, none = {}, set()
    held = list(map(dict.keys, map(rows.get, need, repeat(empty))))  # each row's columns, and those it may hold
    cols = list(map(allowed.get, need.values(), repeat(none)))
    exact = held == cols
    fits = exact or all(map(le, held, cols))
    fit = rows if fits else {  # the entries whose boundaries ends() can give
        r: {c: v for c, v in row.items() if c in allowed.get(need[r], none)} for r, row in rows.items()}
    # the columns each row leaves out
    gaps = {} if exact else {
        r: [c for c in wanted.get(x, ()) if c not in rows.get(r, empty)] for r, x in need.items()}
    bad = []
    if over is None:  # no absorbing id: each gap is a missing entry
        missing = [(r, c) for r, cs in gaps.items() for c in cs]
        if column_rank is not None:
            missing.sort(key=lambda rc: column_rank[rc[1]])
        bad, gaps = [Violation(name + "-missing", "({}, {})".format(*table.key(r, c))) for r, c in missing], {}
    want = ends(fit, gaps)
    got = [bounds[v] for row in fit.values() for v in row.values()] + [bounds[over] for cs in gaps.values() for _ in cs]
    if fits and not bad and want == got:
        return []
    off = set(compress(((r, c) for part in (fit, gaps) for r, row in part.items() for c in row), map(ne, want, got)))
    for key, v in table.items():
        r, c = table.key(*key)
        if c not in allowed.get(need[r], none):
            bad.append(Violation(name + "-extra", "({}, {})".format(*key)))
        elif (r, c) in off:
            bad.append(Violation(name + "-boundary", "({}, {}) -> {}".format(*key, v)))
    return bad


def _category_laws(table, unit, source, target, by_source, by_target, code, order, gens):
    """The unit and associativity failures of a category stored as the rows of ``table``.

    Arrows run from ``source`` to ``target``, ``unit`` maps each object to
    its identity, ``by_source`` and ``by_target`` list the arrows by their
    ends, and ``gens`` generates them.  Associativity is rows[h . g] =
    rows[h] o rows[g] on the f into the source of g, the row law checked at
    ``gens`` first once the unit laws hold; its failures are sorted by
    ``order(h, g, f)`` read at the positions of the arrows.
    """
    bad, rows, over = [], table.rows, table.absorbing
    for f in source:
        if rows[unit[target[f]]].get(f, over) != f:
            bad.append(Violation(code + "unit-left", f))
        if rows[f].get(unit[source[f]], over) != f:
            bad.append(Violation(code + "unit-right", f))

    failed = _action_failures(
        table.full, [(by_target[x], gs) for x, gs in by_source.items()],
        lambda g: by_source.get(target[g], ()), lambda h, g: rows[h].get(g, over), not bad, gens)
    at = _positions(source)
    return bad + _in_order(
        (order(at[h], at[g], at[f]), Violation(code + "assoc", f"({h}, {g}, {f})")) for h, g, f in failed)


def _composing(source, target):
    """``ends`` for a composition table: ``r . c`` runs from the source of c to
    the target of r."""
    return lambda *parts: [(source[c], t) for rows in parts for r, row in rows.items()
                           for t in (target[r],) for c in row]


class FiniteCategory:
    """A finite category given by identity and composition tables.

    Composition is stored as rows, ``rows[g][f] = g . f``, built from the
    ``(g, f)``-keyed table given or, for a ``RowTable``, taken over without
    a copy.  A sparse view declares an absorbing id: a composable pair a
    row does not store composes to that id.  ``compose_table`` is the
    read-only view of the rows that iterates in the given order, or, for
    sparse rows, over every composable pair in morphism order.
    """

    def __init__(self, objects, morphisms, identity, compose, *, validate=True):
        self.objects = tuple(objects)
        arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in morphisms]
        self.morphisms = dict(zip(_distinct((a.id for a in arrows), "morphism id"), arrows))
        self.identity = dict(identity)
        self.compose_table = _as_rows(compose)
        self.rows = self.compose_table.rows
        self._check_refs()
        if self.compose_table.absorbing is not None:
            self._span_composable()
        if validate:
            _raise_on(self.validate())

    def _span_composable(self):
        """Give sparse rows a row for every morphism, and their view every
        composable pair as its columns, in morphism order."""
        over, arrows = self.compose_table.absorbing, self.morphisms
        ending = {x: dict.fromkeys(fs, over) for x, fs in _index(arrows, lambda m: arrows[m].cod).items()}
        for g in self.morphisms:
            self.rows.setdefault(g, {})
        columns = {g: ending.get(a.dom, {}) for g, a in self.morphisms.items()}
        self.compose_table = RowTable(self.rows, columns=columns, absorbing=over)

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
        over = self.compose_table.absorbing
        if over is not None and over not in ids:
            raise UnknownId(f"absorbing id {over!r} is not a morphism")
        unknown = "compose table mentions unknown morphism {!r}"
        _check_table_refs(self.compose_table, ids, ids, unknown, unknown)

    # -- accessors ----------------------------------------------------

    def arrow(self, m):
        try:
            return self.morphisms[m]
        except (KeyError, TypeError):  # TypeError: m is unhashable
            raise UnknownId(f"unknown morphism {m!r}") from None

    def dom(self, m):
        return self.arrow(m).dom

    def cod(self, m):
        return self.arrow(m).cod

    def id_of(self, x):
        try:
            return self.identity[x]
        except (KeyError, TypeError):  # TypeError: x is unhashable
            raise UnknownId(f"unknown object {x!r}") from None

    def _arrows(self):
        """Each morphism's dom and cod, and the morphisms listed by dom and by cod."""
        dom = {m: a.dom for m, a in self.morphisms.items()}
        cod = {m: a.cod for m, a in self.morphisms.items()}
        return dom, cod, _index(self.morphisms, dom.__getitem__), _index(self.morphisms, cod.__getitem__)

    @cached_property
    def _hom(self):
        """(a, b) -> the morphisms a -> b, sorted by identifier."""
        hom = _index(self.morphisms.values(), lambda a: (a.dom, a.cod))
        return {key: tuple(sorted(a.id for a in arrows)) for key, arrows in hom.items()}

    def hom(self, a, b):
        """Morphisms a -> b, sorted by identifier."""
        try:
            return self._hom.get((a, b), ())
        except TypeError:  # an unhashable object, which has no morphisms
            return ()

    def compose(self, g, f):
        """The composite g . f (g after f)."""
        try:
            return self.rows[g][f]
        except (KeyError, TypeError):  # TypeError: an unhashable id, which arrow() names
            pass
        ga, fa = self.arrow(g), self.arrow(f)
        if fa.cod != ga.dom:
            raise NotComposable(f"cod({f!r}) = {fa.cod!r} != dom({g!r}) = {ga.dom!r}")
        if self.compose_table.absorbing is not None:
            return self.compose_table.absorbing
        raise InvalidInstance([Violation("compose-missing", f"({g}, {f})")])

    # -- validation ---------------------------------------------------

    def validate(self):
        """Return every violated category axiom instance (empty iff lawful)."""
        return self._checked(self._arrows())[0]

    def _checked(self, arrows):
        """The violated axiom instances, and the generators the laws were
        checked at, given the arrow index ``_arrows()``."""
        bad = []
        mor = self.morphisms
        dom, cod, by_dom, by_cod = arrows
        for x in self.objects:
            m = self.identity.get(x)
            if m is None:
                bad.append(Violation("identity-missing", x))
                continue
            a = mor[m]
            if a.dom != x or a.cod != x:
                bad.append(Violation("identity-boundary", f"id of {x} is {m}: {a.dom}->{a.cod}"))
        # row g holds the f ending at dom g, and g . f runs from dom f to cod g
        bounds = {m: (a.dom, a.cod) for m, a in mor.items()}
        bad += _gate(self.compose_table, "compose", dom, by_cod, bounds, _composing(dom, cod))
        if bad:
            return bad, None  # unit/assoc checks assume a total, boundary-correct table
        gens = _generators(self.compose_table, dom, cod, self.identity.values())
        return _category_laws(
            self.compose_table, self.identity, dom, cod, by_dom, by_cod, "", lambda h, g, f: (f, g, h), gens), gens

    @classmethod
    def from_dict(cls, data, *, validate=True):
        return cls(
            data["objects"],
            [(m["id"], m["dom"], m["cod"]) for m in data["morphisms"]],
            data["identity"],
            {(g, f): h for g, f, h in data["compose"]},
            validate=validate,
        )


# a side's name, and the ends of k and of the 1-cells of a that meet in k |> a or a <| k
_SIDES = {False: ("whisker-left", "dom", "cod"), True: ("whisker-right", "cod", "dom")}


def _transposed(table, cod, by_dom):
    """The columns of a composition ``table`` as the rows of a view: row k maps
    each f from ``cod[k]`` to f . k, a sparse table's rows staying sparse
    over its absorbing id and completed over those f."""
    rows, over = {k: {} for k in cod}, table.absorbing
    for f, frow in table.rows.items():
        for k, v in frow.items():
            rows[k][f] = v
    blank = {x: dict.fromkeys(fs, over) for x, fs in by_dom.items()}
    return RowTable(rows, columns=None if over is None else {k: blank[x] for k, x in cod.items()}, absorbing=over)


class _Side:
    """Whiskering on one side of a ``Finite2Category``, read as the left side.

    Whiskering on the right is whiskering on the left in the 2-category
    with its 1-cells reversed: ``dom`` and ``cod`` swap and k after f is
    f . k, so one code path checks both sides.  ``rows[k][a]`` is a
    whiskered by k (``full`` reads such a row in full), ``composites`` is a
    view of rows ``{k: {f: k after f}}``, ``by_dom`` lists the 1-cells by
    ``dom``, and ``ending_at`` the 2-cells by the object where their
    1-cells end, all on this reading.
    """

    def __init__(self, d, right, composites, dom, cod, by_dom, ending_at, bounds):
        self.right = right
        self.name = _SIDES[right][0]
        self.table = d.wr_table if right else d.wl_table
        self.rows, self.full = self.table.rows, self.table.full
        self._composites, self._over, self._lines = composites.rows, composites.absorbing, composites.full
        self._bounds = bounds
        self.dom, self.cod, self.by_dom, self.ending_at = dom, cod, by_dom, ending_at

    def of(self, k, f):
        """k after f on this side: ``k . f``, or ``f . k`` on the right."""
        return self._composites[k].get(f, self._over)

    def ends(self, *parts):
        """The boundary pair of each 2-cell of the rows of ``parts`` whiskered
        by its row's 1-cell, read in that 1-cell's row of composites in full."""
        bounds, line = self._bounds, self._lines
        return [(ck[f], ck[g]) for rows in parts for k, row in rows.items() for ck in (line[k],)
                for f, g in map(bounds.__getitem__, row)]

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

    The 2-cells are given as a list and the vcomp and whiskering tables as
    three mappings; unknown ids in them, and in ``identity2``, raise
    ``UnknownId`` at construction.  The tables are stored as rows keyed by
    the acting cell, once, and ``vcomp_table``, ``wl_table`` and
    ``wr_table`` are views of them.  The boundary index behind
    ``cells_between`` and ``linked_to``, the two lookups of the witness
    search, is built on their first call.
    """

    def __init__(self, objects, one_cells, identity, compose, two_cells, identity2,
                 vcomp, whisker_left, whisker_right, *, validate=True):
        self.skeleton = FiniteCategory(objects, one_cells, identity, compose, validate=False)
        self.identity2 = dict(identity2)
        self.two_cells = self._checked_cells(two_cells)
        self.vcomp_table, self.wl_table, self.wr_table = self._checked_tables(vcomp, whisker_left, whisker_right)
        if validate:
            _raise_on(self.validate())

    def _checked_cells(self, two_cells):
        """The 2-cells by id, checked for repeated ids and unknown boundary and ``identity2`` ids."""
        cells = [c if isinstance(c, Cell) else Cell(*c) for c in two_cells]
        twos = dict(zip(_distinct((c.id for c in cells), "2-cell id"), cells))
        ones = self.skeleton.morphisms
        for c in cells:
            if c.src not in ones or c.tgt not in ones:
                raise UnknownId(f"2-cell {c.id!r} has unknown boundary")
        for f, a in self.identity2.items():
            if f not in ones or a not in twos:
                raise UnknownId(f"identity2 entry ({f!r}, {a!r}) has unknown id")
        return twos

    def _checked_tables(self, vcomp, whisker_left, whisker_right):
        """The vcomp and whiskering tables as ``RowTable``s, checked for unknown ids."""
        tables = _as_rows(vcomp), _as_rows(whisker_left), _as_rows(whisker_right, flipped=True)
        ones, twos = set(self.skeleton.morphisms), set(self.two_cells)
        unknown = "vcomp table mentions unknown 2-cell {!r}"
        _check_table_refs(tables[0], twos, twos, unknown, unknown)
        for name, table in zip(("whisker-left", "whisker-right"), tables[1:]):
            _check_table_refs(table, ones, twos, name + " mentions unknown 1-cell {!r}",
                              name + " mentions unknown 2-cell {!r}")
        return tables

    @cached_property
    def _by_boundary(self):
        """(f, g) -> the 2-cells f => g, sorted by identifier."""
        index = {}
        for c in self.two_cells.values():
            index.setdefault((c.src, c.tgt), []).append(c.id)
        return {key: tuple(sorted(ids)) for key, ids in index.items()}

    @cached_property
    def _linked(self):
        """g -> the 1-cells f with a 2-cell f => g and a 2-cell g => f."""
        index = self._by_boundary
        linked = {}
        for f, g in index:
            if (g, f) in index:
                linked.setdefault(g, []).append(f)
        return {g: frozenset(fs) for g, fs in linked.items()}

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
        except (KeyError, TypeError):  # TypeError: a is unhashable
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
        except TypeError:  # f is unhashable
            pass
        raise UnknownId(f"unknown 1-cell {f!r}")

    def cells_between(self, f, g):
        """2-cells f => g, sorted by identifier."""
        try:
            return self._by_boundary.get((f, g), ())
        except TypeError:  # an unhashable 1-cell, which has no 2-cells
            return ()

    def linked_to(self, g):
        """The 1-cells f with a 2-cell f => g and a 2-cell g => f, as a frozenset."""
        try:
            return self._linked.get(g, frozenset())
        except TypeError:  # an unhashable 1-cell, which is linked to nothing
            return frozenset()

    def vcomp(self, b, a):
        """Vertical composite b . a (b after a)."""
        try:
            return self.vcomp_table.rows[b][a]
        except (KeyError, TypeError):  # TypeError: an unhashable id, which cell() names
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
        except (KeyError, TypeError):  # TypeError: an unhashable id, which arrow() or cell() names
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
        arrows = self.skeleton._arrows()
        one, gens1 = self.skeleton._checked(arrows)
        bad = [Violation("one:" + v.code, v.detail) for v in one]
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

        # the laws read rows keyed by the acting cell, in full: vrow[b] is
        # a |-> b . a, and side.full[k] is a |-> k |> a or a |-> a <| k
        dom, cod, by_dom, by_cod = arrows
        src = {c: x.src for c, x in twos.items()}
        tgt = {c: x.tgt for c, x in twos.items()}
        bounds = {c: (x.src, x.tgt) for c, x in twos.items()}
        at1, at2 = _positions(ones), _positions(twos)
        cells_from, cells_to, by_hom, starting_at, ending_at = {}, {}, {}, {}, {}
        for c, (f, g) in bounds.items():
            cells_from.setdefault(f, []).append(c)
            cells_to.setdefault(g, []).append(c)
            by_hom.setdefault((dom[f], cod[f]), []).append(c)
            starting_at.setdefault(dom[f], []).append(c)
            ending_at.setdefault(cod[f], []).append(c)
        vrow = self.vcomp_table.full
        composites = self.skeleton.compose_table
        left = _Side(self, False, composites, dom, cod, by_dom, ending_at, bounds)
        right = _Side(self, True, _transposed(composites, cod, by_dom), cod, dom, by_cod, starting_at, bounds)
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
        gens2 = _generators(self.vcomp_table, src, tgt, id2.values())
        bad += _category_laws(
            self.vcomp_table, id2, src, tgt, cells_from, cells_to, "vcomp-", lambda c, b, a: (b, a, c), gens2)

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

        # functoriality W(k1 . k2) = W(k1) o W(k2) is each side's row law over
        # the lawful 1-skeleton, given the whisker-unit laws; key (a, side, k2, k1)
        bad += _in_order(
            ((at2[a], side.right, at1[k2], at1[k1]), Violation(side.name + "-functorial", side.show(k1, k2, a)))
            for side in sides
            for k1, k2, a in _action_failures(
                side.full, [(side.ending_at[y], ks) for y, ks in side.by_dom.items()],
                lambda k2: side.by_dom.get(side.cod[k2], ()), side.of, units_hold, gens1)
        )
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
                whiskers = [(side, k, side.full[k], _gather(at_cells(side.full[k])))
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
        wlrow, wrrow = left.full, right.full

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
            _raise_on(self.validate())

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

    def __call__(self, m):
        try:
            return self.morphism_map[m]
        except (KeyError, TypeError):  # TypeError: m is unhashable
            raise UnknownId(f"unknown morphism {m!r}") from None

    def validate(self):
        """Boundary compatibility plus identity and composition preservation."""
        bad = self.boundary_violations()
        src = self.source
        for x in src.objects:
            if self.morphism_map[src.id_of(x)] != self.target.id_one(self.object_map[x]):
                bad.append(Violation("functor-identity", x))
        by_cod = _index(src.morphisms.values(), lambda a: a.cod)
        mm, target_rows = self.morphism_map, self.target.skeleton.rows
        over, target_over = src.compose_table.absorbing, self.target.skeleton.compose_table.absorbing
        for g in src.morphisms.values():
            for f in by_cod.get(g.dom, ()):
                lhs = mm[src.rows[g.id].get(f.id, over)]
                rhs = target_rows.get(mm[g.id], {}).get(mm[f.id], target_over)
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
