"""Preordered finite carriers with an exact positive-rational scalar action.

Objects are finite preordered sets acted on by positive rationals; maps
are monotone equivariant functions; a 2-cell from f to g is a single
positive scalar c with f(x) >= c.g(y) whenever x >= y.  Both vertical
and horizontal composition multiply the scalars, so the interchange law
reduces to commutativity of multiplication.  All arithmetic is exact
(:class:`fractions.Fraction`); nothing in this module touches floats.

Two carrier flavours share one interface:

* numeric carriers hold positive rationals, the order is the numeric
  one and the scalar action is plain multiplication.  The finite
  carrier is a probe window: quantified checks run over the stored
  order pairs while scaled values are compared arithmetically, so the
  window does not need to be closed under the action.
* opaque carriers hold names; the order is an explicit pair set and the
  action is a table on a finite generating set of scalars, extended
  multiplicatively over non-negative generator powers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .catkernel import Violation, _index, _raise_on, _total
from .errors import (
    InvalidCell,
    InvalidValue,
    NotComposable,
    NotParallel,
    UnknownElement,
)


def as_fraction(v) -> Fraction:
    """Parse ints, Fractions and "p/q" strings; reject non-positive values."""
    try:
        q = Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise InvalidValue(f"{v!r} is not a rational number") from None
    if q <= 0:
        raise InvalidValue(f"scalar {v!r} is not positive")
    return q


class PreordObject:
    """A finite preordered carrier with a positive-rational action."""

    def __init__(self, name, carrier, leq=None, generators=(), act=None, *, validate=True):
        self.name = name
        self.numeric = act is None
        if self.numeric:
            self.carrier = tuple(as_fraction(x) for x in carrier)
        else:
            self.carrier = tuple(carrier)
        if leq is None:
            if not self.numeric:
                raise InvalidValue("opaque carriers need an explicit order")
            leq = [(x, y) for x in self.carrier for y in self.carrier if x <= y]
        # the pairs in input order, repeats dropped, for reports that do not
        # depend on the hash seed; the frozenset answers membership
        self.leq_pairs = tuple(dict.fromkeys((self._elem(a), self._elem(b)) for a, b in leq))
        self.leq = frozenset(self.leq_pairs)
        self.generators = tuple(as_fraction(g) for g in generators)
        self.act_table = None if act is None else {(as_fraction(g), x): y for (g, x), y in act.items()}
        if validate:
            _raise_on(self.validate())

    def _elem(self, x):
        return as_fraction(x) if self.numeric else x

    def le(self, a, b):
        """a <= b in the carrier order (numeric values compare arithmetically)."""
        if self.numeric:
            return a <= b
        return (a, b) in self.leq

    def scale(self, q: Fraction, v):
        """The action of q on a value.

        Numeric carriers multiply; opaque carriers factor q over the
        generating set (non-negative powers) and chase the table.
        """
        if self.numeric:
            return q * v
        if q == 1:
            return v
        for combo in self._factorizations(q):
            out = v
            ok = True
            for g in combo:
                out = self.act_table.get((g, out))
                if out is None:
                    ok = False
                    break
            if ok:
                return out
        raise UnknownElement(f"cannot apply scalar {q} to {v!r} via the sampled generators")

    def _factorizations(self, q, depth=6):
        gens = self.generators
        for n in range(1, depth + 1):
            for combo in itertools.combinations_with_replacement(gens, n):
                prod = Fraction(1)
                for g in combo:
                    prod *= g
                if prod == q:
                    yield combo

    def validate(self):
        bad = []
        cset = set(self.carrier)
        for (a, b) in self.leq_pairs:
            if a not in cset or b not in cset:
                bad.append(Violation("order-carrier", f"({a}, {b})"))
        if bad:
            return bad
        for x in self.carrier:
            if (x, x) not in self.leq:
                bad.append(Violation("order-reflexive", str(x)))
        above = _index(self.leq_pairs, lambda pair: pair[0])
        for (a, b) in self.leq_pairs:
            for (_, c) in above.get(b, ()):
                if (a, c) not in self.leq:
                    bad.append(Violation("order-transitive", f"({a}, {b}, {c})"))
        if self.numeric:
            for (a, b) in self.leq_pairs:
                if not a <= b:
                    bad.append(Violation("order-numeric", f"({a}, {b})"))
        else:
            for g in self.generators:
                for x in self.carrier:
                    y = self.act_table.get((g, x))
                    if y is not None and y not in cset:
                        bad.append(Violation("action-carrier", f"({g}, {x})"))
            # monotonicity of each sampled generator where the table is defined
            for g in self.generators:
                for (a, b) in self.leq_pairs:
                    ga, gb = self.act_table.get((g, a)), self.act_table.get((g, b))
                    if ga is not None and gb is not None and (ga, gb) not in self.leq:
                        bad.append(Violation("action-monotone", f"({g}, {a}, {b})"))
            # sampled generators must commute, as the scalars do
            for g in self.generators:
                for h in self.generators:
                    for x in self.carrier:
                        hx = self.act_table.get((h, x))
                        gx = self.act_table.get((g, x))
                        if hx is None or gx is None:
                            continue
                        ghx = self.act_table.get((g, hx))
                        hgx = self.act_table.get((h, gx))
                        if ghx is not None and hgx is not None and ghx != hgx:
                            bad.append(Violation("action-commute", f"({g}, {h}, {x})"))
        return bad

    def __repr__(self):
        kind = "numeric" if self.numeric else "opaque"
        return f"PreordObject({self.name!r}, {kind}, {len(self.carrier)} elements)"


class MonotoneMap:
    """A monotone, generator-equivariant map between preordered carriers."""

    def __init__(self, name, dom: PreordObject, cod: PreordObject, table, *, validate=True):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.table = {dom._elem(k): cod._elem(v) for k, v in table.items()}
        if validate:
            _raise_on(self.validate())

    def __call__(self, x):
        try:
            return self.table[x]
        except KeyError:
            raise UnknownElement(f"{x!r} not in domain of {self.name!r}") from None

    def validate(self):
        dom, cod = self.dom, self.cod
        # the table as one row keyed by the map's name
        bad = _total({self.name: self.table}, (self.name,), dom.carrier, set(cod.carrier), "map-totality")
        if bad:
            return bad
        for (a, b) in dom.leq_pairs:
            if not cod.le(self.table[a], self.table[b]):
                bad.append(Violation("map-monotone", f"({self.name}, {a}, {b})"))
        # equivariance on sampled generators, where the scaled point stays
        # inside the probe window
        gens = dom.generators or cod.generators
        dset = set(dom.carrier)
        for g in gens:
            for x in dom.carrier:
                try:
                    gx = dom.scale(g, x)
                except UnknownElement:
                    continue
                if gx not in dset:
                    continue
                try:
                    want = cod.scale(g, self.table[x])
                except UnknownElement:
                    continue
                if self.table[gx] != want:
                    bad.append(Violation("map-equivariant", f"({self.name}, {g}, {x})"))
        return bad

    def equals(self, other):
        return (
            self.dom is other.dom and self.cod is other.cod and self.table == other.table
        )


def identity_map(obj: PreordObject) -> MonotoneMap:
    return MonotoneMap(f"id_{obj.name}", obj, obj, {x: x for x in obj.carrier}, validate=False)


def scalar_map(name, r, dom: PreordObject, cod: PreordObject) -> MonotoneMap:
    """x -> r.x between numeric carriers (images must lie in cod)."""
    r = as_fraction(r)
    if not (dom.numeric and cod.numeric):
        raise ValueError("scalar maps need numeric carriers")
    table = {x: r * x for x in dom.carrier}
    missing = [v for v in table.values() if v not in set(cod.carrier)]
    if missing:
        raise UnknownElement(f"image {missing[0]} of scalar map {name!r} not in {cod.name!r}")
    return MonotoneMap(name, dom, cod, table)


def compose_maps(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.cod is not g.dom:
        raise NotComposable(f"cod({f.name!r}) is not dom({g.name!r})")
    return MonotoneMap(f"{g.name}.{f.name}", f.dom, g.cod, {x: g.table[f.table[x]] for x in f.dom.carrier}, validate=False)


def is_two_cell(c, f: MonotoneMap, g: MonotoneMap) -> bool:
    """Exhaustive check of f(x) >= c.g(y) over all stored pairs x >= y."""
    c = as_fraction(c)
    if f.dom is not g.dom or f.cod is not g.cod:
        raise NotParallel(f"{f.name!r} and {g.name!r} are not parallel")
    cod = f.cod
    for (y, x) in f.dom.leq_pairs:  # stored pairs are (lower, upper)
        if not cod.le(cod.scale(c, g.table[y]), f.table[x]):
            return False
    return True


@dataclass(frozen=True)
class CentralCell:
    """A central-scalar 2-cell c: f => g, valid when f(x) >= c.g(y) for x >= y."""

    value: Fraction
    src: MonotoneMap = field(repr=False)
    tgt: MonotoneMap = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if not is_two_cell(self.value, self.src, self.tgt):
            raise InvalidCell(
                f"{self.value} is not a cell {self.src.name!r} => {self.tgt.name!r}"
            )


def identity_cell(f: MonotoneMap) -> CentralCell:
    return CentralCell(Fraction(1), f, f)


def compose_cells_vertical(d: CentralCell, c: CentralCell) -> CentralCell:
    """d after c; the scalars multiply."""
    if not c.tgt.equals(d.src):
        raise NotComposable("tgt of the first cell is not src of the second")
    return CentralCell(c.value * d.value, c.src, d.tgt)


def compose_cells_horizontal(d: CentralCell, c: CentralCell) -> CentralCell:
    """Side-by-side composite; the scalars multiply and the maps compose."""
    if c.src.cod is not d.src.dom:
        raise NotComposable("cells do not live over composable maps")
    return CentralCell(c.value * d.value, compose_maps(d.src, c.src), compose_maps(d.tgt, c.tgt))


def _cell_or_none(compose, d, c):
    """The composite ``compose(d, c)``, or None when it is not a cell."""
    try:
        return compose(d, c)
    except InvalidCell:
        return None


def _interchanges(ba, dc, db, ca):
    """The interchange rule at b . a beside d . c, from its composites (None
    where not a cell): (d . c) * (b . a), d * b and c * a are cells.  The
    vertical composite of the last two is not built, as exact rational
    multiplication commutes and it would be the first one again."""
    return db is not None and ca is not None and _cell_or_none(compose_cells_horizontal, dc, ba) is not None


def check_interchange(c: CentralCell, c2: CentralCell, d: CentralCell, d2: CentralCell) -> bool:
    """Middle-four exchange for c2.c beside d2.d, ``check_suite``'s rule on one
    square: True, or InvalidCell when a composite it builds is not a cell."""
    vertical = compose_cells_vertical(c2, c), compose_cells_vertical(d2, d)
    horizontal = _cell_or_none(compose_cells_horizontal, d2, c2), _cell_or_none(compose_cells_horizontal, d, c)
    if not _interchanges(*vertical, *horizontal):
        raise InvalidCell(f"a horizontal composite of {c.value}, {c2.value} beside {d.value}, {d2.value} is not a cell")
    return True


def check_suite(cells):
    """The composites of the named ``cells`` that are not cells, as (kind, a,
    b), the number of squares, and the squares [a, b, c, d] that do not
    interchange.  Each b . a and b * a, a and b in name order, is built
    once; a square is two vertical composites b . a and d . c that are
    cells, a's maps ending where c's start."""
    names = sorted(cells)
    failures, vertical, horizontal = [], {}, {}  # vertical[(a, b)] is b . a, horizontal[(a, b)] is b * a
    for a in names:
        for b in names:
            ca, cb = cells[a], cells[b]
            if ca.tgt.equals(cb.src):
                vertical[(a, b)] = _cell_or_none(compose_cells_vertical, cb, ca)
                if vertical[(a, b)] is None:
                    failures.append(("vertical", a, b))
            if ca.src.cod is cb.src.dom:
                horizontal[(a, b)] = _cell_or_none(compose_cells_horizontal, cb, ca)
                if horizontal[(a, b)] is None:
                    failures.append(("horizontal", a, b))
    pairs = [pair for pair, cell in vertical.items() if cell is not None]
    squares = [(a, b, c, d) for a, b in pairs for c, d in pairs if cells[a].src.cod is cells[c].src.dom]
    return failures, len(squares), [[a, b, c, d] for a, b, c, d in squares if not _interchanges(
        vertical[(a, b)], vertical[(c, d)], horizontal[(b, d)], horizontal[(a, c)])]
