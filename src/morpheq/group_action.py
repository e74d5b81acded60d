"""Finite group actions and their delooped chain 2-categories.

A left action of a finite group G on a finite set E induces an
equivalence on E: x ~ y iff some g sends x to y.  The same relation is
recovered by the witnessed 2-categorical search: chains over E form the
1-cells of a one-object strict 2-category whose 2-cells relabel a chain
pointwise by transporter elements, and two letters are equivalent there
iff they lie in the same orbit.  Chains of different lengths never bound
a 2-cell, which is what forces the comparison chains in any witness to
be empty.

Groups and actions are stored as rows, ``rows[g][h] = g h`` and
``rows[g][x] = g . x``, as every table of :mod:`morpheq.catkernel` is,
and their associativity and compatibility laws are both the kernel's
gated row law (h g) x = h (g x): checked at the group's generators first
(Light's test), and in full only to name failures.  Associativity is
gated once the unit law holds, compatibility once the action's and the
group's unit laws and associativity hold: a group that validated lawful
keeps its generators, and its actions reuse them without validating it
again.  Over any other group compatibility runs in full, and an action
over a group whose unit is not an element or whose table is not closed
reports the group's violations.  A repeated element or carrier name is
rejected at construction.  Each action indexes its orbits once; for a
monoid the index holds mutual-reachability classes.

The delooping itself is infinite; :func:`deloop_slice` builds the finite
sub-2-category of chains of length <= max_chain_length + 1.  Its 1-cells
and sparse composition rows are built with the slice; its 2-cells are
defined once, by its 2-category, which answers each 2-cell question from
the ids asked and lists the cells or writes the tables only when
something iterates them or reads a table.  Concatenations that would
exceed the length bound collapse onto a single absorbing 1-cell (id
``!overflow``) whose only 2-cell is its identity.  The absorbing cell
can never bound a transporter 2-cell, so verdicts agree with the
unbounded delooping for every bound.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping

from .catkernel import Cell, Finite2Category, FiniteCategory, FunctorData, RowTable, Violation
from .catkernel import _action_failures, _as_rows, _distinct, _generators, _in_order, _positions, _raise_on, _total
from .equivalence import EquivData, are_equivalent
from .errors import InvalidParameter, NotComposable, UnknownElement, UnknownId

OVERFLOW = "!overflow"
_RESERVED = set("[],>#!")


def _extra(table, heads, xs, code):
    """A ``code`` violation for each entry of ``table`` off the sets ``heads``
    by ``xs``, in table order.  Whole rows are tested first; only a failing
    test walks the table."""
    if table.rows.keys() <= heads and all(map(xs.issuperset, table.rows.values())):
        return []
    return [Violation(code, "({}, {})".format(*key)) for key in table if key[0] not in heads or key[1] not in xs]


def _compatible(act, elements, xs, mul, code, premises, gens):
    """A ``code`` violation for each (h, g, x) with (h g) x != h (g x), where
    ``act[g][x]`` is g acting on x and ``mul[h][g]`` the product h g, sorted
    by the positions of h, g and x: the kernel's row law, gated at ``gens``."""
    if not xs:
        return []
    at, ax = _positions(elements), _positions(xs)
    failed = _action_failures(act, [(list(xs), elements)], lambda g: elements, lambda h, g: mul[h][g], premises, gens)
    return _in_order(((at[h], at[g], ax[x]), Violation(code, f"({h}, {g}, {x})")) for h, g, x in failed)


class FiniteGroup:
    """A finite group as an element list and a multiplication table, stored as
    rows ``rows[g][h] = g h``; ``mul_table`` is their ``(g, h)``-keyed view."""

    def __init__(self, elements, mul, unit, *, validate=True):
        self.elements = _distinct(elements, "group element")
        self.mul_table = _as_rows(mul)
        self.rows = self.mul_table.rows
        self.unit = unit
        self._gens = None  # set by validate() once the unit and associativity laws hold
        if validate:
            _raise_on(self.validate())

    def mul(self, g, h):
        try:
            return self.rows[g][h]
        except (KeyError, TypeError):  # TypeError: an unhashable element
            raise UnknownElement(f"({g!r}, {h!r}) not in multiplication table") from None

    def validate(self):
        """Closure and extra entries, then the unit law and associativity, then,
        for a lawful monoid, inverses.  Associativity is the row law, checked
        at generators first once the unit law holds; when both laws hold the
        generators are kept for the group's actions.  In a finite monoid an
        element with a right inverse is invertible (Howie, *Fundamentals of
        Semigroup Theory*, 1995, ch. 1), so one side is searched."""
        els, rows, unit = self.elements, self.rows, self.unit
        eset = set(els)
        self._gens = None
        if unit not in eset:
            return [Violation("group-unit", f"unit {unit!r} not an element")]
        bad = _total(rows, els, els, eset, "group-closure") + _extra(self.mul_table, eset, eset, "group-extra")
        if bad:
            return bad
        for g in els:
            if rows[unit][g] != g or rows[g][unit] != g:
                bad.append(Violation("group-unit", g))
        one = dict.fromkeys(els, unit)  # every element's ends, the one object
        gens = _generators(self.mul_table, one, one, [unit])
        bad += _compatible(rows, els, els, rows, "group-assoc", not bad, gens)
        if not bad:
            self._gens = gens
            # with no extra entries, a row's values are its element columns
            if not all(unit in rows[g].values() for g in els):
                bad.append(Violation("group-inverse", "some element has no inverse"))
        return bad

    @classmethod
    def cyclic(cls, n):
        els = [f"g{i}" for i in range(n)]
        mul = {(els[i], els[j]): els[(i + j) % n] for i in range(n) for j in range(n)}
        return cls(els, mul, els[0])

    @classmethod
    def from_dict(cls, data, *, validate=True):
        return cls(data["elements"], {(g, h): k for g, h, k in data["mul"]}, data["unit"], validate=validate)


class GroupAction:
    """A left action of a finite group on a finite carrier, stored as rows
    ``rows[g][x] = g . x``; ``act_table`` is their ``(g, x)``-keyed view."""

    def __init__(self, group: FiniteGroup, carrier, act, *, validate=True):
        self.group = group
        self.carrier = _distinct(carrier, "carrier element")
        self.act_table = _as_rows(act)
        self.rows = self.act_table.rows
        if validate:
            _raise_on(self.validate())
        self._slices = {}

    def act(self, g, x):
        try:
            return self.rows[g][x]
        except (KeyError, TypeError):  # TypeError: an unhashable element
            raise UnknownElement(f"({g!r}, {x!r}) not in action table") from None

    def validate(self):
        group, xs, rows = self.group, self.carrier, self.rows
        els, eset, cset, gens = group.elements, set(group.elements), set(xs), group._gens
        if gens is None and (group.unit not in eset or _total(group.rows, els, els, eset, "group-closure")):
            return group.validate()  # the laws below read the unit's row and every product
        bad = _total(rows, els, xs, cset, "action-totality") + _extra(self.act_table, eset, cset, "action-extra")
        if bad:
            return bad
        bad = [Violation("action-unit", x) for x in xs if rows[group.unit][x] != x]  # per x: the empty carrier has no rows
        return bad + _compatible(rows, els, xs, group.rows, "action-compat", not bad and gens is not None, gens)

    @functools.cached_property
    def _transporters(self):
        """(x, y) -> the group elements sending x to y, in element order."""
        table = {}
        for g in self.group.elements:
            row = self.rows.get(g, {})  # an action on the empty carrier stores no rows
            for x in self.carrier:
                table.setdefault((x, row[x]), []).append(g)
        return {key: tuple(gs) for key, gs in table.items()}

    def transporters(self, x, y):
        """Group elements sending x to y, in element order."""
        try:
            return self._transporters.get((x, y), ())
        except TypeError:  # an unhashable element, which nothing sends anywhere
            return ()

    @functools.cached_property
    def _orbits(self):
        """x -> the carrier elements y with transporters x -> y and y -> x, in
        carrier order: x's orbit for a group, its mutual-reachability class
        for a monoid."""
        reach = self._transporters
        return {x: tuple(y for y in self.carrier if (x, y) in reach and (y, x) in reach) for x in self.carrier}

    @classmethod
    def from_dict(cls, data, *, validate=True):
        group = FiniteGroup.from_dict(data["group"], validate=validate)
        return cls(group, data["carrier"], {(g, x): y for g, x, y in data["act"]}, validate=validate)


def orbit_equivalent(a: GroupAction, x, y):
    """Decide orbit membership; return (verdict, least transporter or None).

    "Least" means first in the group's element order.
    """
    for z in (x, y):
        if z not in a.carrier:
            raise UnknownElement(f"{z!r} not in carrier")
    ts = a.transporters(x, y)
    if not ts:
        return False, None
    return True, ts[0]


def orbit_partition(a: GroupAction):
    """Orbits as sorted blocks, sorted by least member."""
    return sorted(map(sorted, set(a._orbits.values())))


def _labellings(a: GroupAction, src, tgt):
    """The pointwise transporter labellings of ``src`` onto ``tgt``, two chains
    of one length, in the group's element order position by position."""
    return itertools.product(*map(a.transporters, src, tgt))


def _word_id(word):
    return "[" + ",".join(word) + "]"


def _cell_id(src_id, tgt_id, labels):
    return f"{src_id}>{tgt_id}#{','.join(labels)}"


_OVERFLOW_ID2 = _cell_id(OVERFLOW, OVERFLOW, ())


def _vertical(mul, b, a):
    """b . a for 2-cells a: f => g and b: g => h, each given as (src, tgt,
    labels): f => h labelled by the products of b's and a's labels, read
    as ``_pairwise`` reads them, inline since the bulk build calls this
    once per vcomp entry."""
    return a[0], b[1], tuple(map(dict.__getitem__, map(mul.__getitem__, b[2]), a[2]))


def _whiskered(k, pad, a, right):
    """k |> a, or a <| k when ``right``, for a 2-cell a given as (src word,
    tgt word, labels): both words take the word k on that side, and the
    labels ``pad``, k's letters labelled by the unit."""
    src, tgt, labels = a
    if right:
        return src + k, tgt + k, labels + pad
    return k + src, k + tgt, pad + labels


class _SliceCells(Mapping):
    """A slice's 2-cells by id, read-only.  A lookup reads the cell off its id
    (``_SliceTwoCategory._read``); iterating the mapping or asking its size
    lists every cell once (``_listed``), and later lookups read the list."""

    __slots__ = ("_d",)

    def __init__(self, d):
        self._d = d

    def __getitem__(self, a):
        listed = vars(self._d).get("_listed")
        try:
            if listed is not None:
                return listed[a]
            f, g, _ = self._d._read(a)
        except (UnknownId, TypeError):  # TypeError: a is unhashable
            raise KeyError(a) from None
        return Cell(a, f, g)

    def __iter__(self):
        return iter(self._d._listed)

    def __len__(self):
        return len(self._d._listed)

    # the list's own views, which validate() walks at the speed of a dict
    def values(self):
        return self._d._listed.values()

    def items(self):
        return self._d._listed.items()


class _SliceTwoCategory(Finite2Category):
    """A slice's 2-category, the one definition of its 2-cells: a word f
    relabelled onto a word g letter by letter by transporters, where g's
    letters lie in the orbits of f's.

    ``Finite2Category``'s constructor is not run; ``ids`` maps each word, by
    length, to its 1-cell id.  Every 2-cell question is answered from the
    ids asked, in time linear in their words: ``cell`` and ``two_cells[a]``
    read a's words and labels, ``vcomp`` multiplies the labels, the
    whiskerings pad them with the unit (the overflow cell past the bound),
    and so ``hcomp`` and the derive_* witnesses build nothing.  The
    witness search reads ``cells_between`` and ``linked_to``, answered from
    the orbits, and reflexivity ``id_two``.  Only iterating ``two_cells``
    or asking its size (``validate()``, export) lists the 2-cells, and only
    ``validate()`` and the table views write the tables, through the
    kernel's reference checks; the lookups and the tables share one rule
    for each operation (``_vertical``, ``_whiskered``).  The search's two
    lookups are memoised because it repeats them: deciding every letter
    pair of fresh slices asks each ``linked_to`` key about 6 times and
    each ``cells_between`` key about 4 times (1,184 calls over 181 keys
    and 1,604 over 401 in one deloop-orbits pass, seed 1); the classes
    sweep asks only ``linked_to``, once per 1-cell.
    """

    def __init__(self, action, ids, skeleton):
        self.skeleton, self._action, self._ids = skeleton, action, ids
        self._words = {i: w for w, i in ids.items()}
        self._bound = len(next(reversed(ids)))  # the last word is one of the longest
        self._between_memo, self._linked_memo = {}, {}

    @functools.cached_property
    def _labelled(self):
        """(src word, tgt word, labels) -> id of every 2-cell but the overflow
        cell's; the 2-cells and the tables share these id strings."""
        action, wid, orbit = self._action, self._ids, self._action._orbits
        return {
            (src, tgt, labels): _cell_id(wid[src], wid[tgt], labels)
            for src in wid for tgt in itertools.product(*map(orbit.__getitem__, src))
            for labels in _labellings(action, src, tgt)
        }

    @functools.cached_property
    def identity2(self):
        return {f: self.id_two(f) for f in self.skeleton.morphisms}

    @functools.cached_property
    def two_cells(self):
        return _SliceCells(self)

    @functools.cached_property
    def _listed(self):
        wid = self._ids
        cells = [Cell(cid, wid[src], wid[tgt]) for (src, tgt, _), cid in self._labelled.items()]
        return self._checked_cells(cells + [Cell(_OVERFLOW_ID2, OVERFLOW, OVERFLOW)])

    @functools.cached_property
    def _tables(self):
        """The checked vcomp and whiskering tables, as rows keyed by the acting
        cell: v[b][a] = b . a, and wl[k][a] = k |> a and wr[k][a] = a <| k."""
        cell_ids, over = self._labelled, _OVERFLOW_ID2
        mul, unit = self._action.group.rows, self._action.group.unit
        cells_to, by_length = {}, {}
        for cell, cid in cell_ids.items():
            cells_to.setdefault(cell[1], []).append((cell, cid))
            by_length.setdefault(len(cell[0]), []).append((cell, cid))
        v = {bid: {aid: cell_ids[_vertical(mul, b, a)] for a, aid in cells_to[b[0]]} for b, bid in cell_ids.items()}
        v[over] = {over: over}

        # cells too long to take k on go to the overflow cell; rows are
        # only read, so both sides share the overflow cell's own row
        over_row = dict.fromkeys(itertools.chain(cell_ids.values(), [over]), over)
        wl, wr = {}, {}
        for k, kid in self._ids.items():
            pad = (unit,) * len(k)
            left = wl[kid] = over_row.copy()
            right = wr[kid] = over_row.copy()
            for n in range(self._bound + 1 - len(k)):
                for a, cid in by_length[n]:
                    left[cid] = cell_ids[_whiskered(k, pad, a, False)]
                    right[cid] = cell_ids[_whiskered(k, pad, a, True)]
        wl[OVERFLOW] = wr[OVERFLOW] = over_row
        tables = self._checked_tables(RowTable(v), RowTable(wl), RowTable(wr, flipped=True))
        del self._labelled  # its other reader, the 2-cell list, is built by the check
        return tables

    vcomp_table = functools.cached_property(lambda self: self._tables[0])
    wl_table = functools.cached_property(lambda self: self._tables[1])
    wr_table = functools.cached_property(lambda self: self._tables[2])

    def _read(self, a):
        """The 2-cell a as (src id, tgt id, labels).  Raises ``UnknownId``
        unless a is one of the listed cells: two words of one length, each
        label a transporter of its letter onto a letter that reaches back."""
        if isinstance(a, str):
            if a == _OVERFLOW_ID2:
                return OVERFLOW, OVERFLOW, ()
            f, _, rest = a.partition(">")
            g, sep, text = rest.partition("#")
            src, tgt = self._words.get(f), self._words.get(g)
            if sep and src is not None and tgt is not None:
                labels = tuple(text.split(",")) if src or text else ()
                reach = self._action._transporters
                if len(src) == len(tgt) == len(labels) and all(
                        h in reach.get((x, y), ()) and (y, x) in reach for x, y, h in zip(src, tgt, labels)):
                    return f, g, labels
        raise UnknownId(f"unknown 2-cell {a!r}")

    def vcomp(self, b, a):
        """Vertical composite b . a (b after a), labelled by the products."""
        ra, rb = self._read(a), self._read(b)
        if ra[1] != rb[0]:
            raise NotComposable(f"tgt({a!r}) != src({b!r})")
        return _cell_id(*_vertical(self._action.group.rows, rb, ra))

    def _whisker(self, right, k, a):
        """k |> a, or a <| k on the right; the overflow cell when the words
        would pass the bound or either is the overflow cell."""
        self.skeleton.arrow(k)  # UnknownId for an unknown 1-cell
        k, (f, g, labels) = self._words.get(k), self._read(a)
        src = self._words.get(f)
        if k is None or src is None or len(k) + len(src) > self._bound:
            return _OVERFLOW_ID2
        pad = (self._action.group.unit,) * len(k)
        src, tgt, labels = _whiskered(k, pad, (src, self._words[g], labels), right)
        return _cell_id(self._ids[src], self._ids[tgt], labels)

    def id_two(self, f):
        """f relabelled by the unit letter by letter (no letters for the overflow cell)."""
        word = self._words.get(f) if isinstance(f, str) else None
        if word is None:
            if f != OVERFLOW:
                raise UnknownId(f"unknown 1-cell {f!r}")
            return _OVERFLOW_ID2
        return _cell_id(f, f, (self._action.group.unit,) * len(word))

    def cells_between(self, f, g):
        """The transporter labellings of f onto g linked to f, as sorted 2-cell ids."""
        try:
            got = self._between_memo.get((f, g))
        except TypeError:  # an unhashable 1-cell, which has no 2-cells
            return ()
        if got is None:
            if g not in self.linked_to(f):
                got = ()
            elif f == OVERFLOW:
                got = (_OVERFLOW_ID2,)
            else:
                labellings = _labellings(self._action, self._words[f], self._words[g])
                got = tuple(sorted(_cell_id(f, g, labels) for labels in labellings))
            self._between_memo[(f, g)] = got
        return got

    def linked_to(self, g):
        """The words of g's length whose letters lie in the orbits of g's;
        the overflow cell is linked only to itself."""
        try:
            got = self._linked_memo.get(g)
        except TypeError:  # an unhashable 1-cell, which is linked to nothing
            return frozenset()
        if got is None:
            word = self._words.get(g)
            if word is None:
                got = frozenset([g] if g == OVERFLOW else [])
            else:
                orbit = self._action._orbits
                got = frozenset(map(self._ids.__getitem__, itertools.product(*map(orbit.__getitem__, word))))
            self._linked_memo[g] = got
        return got


def _check_bound(max_chain_length):
    """Raise ``InvalidParameter`` unless the chain bound is an int >= 0 (a bool is not one)."""
    if not isinstance(max_chain_length, int) or isinstance(max_chain_length, bool):
        raise InvalidParameter(f"max_chain_length must be an int, not {max_chain_length!r}")
    if max_chain_length < 0:
        raise InvalidParameter("max_chain_length must be >= 0")


class DeloopedSlice:
    """The bounded delooping plus its identity parameter bundle, whose sigma,
    tau1 and tau2 are one identity functor.

    Composition is built as sparse rows, ``{g: {f: g . f}}`` for the real
    concatenations only, by index arithmetic, and handed to the category
    as a ``RowTable`` without a copy, with the overflow cell as the
    absorbing id of every pair left out; the 2-category builds its
    identities, 2-cells and other tables on first read.
    """

    def __init__(self, action: GroupAction, max_chain_length: int):
        _check_bound(max_chain_length)
        for name in itertools.chain(action.carrier, action.group.elements):
            if _RESERVED & set(name):
                raise InvalidParameter(f"name {name!r} uses a reserved character")
        self.action = action
        self.max_chain_length = max_chain_length
        bound = max_chain_length + 1
        obj = "*"

        # words by length, each length in carrier-numeral order (first letter
        # most significant), so blocks[n][i] is the word of length n numbered i
        blocks = [[()]]
        for _ in range(bound):
            blocks.append([w + (x,) for w in blocks[-1] for x in action.carrier])
        words = list(itertools.chain.from_iterable(blocks))
        wid = {w: _word_id(w) for w in words}
        one_cells = [(wid[w], obj, obj) for w in words] + [(OVERFLOW, obj, obj)]

        # g . f is the concatenation g + f (outer letters first), numbered
        # i * k^b + j for g = blocks[a][i], f = blocks[b][j] and k letters:
        # g's composites with the words of length b are one slice of the
        # length a + b block; longer concatenations, and every composite
        # with the overflow cell, are left to the view's absorbing id
        ids = [wid[w] for w in words] + [OVERFLOW]
        id_blocks = [[wid[w] for w in block] for block in blocks]
        rows = {}
        for a, gs in enumerate(id_blocks):
            for i, g in enumerate(gs):
                row = rows[g] = {}
                for b, fs in enumerate(id_blocks[:bound + 1 - a]):
                    row.update(zip(fs, id_blocks[a + b][i * len(fs):(i + 1) * len(fs)]))

        self.category = FiniteCategory([obj], one_cells, {obj: wid[()]}, RowTable(rows, absorbing=OVERFLOW), validate=False)
        self.two_category = _SliceTwoCategory(action, wid, self.category)
        ident = FunctorData(self.category, self.two_category, {obj: obj}, {m: m for m in ids}, validate=False)
        self.equiv = EquivData(self.category, self.two_category, ident, ident, ident, validate=False)
        self._letters = dict(zip(action.carrier, id_blocks[1]))  # x -> the 1-cell of (x,)

    def embed(self, x):
        """The 1-cell carrying the single-letter chain (x,)."""
        try:
            return self._letters[x]
        except (KeyError, TypeError):  # TypeError: x is unhashable
            raise UnknownElement(f"{x!r} not in carrier") from None


def deloop_slice(a: GroupAction, max_chain_length: int) -> DeloopedSlice:
    """Build (or fetch the cached) bounded delooping slice."""
    _check_bound(max_chain_length)  # before the cache, which takes True for 1
    if max_chain_length not in a._slices:
        a._slices[max_chain_length] = DeloopedSlice(a, max_chain_length)
    return a._slices[max_chain_length]


def delooped_equivalent(a: GroupAction, x, y, max_chain_length: int):
    """Run the witnessed search for the two letters inside the bounded slice.

    The verdict is independent of the bound: chains of different lengths
    bound no 2-cell, so any witness must use empty comparison chains.
    """
    s = deloop_slice(a, max_chain_length)
    return are_equivalent(s.equiv, s.embed(x), s.embed(y))
