"""Finite groups stored extensionally as validated Cayley tables.

Index 0 is always the identity; ``table[i][j]`` is the index of g_i * g_j,
``columns[j]`` column j of the table (the products g_i * g_j over i), both
held as tuples of ``bytes`` rows, which bounds the order by MAX_ORDER;
``inv[i]`` the index of the inverse of g_i, and ``generators`` a small
generating set, chosen greedily in index order.  ``left_translations`` and
``conjugations`` read g a and h^-1 a h off the coefficient tuple of an
element a of R[G]; they are built on first use and kept on the group, as
are ``classes`` (the conjugacy classes) and ``cyclic_in_index_order``.
Tables are validated on construction: identity, Latin-square property,
associativity (Light's test on the generating set, at every order) and
two-sided inverses, each with its own error type.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import cached_property
from operator import itemgetter

from .errors import ValidationError

__all__ = [
    "FiniteGroup",
    "group_from_table",
    "cyclic",
    "dihedral",
    "symmetric",
    "direct_product",
    "parse_cayley_table",
    "load_cayley_table",
    "IdentityError",
    "LatinSquareError",
    "AssociativityError",
    "InverseError",
]

MAX_ORDER = 256  # every table entry fits in a byte; checked before a table is built


class IdentityError(ValidationError):
    """The table has no two-sided identity element."""


class LatinSquareError(ValidationError):
    """Some row or column of the table is not a permutation."""


class AssociativityError(ValidationError):
    """The table describes a quasigroup, not a group."""


class InverseError(ValidationError):
    """Some element lacks a two-sided inverse."""


def _permuter(perm):
    """c -> the tuple of c[perm[m]]; itemgetter returns a bare item for a
    single index, so a length-1 map is the identity ``tuple``."""
    return itemgetter(*perm) if len(perm) > 1 else tuple


def _byte_rows(table) -> tuple:
    """The rows of a square table of ints in 0..n-1 (bools count as ints) as
    bytes, n <= MAX_ORDER.  On a bad table the rows are scanned in order, each
    for its length and then its entries, and the first fault is named; rows
    given as one-shot iterators are kept as tuples first, so that scan still
    sees their entries."""
    try:
        table = tuple(tuple(row) if isinstance(row, Iterator) else row for row in table)
    except TypeError:
        raise LatinSquareError(f"Cayley table {table!r} is not a sequence of rows") from None
    n = len(table)
    if n == 0:
        raise ValidationError("empty Cayley table")
    if n > MAX_ORDER:
        raise ValidationError(f"Cayley table order {n} exceeds the {MAX_ORDER} limit")
    try:  # bytes(k) of an int k is k zero bytes, not a row
        is_int = any(map(isinstance, table, itertools.repeat(int)))
        rows = () if is_int else tuple(map(bytes, table))
    except (TypeError, ValueError):
        rows = ()
    ident = bytes(range(n))  # the entries are in range when deleting 0..n-1 leaves nothing
    if len(rows) == n and set(map(len, rows)) == {n} and not b"".join(rows).translate(None, ident):
        return rows
    for row in table:
        try:
            row = tuple(row)
        except TypeError:
            raise LatinSquareError(f"table row {row!r} is not a sequence") from None
        if len(row) != n:
            raise LatinSquareError("Cayley table is not square")
        x = next((x for x in row if not isinstance(x, int) or not 0 <= x < n), None)
        if x is not None:
            raise LatinSquareError(f"table entry {x!r} outside 0..{n - 1}")
    raise AssertionError("a table that bytes() refused passed the row scan")


def _padded(row: bytes) -> bytes:
    """``row`` as a translation table: ``b.translate(_padded(row))[c] == row[b[c]]``."""
    return row.ljust(256, b"\0")


class FiniteGroup:
    """A finite group of order n with identity normalized to index 0.

    Identity, Latin-square, associativity and inverse checks always run.
    Associativity is Light's test: (a*b)*c = a*(b*c) for every a, c and
    every b among the generators.  That suffices because the b associating
    with all a, c are closed under products, and every element is a product
    of generators (see ``_build_generators``).  With ``_checked`` the table
    is already a tuple of bytes rows of entries in 0..n-1, as
    ``group_from_table`` and the named constructors build it, and is not
    converted again.
    """

    def __init__(self, table, labels=None, *, _checked=False):
        self.table = table = table if _checked else _byte_rows(table)
        self.n = n = len(table)
        self.labels = self._default_labels(n) if labels is None else tuple(labels)
        if len(self.labels) != n:
            raise ValidationError("label count does not match group order")
        self._validate()
        self.generators = self._build_generators()
        self._check_associative()
        self.inv = self._build_inverses()

    @staticmethod
    def _default_labels(n):
        return ("e",) + tuple(f"g{i}" for i in range(1, n))

    def _validate(self):
        n, t = self.n, self.table
        flat = b"".join(t)  # column j is every n-th byte from byte j
        self.columns = cols = tuple([flat[j::n] for j in range(n)])
        ident = bytes(range(n))
        if t[0] != ident or cols[0] != ident:
            raise IdentityError("index 0 is not a two-sided identity")
        for what, lines in (("row", t), ("column", cols)):
            # maketrans sends each entry to its last place: ident iff none repeats
            inverses = map(bytes.maketrans, lines, itertools.repeat(ident))
            if list(map(bytes.translate, lines, inverses)) != [ident] * n:
                k = next(k for k, line in enumerate(lines) if len(set(line)) != n)
                raise LatinSquareError(f"{what} {k} is not a permutation")

    def _check_associative(self):
        """Row a*b of the table, t[ta[b]], against a*(b*c) over c, which is
        tb translated by ta, for every a and every generator b."""
        t = self.table
        padded = list(map(_padded, t))
        for b in self.generators:
            tb = t[b]
            if list(map(t.__getitem__, self.columns[b])) != list(map(tb.translate, padded)):
                a = next(a for a, row in enumerate(padded) if t[t[a][b]] != tb.translate(row))
                c = next(c for c in range(self.n) if t[t[a][b]][c] != t[a][tb[c]])
                raise AssociativityError(f"({a}*{b})*{c} != {a}*({b}*{c})")

    def _build_inverses(self):
        """Row i holds e at the right inverse of g_i, column i at its left one."""
        right = tuple(map(bytes.index, self.table, itertools.repeat(0)))
        left = tuple(map(bytes.index, self.columns, itertools.repeat(0)))
        if right != left:
            i = next(i for i in range(self.n) if right[i] != left[i])
            raise InverseError(f"element {i} has no two-sided inverse")
        return right

    def _build_generators(self):
        """Each element not yet in the subgroup generated so far joins the set;
        the subgroup is the closure of the identity under right multiplication
        by the chosen generators (a finite group needs no inverses for it)."""
        t = self.table
        gens, reached = [], [True] + [False] * (self.n - 1)
        for g in range(1, self.n):
            if reached[g]:
                continue
            gens.append(g)
            frontier = [i for i in range(self.n) if reached[i]]
            while frontier:
                nxt = []
                for i in frontier:
                    for h in gens:
                        k = t[i][h]
                        if not reached[k]:
                            reached[k] = True
                            nxt.append(k)
                frontier = nxt
        return tuple(gens)

    # -- queries ---------------------------------------------------------------

    def is_abelian(self) -> bool:
        """Whether the table equals its transpose."""
        return self.table == self.columns

    @cached_property
    def left_translations(self) -> tuple:
        """For each g, the getter of the coefficients of g a from those of a:
        (g a)_m = a_(g^-1 m)."""
        t = self.table
        return tuple(_permuter(t[i]) for i in self.inv)

    @cached_property
    def conjugations(self) -> tuple:
        """The getters of h^-1 a h from a, one per distinct map m -> h m h^-1
        (over an abelian group only the identity)."""
        if self.is_abelian():
            return (tuple,)
        t, cols = self.table, self.columns
        maps = {cols[i].translate(_padded(t[h])): None for h, i in enumerate(self.inv)}
        return tuple(map(_permuter, maps))

    @cached_property
    def classes(self) -> tuple:
        """The conjugacy classes, each a tuple of indices in increasing order,
        listed by least member (the identity's class first)."""
        if self.is_abelian():
            return tuple((g,) for g in range(self.n))
        t, found = self.table, {}
        for g in range(self.n):
            if g not in found:
                cls = tuple(sorted({t[t[h][g]][i] for h, i in enumerate(self.inv)}))
                found.update(dict.fromkeys(cls, cls))
        return tuple(dict.fromkeys(found.values()))

    @cached_property
    def cyclic_in_index_order(self) -> bool:
        """Whether the table is ``cyclic(n)``'s, g_i * g_j = g_((i + j) mod n):
        then coordinate i of an element of R[G] is the coefficient of x^i in
        R[x]/(x^n - 1)."""
        r = bytes(range(self.n))
        return self.table == tuple(r[i:] + r[:i] for i in range(self.n))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"


def group_from_table(table, labels=None) -> FiniteGroup:
    """Validate a raw Cayley table, relabeling so the identity sits at index 0."""
    table = _byte_rows(table)
    n, ident, flat = len(table), bytes(range(len(table))), b"".join(table)
    e = next((i for i in range(n) if table[i] == flat[i::n] == ident), None)
    if e is None:
        raise IdentityError("no two-sided identity element found")
    if e != 0:  # swap labels 0 <-> e
        sig = list(range(n))
        sig[0], sig[e] = e, 0
        move, relabel = itemgetter(*sig), _padded(bytes(sig))
        table = tuple(bytes(move(table[a])).translate(relabel) for a in sig)
        if labels is not None:
            labels = list(labels)
            labels[0], labels[e] = labels[e], labels[0]
    return FiniteGroup(table, labels=labels, _checked=True)


# ---------------------------------------------------------------------------
# named constructors (element orders are fixed so coordinates are reproducible)


def cyclic(n: int) -> FiniteGroup:
    """C_n with elements e, g, g^2, ..., g^{n-1}."""
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    if n > MAX_ORDER:
        raise ValidationError(f"cyclic group order {n} exceeds the {MAX_ORDER} limit")
    r = bytes(range(n))
    table = [r[i:] + r[:i] for i in range(n)]
    labels = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(tuple(table), labels=labels, _checked=True)


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n: rotations r^0..r^{n-1} first, then reflections r^i*s.

    Composition follows s*r*s^-1 = r^-1:
    r^a * r^b = r^(a+b), r^a * (r^b s) = r^(a+b) s, (r^a s) * r^b = r^(a-b) s,
    and (r^a s)(r^b s) = r^(a-b).
    """
    if n < 1:
        raise ValidationError("dihedral parameter must be >= 1")
    order = 2 * n
    if order > MAX_ORDER:
        raise ValidationError(f"dihedral group order {order} exceeds the {MAX_ORDER} limit")
    r, s = bytes(range(n)), bytes(range(n, order))
    table = [r[a:] + r[:a] + s[a:] + s[:a] for a in range(n)]
    table += [s[a::-1] + s[:a:-1] + r[a::-1] + r[:a:-1] for a in range(n)]
    rot = ["e"] + [f"r^{i}" if i > 1 else "r" for i in range(1, n)]
    ref = ["s"] + [f"{label}s" for label in rot[1:]]
    return FiniteGroup(tuple(table), labels=rot + ref, _checked=True)


def symmetric(m: int) -> FiniteGroup:
    """S_m with elements in lexicographic one-line order; (s*t)(x) = s(t(x))."""
    if m < 1:
        raise ValidationError("symmetric group parameter must be >= 1")
    if m > 5:
        raise ValidationError("symmetric groups supported up to S_5 (order 120)")
    perms = list(map(bytes, itertools.permutations(range(m))))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for s in perms:
        products = map(bytes.translate, perms, itertools.repeat(_padded(s)))  # s*t over t
        table.append(bytes(map(index.__getitem__, products)))
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(tuple(table), labels=labels, _checked=True)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with elements ordered as lexicographic pairs (a, b) -> a*|H| + b."""
    order = G.n * H.n
    if order > MAX_ORDER:
        raise ValidationError(f"direct product order {order} exceeds the {MAX_ORDER} limit")
    nh = H.n  # block c of row (a, b) is row b of H shifted by (a*c) * |H|
    shifted = [[row.translate(_padded(bytes(range(g * nh, (g + 1) * nh)))) for row in H.table]
               for g in range(G.n)]
    table = [b"".join(shifted[g][b] for g in row) for row in G.table for b in range(nh)]
    labels = [f"({la},{lb})" for la in G.labels for lb in H.labels]
    return FiniteGroup(tuple(table), labels=labels, _checked=True)


# ---------------------------------------------------------------------------
# Cayley-table file format: first line n, then n lines of n 0-based indices


def parse_cayley_table(text: str) -> FiniteGroup:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValidationError("empty Cayley table file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValidationError(f"bad order line {lines[0]!r}") from exc
    if n > MAX_ORDER:
        raise ValidationError(f"group table order {n} exceeds the {MAX_ORDER} limit")
    if len(lines) != n + 1:
        raise ValidationError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        try:
            row = list(map(int, ln.split()))
        except ValueError as exc:
            raise ValidationError(f"bad table row {ln!r}") from exc
        if len(row) != n:
            raise ValidationError(f"row {ln!r} does not have {n} entries")
        table.append(row)
    return group_from_table(table)


def load_cayley_table(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cayley_table(fh.read())
