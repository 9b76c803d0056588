"""Finite groups stored extensionally as validated Cayley tables.

Index 0 is always the identity; ``table[i][j]`` is the index of g_i * g_j,
``columns[j]`` column j of the table (the products g_i * g_j over i),
``inv[i]`` the index of the inverse of g_i, and ``generators`` a small
generating set, chosen greedily in index order.  ``left_translations`` and
``conjugations`` read g a and h^-1 a h off the coefficient tuple of an
element a of R[G]; they are built on first use and kept on the group.
Tables are validated on construction: identity, Latin-square property,
associativity (Light's test on the generating set, at every order) and
two-sided inverses, each with its own error type.
"""

from __future__ import annotations

import itertools
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

MAX_ORDER = 256  # checked before a named constructor builds its table


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


def _check_rows(table) -> int:
    """The order n of a square table whose entries are ints in 0..n-1 (bools
    count as ints), checked a row at a time; the first bad entry is named."""
    n = len(table)
    if n == 0:
        raise ValidationError("empty Cayley table")
    for row in table:
        if len(row) != n:
            raise LatinSquareError("Cayley table is not square")
        kinds = set(map(type, row))
        if not all(issubclass(k, int) for k in kinds) or min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not isinstance(x, int) or not 0 <= x < n)
            raise LatinSquareError(f"table entry {x!r} outside 0..{n - 1}")
    return n


class FiniteGroup:
    """A finite group of order n with identity normalized to index 0.

    Identity, Latin-square, associativity and inverse checks always run.
    Associativity is Light's test: (a*b)*c = a*(b*c) for every a, c and
    every b among the generators.  That suffices because the b associating
    with all a, c are closed under products, and every element is a product
    of generators (see ``_build_generators``).
    """

    def __init__(self, table, labels=None):
        table = tuple(tuple(row) for row in table)
        n = _check_rows(table)
        self.n = n
        self.table = table
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
        self.columns = cols = tuple(zip(*t))
        ident = tuple(range(n))
        if t[0] != ident or cols[0] != ident:
            raise IdentityError("index 0 is not a two-sided identity")
        full = set(ident)
        for i in range(n):
            if set(t[i]) != full:
                raise LatinSquareError(f"row {i} is not a permutation")
        for j in range(n):
            if set(cols[j]) != full:
                raise LatinSquareError(f"column {j} is not a permutation")

    def _check_associative(self):
        """Row a*b of the table against a*(b*c) for every c, b a generator."""
        t = self.table
        for b in self.generators:
            tb = t[b]
            for a, ta in enumerate(t):
                tab = t[ta[b]]
                if tab != tuple(map(ta.__getitem__, tb)):
                    c = next(c for c in range(self.n) if tab[c] != ta[tb[c]])
                    raise AssociativityError(f"({a}*{b})*{c} != {a}*({b}*{c})")

    def _build_inverses(self):
        n, t = self.n, self.table
        inv = [0] * n
        for i in range(n):
            j = t[i].index(0)
            if t[j][i] != 0:
                raise InverseError(f"element {i} has no two-sided inverse")
            inv[i] = j
        return tuple(inv)

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

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.inv[i]

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
        t, inv = self.table, self.inv
        maps = {tuple(t[h][t[m][inv[h]]] for m in range(self.n)): None for h in range(self.n)}
        return tuple(map(_permuter, maps))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"


def group_from_table(table, labels=None) -> FiniteGroup:
    """Validate a raw Cayley table, relabeling so the identity sits at index 0."""
    table = [list(row) for row in table]
    n = _check_rows(table)
    ident = None
    for i in range(n):
        if all(table[i][j] == j for j in range(n)) and all(table[k][i] == k for k in range(n)):
            ident = i
            break
    if ident is None:
        raise IdentityError("no two-sided identity element found")
    if ident != 0:
        # swap labels 0 <-> ident
        sig = list(range(n))
        sig[0], sig[ident] = ident, 0
        table = [[sig[table[sig[a]][sig[b]]] for b in range(n)] for a in range(n)]
        if labels is not None:
            labels = list(labels)
            labels[0], labels[ident] = labels[ident], labels[0]
    return FiniteGroup(table, labels=labels)


# ---------------------------------------------------------------------------
# named constructors (element orders are fixed so coordinates are reproducible)


def cyclic(n: int) -> FiniteGroup:
    """C_n with elements e, g, g^2, ..., g^{n-1}."""
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    if n > MAX_ORDER:
        raise ValidationError(f"cyclic group order {n} exceeds the {MAX_ORDER} limit")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(table, labels=labels)


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
    table = [[0] * order for _ in range(order)]
    for a in range(n):
        for b in range(n):
            table[a][b] = (a + b) % n
            table[a][n + b] = n + (a + b) % n
            table[n + a][b] = n + (a - b) % n
            table[n + a][n + b] = (a - b) % n
    rot = ["e"] + [f"r^{i}" if i > 1 else "r" for i in range(1, n)]
    ref = ["s"] + [f"{r}s" for r in rot[1:]]
    return FiniteGroup(table, labels=rot + ref)


def symmetric(m: int) -> FiniteGroup:
    """S_m with elements in lexicographic one-line order; (s*t)(x) = s(t(x))."""
    if m < 1:
        raise ValidationError("symmetric group parameter must be >= 1")
    if m > 5:
        raise ValidationError("symmetric groups supported up to S_5 (order 120)")
    perms = list(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(s[t[x]] for x in range(m))] for t in perms]
        for s in perms
    ]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels=labels)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with elements ordered as lexicographic pairs (a, b) -> a*|H| + b."""
    order = G.n * H.n
    if order > MAX_ORDER:
        raise ValidationError(f"direct product order {order} exceeds the {MAX_ORDER} limit")
    nh = H.n
    table = [
        [G.table[a][c] * nh + H.table[b][d] for c in range(G.n) for d in range(nh)]
        for a in range(G.n)
        for b in range(nh)
    ]
    labels = [f"({la},{lb})" for la in G.labels for lb in H.labels]
    return FiniteGroup(table, labels=labels)


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
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValidationError(f"bad table row {ln!r}") from exc
        if len(row) != n:
            raise ValidationError(f"row {ln!r} does not have {n} entries")
        table.append(row)
    return group_from_table(table)


def load_cayley_table(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cayley_table(fh.read())
