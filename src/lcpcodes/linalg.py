"""Exact linear algebra for submodules of R^n over one finite chain ring.

One reduction engine, ``_howell``, serves span, membership, kernel,
intersection and solve.  It computes a Howell form (Howell 1986, "Spans in
the module (Z_m)^s"; Storjohann and Mulders, ESA 1998) whose pivot entries
are exact powers gamma^t: entries below a pivot are zero, entries above are
reduced to canonical representatives modulo <gamma^t>, and for every pivot
with t > 0 the saturation row gamma^(e-t) * row is folded back in.  The form
is canonical, so equal spans have equal forms.  The saturation rows give the
Howell property: for every k, the rows whose pivot column is >= k span all
of the module that vanishes on the first k columns.  Kernels and
intersections are read off that property from one augmented reduction each.
Over fields the saturation step is a no-op and the form is the ordinary
reduced row echelon form.  Over Z_{p^e} the engine works on plain ints
(``_IntScalars``), over GR(p^e, r) with r > 1 on coefficient tuples
(``_TupleScalars``); rows enter and leave it as tuples of ring elements.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod

from .errors import CapExceededError, ValidationError
from .rings import ChainRing

__all__ = [
    "RingMatrix",
    "PivotForm",
    "SpanSolver",
    "pivot_reduce",
    "membership",
    "kernel",
    "intersect",
    "enumerate_codewords",
    "support_counts",
    "DEFAULT_ENUM_CAP",
]

DEFAULT_ENUM_CAP = 1 << 20
# Largest table of trailing-row sums in the packed walk.
_BLOCK = 1 << 10
# Distinct packed keys that support_counts holds before converting them to
# masks, which bounds its memory when most supports differ (as over F2).
_FLUSH = 1 << 16


@dataclass(frozen=True)
class RingMatrix:
    """Rows over one chain ring; ``ncols`` kept explicit for empty matrices."""

    ring: ChainRing
    rows: tuple
    ncols: int

    @classmethod
    def make(cls, ring: ChainRing, rows, ncols: int | None = None) -> "RingMatrix":
        rows = tuple(map(ring.check_row, rows))
        if ncols is None:
            if not rows:
                raise ValidationError("ncols is required for an empty matrix")
            ncols = len(rows[0])
        for row in rows:
            if len(row) != ncols:
                raise ValidationError("rows of differing length")
        return cls(ring, rows, ncols)


@dataclass(frozen=True)
class PivotForm:
    """Canonical generator rows: pivot j is exactly gamma^{pivot_vals[j]}."""

    ring: ChainRing
    ncols: int
    rows: tuple
    pivot_cols: tuple
    pivot_vals: tuple

    def cardinality(self) -> int:
        q, e = self.ring.q, self.ring.e
        out = 1
        for t in self.pivot_vals:
            out *= q ** (e - t)
        return out

    def contains(self, v) -> bool:
        return membership(v, self)

    def codewords(self, cap: int = DEFAULT_ENUM_CAP):
        return enumerate_codewords(self, cap)

    def key(self):
        return (self.pivot_cols, self.pivot_vals, self.rows)


class _IntScalars:
    """Z_{p^e} (r = 1): the engine keeps each scalar as its one int."""

    zero = 0

    def __init__(self, ring):
        self.p, self.e, self.pe = ring.p, ring.e, ring.pe

    @staticmethod
    def load(row):
        return [x for (x,) in row]

    @staticmethod
    def store(row):
        return tuple(zip(row))  # the 1-tuples (x,)

    @staticmethod
    def nonzero(row):
        return any(row)

    def valuation(self, x):
        if not x:
            return self.e
        p, v = self.p, 0
        while not x % p:
            x //= p
            v += 1
        return v

    def quotient(self, x, t):
        """x // gamma^t: the exact quotient when valuation(x) >= t, else the
        quotient that leaves x's canonical residue mod gamma^t."""
        return x // self.p**t

    def make_monic(self, piv, col, t):
        """piv scaled by a unit so that piv[col] is exactly gamma^t."""
        u = piv[col] // self.p**t
        if u == 1:
            return piv
        pe = self.pe
        ui = pow(u, -1, pe)
        return [ui * x % pe for x in piv]

    def submul(self, row, w, support):
        """row -= w * piv, for piv given by its support."""
        pe = self.pe
        for k, pk in support:
            row[k] = (row[k] - w * pk) % pe

    def gamma_scale(self, row, k):
        g, pe = self.p**k, self.pe
        return [g * x % pe for x in row]


class _TupleScalars:
    """GR(p^e, r), r > 1: scalars stay coefficient tuples, through the ring."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = ring.zero
        self.valuation = ring.valuation
        self.quotient = ring.div_gamma  # coefficientwise c // p^t, as for ints

    load = staticmethod(list)
    store = staticmethod(tuple)

    def nonzero(self, row):
        zero = self.zero
        return any(x != zero for x in row)

    def make_monic(self, piv, col, t):
        ring = self.ring
        unit = ring.div_gamma(piv[col], t)
        if unit == ring.one:
            return piv
        ui, zero = ring.inverse(unit), self.zero
        return [x if x == zero else ring.mul(ui, x) for x in piv]

    def submul(self, row, w, support):
        mul, sub = self.ring.mul, self.ring.sub
        for k, pk in support:
            row[k] = sub(row[k], mul(w, pk))

    def gamma_scale(self, row, k):
        ring = self.ring
        g, zero = ring.gamma_power(k), self.zero
        return [x if x == zero else ring.mul(g, x) for x in row]


def _scalars(ring):
    return _IntScalars(ring) if ring.r == 1 else _TupleScalars(ring)


def _support(s, entries, start):
    """The (column, entry) pairs of the nonzero entries, the first of them
    in column start."""
    zero = s.zero
    return [(k, x) for k, x in enumerate(entries, start) if x != zero]


def _howell(ring, rows, width, pivot_cols_limit, split=0):
    """Shared reduction engine.

    Scans columns 0..pivot_cols_limit-1 for pivots while carrying rows of
    ``width`` entries, so the same code serves plain reduction, the
    augmented kernel and intersection, and the augmented solver.  Returns
    (rows, pivot_cols, pivot_vals) of the rows whose pivot column is
    >= split, cut to the columns from split on (and the pivot columns
    counted from there), the rows as tuples of ring elements.  Rows with an
    earlier pivot still reduce the others, but are neither canonicalized nor
    returned.  Inside, scalars are in the form ``_scalars(ring)`` works on.
    """
    s = _scalars(ring)
    e, zero, nonzero = ring.e, s.zero, s.nonzero
    valuation, quotient, submul = s.valuation, s.quotient, s.submul
    work = [row for row in map(s.load, rows) if nonzero(row)]
    res_rows, res_cols, res_vals = [], [], []
    for col in range(pivot_cols_limit):
        best, best_v = None, e
        for idx, row in enumerate(work):
            x = row[col]
            if x != zero:
                v = valuation(x)
                if v < best_v:
                    best, best_v = idx, v
                    if v == 0:
                        break
        if best is None:
            continue
        t = best_v
        piv = s.make_monic(work.pop(best), col, t)
        supp = _support(s, piv[col:], col)
        # clear the column in the remaining rows (their valuation is >= t by
        # pivot minimality) and canonicalize it in the finished rows, where
        # the same quotient leaves the canonical residue mod gamma^t; every
        # work row is zero left of col, so a row this step did not touch is
        # still nonzero and a touched one need only be tested right of col
        kept = []
        for row in work:
            x = row[col]
            if x != zero:
                submul(row, quotient(x, t), supp)
                if not nonzero(row[col + 1 :]):
                    continue
            kept.append(row)
        work = kept
        for row in res_rows:
            x = row[col]
            if x != zero:
                submul(row, quotient(x, t), supp)
        if col >= split:
            res_rows.append(piv)
            res_cols.append(col - split)
            res_vals.append(t)
        if t > 0:
            sat = s.gamma_scale(piv, e - t)
            if nonzero(sat):
                work.append(sat)
    return [s.store(row[split:]) for row in res_rows], res_cols, res_vals


def pivot_reduce(M: RingMatrix) -> PivotForm:
    """Canonical pivot form with the same row span as M."""
    return _lower_block(M.ring, M.rows, 0, M.ncols)


def _reduce_against(s, v, rows, cols, vals) -> bool:
    """Reduce v (in the form s works on) in place by the pivot rows (tuples
    of ring elements); False on a pivot it cannot clear."""
    zero = s.zero
    for row, col, t in zip(rows, cols, vals):
        x = v[col]
        if x == zero:
            continue
        if s.valuation(x) < t:
            return False
        s.submul(v, s.quotient(x, t), _support(s, s.load(row[col:]), col))
    return True


def membership(v, P: PivotForm) -> bool:
    """Whether v lies in the span of the pivot form."""
    ring = P.ring
    if len(v) != P.ncols:
        raise ValidationError(f"vector length {len(v)} != {P.ncols}")
    s = _scalars(ring)
    v = s.load(ring.check_row(v))
    return _reduce_against(s, v, P.rows, P.pivot_cols, P.pivot_vals) and not s.nonzero(v)


def _field_width(ring):
    """Bits per packed field: the sum of two reduced coefficients below one
    guard bit."""
    return (2 * ring.pe - 1).bit_length() + 1


def _layout(ring, n, w=0):
    """(W, a 1 in each of the r*n fields) for packed vectors of R^n.  W is
    the ring's own width, or w when that is wider: a field sum s < 2p^e still
    stays below the guard bit, as 2p^e <= 2^(W-1)."""
    w = max(w, _field_width(ring))
    return w, ((1 << (ring.r * n * w)) - 1) // ((1 << w) - 1)


def _packed_blocks(P: PivotForm, cap: int, w: int = 0):
    """Yield the span elements as packed ints, in blocks, in the enumeration
    order: row 0 varies slowest, each coefficient through its transversal.

    Coefficient k of coordinate i sits in the W-bit field k*n + i of one int.
    Row j's multiples c * row_j are packed once; the walk adds one multiple
    per row.  Addition reduces every field mod p^e at once: a field sum s
    lies below the guard bit, and s + 2^(W-1) - p^e reaches the guard bit
    exactly when s >= p^e.  The trailing rows are combined into one table of
    at most _BLOCK sums (always including the last row), and each sum of the
    leading rows' multiples is added to the whole table.
    """
    if P.cardinality() > cap:
        raise CapExceededError(
            f"span of size {P.cardinality()} exceeds the enumeration cap {cap}"
        )
    ring, n = P.ring, P.ncols
    m = ring.pe
    w, unit = _layout(ring, n, w)
    top = unit << (w - 1)
    lift = unit * ((1 << (w - 1)) - m)
    shift = w - 1

    def pack(v):
        return sum(c << ((k * n + i) * w) for i, x in enumerate(v) for k, c in enumerate(x))

    mults = [
        [pack([ring.mul(c, x) for x in row]) for c in ring.transversal(ring.e - t)]
        for row, t in zip(P.rows, P.pivot_vals)
    ]
    lead = max(len(mults) - 1, 0)
    while lead > 0 and prod(map(len, mults[lead - 1 :])) <= _BLOCK:
        lead -= 1
    table = [0]
    for row in mults[lead:]:
        table = [s - (((s + lift) & top) >> shift) * m for a in table for b in row for s in (a + b,)]
    for prefix in itertools.product(*mults[:lead]):
        a = 0
        for b in prefix:
            s = a + b
            a = s - (((s + lift) & top) >> shift) * m
        yield [s - (((s + lift) & top) >> shift) * m for b in table for s in (a + b,)]


def enumerate_codewords(P: PivotForm, cap: int = DEFAULT_ENUM_CAP):
    """Yield every span element exactly once, in a fixed lexicographic order.

    The coefficient of row j runs over the canonical transversal of
    <gamma^(e - t_j)>, giving q^(e - t_j) choices; row 0 varies slowest.
    Each packed word of the walk is decoded into ring tuples as it is yielded.
    """
    n = P.ncols
    w, _ = _layout(P.ring, n)
    field = (1 << w) - 1
    blocks = [[(k * n + i) * w for i in range(n)] for k in range(P.ring.r)]
    for words in _packed_blocks(P, cap):
        for x in words:
            yield tuple(zip(*[[(x >> s) & field for s in block] for block in blocks]))


def _nonzero_flags(P: PivotForm, cap: int, w: int = 0):
    """Yield, block by block in the enumeration order, each span element's
    nonzero flags: the guard bit of coordinate i's field in block 0 (bit
    i*W + W-1, W from ``_layout``) is set when coordinate i is nonzero.

    A reduced field plus 2^(W-1) - 1 reaches its guard bit exactly when it
    is nonzero; for r > 1 the guard bits of every coefficient block are ORed
    onto block 0.  Spans walked at one common w give flags that line up.
    """
    ring, n = P.ring, P.ncols
    w, unit = _layout(ring, n, w)
    fill = unit * ((1 << (w - 1)) - 1)
    top = (unit & ((1 << (n * w)) - 1)) << (w - 1)  # the guard bits of block 0
    for words in _packed_blocks(P, cap, w):
        flags = map(fill.__add__, words)
        for _ in range(1, ring.r):
            flags = [f | (f >> (n * w)) for f in flags]
        yield map(top.__and__, flags)


def support_counts(P: PivotForm, cap: int = DEFAULT_ENUM_CAP) -> Counter:
    """How many span elements have each support, as n-bit masks (bit i set
    when coordinate i is nonzero), counted on the packed walk."""
    n = P.ncols
    w, _ = _layout(P.ring, n)
    # every w-th binary digit of the flags, read from the top, is the mask
    digits = (n - 1) * w + 1
    masks, packed = Counter(), Counter()
    for flags in _nonzero_flags(P, cap):
        packed.update(flags)
        if len(packed) > _FLUSH:
            _flush(packed, masks, w, digits)
    _flush(packed, masks, w, digits)
    return masks


def _flush(packed, masks, w, digits):
    """Move the counts of packed guard-bit keys into masks as n-bit masks."""
    masks.update({int(format(key >> (w - 1), f"0{digits}b")[::w], 2): k for key, k in packed.items()})
    packed.clear()


def _lower_block(ring, rows, split, width) -> PivotForm:
    """Reduce rows over all ``width`` columns and return, as a canonical
    form, the span of the rows whose pivot column is >= split, cut to
    columns split..width-1.

    By the Howell property that span is exactly the part of the row module
    vanishing on the first ``split`` columns, projected onto the rest.
    Those rows already form that span's canonical form (exact pivot powers,
    reduced entries above each pivot), so they are cut, not reduced again.
    """
    red, cols, vals = _howell(ring, rows, width, width, split)
    return PivotForm(ring, width - split, tuple(red), tuple(cols), tuple(vals))


def kernel(M: RingMatrix) -> PivotForm:
    """Pivot form of {x : M x^T = 0}.

    The rows of [M^T | I] span the pairs (x M^T, x); the part with a zero
    left block is {(0, x) : M x^T = 0}, read off one Howell reduction.
    """
    ring, n, m = M.ring, M.ncols, len(M.rows)
    zero, one = ring.zero, ring.one
    aug = [
        tuple(row[k] for row in M.rows) + tuple(one if i == k else zero for i in range(n))
        for k in range(n)
    ]
    return _lower_block(ring, aug, m, m + n)


def intersect(P: PivotForm, Q: PivotForm) -> PivotForm:
    """Pivot form of span(P) meet span(Q), by the Zassenhaus construction.

    The rows [p | p] and [q | 0] span the pairs (p + q, p); the part with a
    zero left block is {(0, x) : x in both spans}, read off one Howell
    reduction.
    """
    if P.ring != Q.ring or P.ncols != Q.ncols:
        raise ValidationError("intersection needs spans in the same module")
    n, zero = P.ncols, P.ring.zero
    rows = [row + row for row in P.rows] + [row + (zero,) * n for row in Q.rows]
    return _lower_block(P.ring, rows, n, 2 * n)


class SpanSolver:
    """Writes vectors as explicit combinations of a fixed list of generators.

    The generator matrix is reduced once with identity bookkeeping columns;
    each ``solve`` is then a single membership-style reduction.
    """

    def __init__(self, M: RingMatrix):
        self.ring = M.ring
        self.ncols = M.ncols
        self.nrows = len(M.rows)
        zero, one = M.ring.zero, M.ring.one
        aug = [
            tuple(row) + tuple(one if i == j else zero for j in range(self.nrows))
            for i, row in enumerate(M.rows)
        ]
        self._rows, self._cols, self._vals = _howell(M.ring, aug, M.ncols + self.nrows, M.ncols)

    def solve(self, target):
        """Coefficients c with sum_i c_i * row_i = target, or None."""
        ring = self.ring
        if len(target) != self.ncols:
            raise ValidationError("target length mismatch")
        s = _scalars(ring)
        v = s.load(ring.check_row(target)) + [s.zero] * self.nrows
        if not _reduce_against(s, v, self._rows, self._cols, self._vals):
            return None
        if s.nonzero(v[: self.ncols]):
            return None
        return tuple(ring.neg(x) for x in s.store(v[self.ncols :]))
