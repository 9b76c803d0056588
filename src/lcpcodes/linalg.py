"""Exact linear algebra for submodules of R^n over one finite chain ring.

One reduction engine, ``_howell``, serves span, membership, kernel,
intersection and solve here.  It is not the only way ``codes`` makes a
form: over a prime-field component of a group cyclic in index order,
closures, sums, duals and involutes are read off generator polynomials
(``polycodes``), which give the forms this engine gives.  The engine
computes a Howell form (Howell 1986, "Spans in
the module (Z_m)^s"; Storjohann and Mulders, ESA 1998) whose pivot entries
are exact powers gamma^t: entries below a pivot are zero, entries above are
reduced to canonical representatives modulo <gamma^t>, and for every pivot
with t > 0 the saturation row gamma^(e-t) * row is folded back in.  The form
is canonical, so equal spans have equal forms.  The saturation rows give the
Howell property: for every k, the rows whose pivot column is >= k span all
of the module that vanishes on the first k columns.  Kernels,
intersections and ``SpanSolver``'s image solve are each read off one
reduction of [rows | images] (``_augment``): [M^T | I] for the kernel of
M, the Zassenhaus matrix [P | P], [Q | 0] for P meet Q, and the same
matrix, reduced over its left block, for the C part of a direct sum C + D.
Over fields the saturation step is a no-op and the form is the ordinary
reduced row echelon form.

Rows stay in the engine's form, picked by ``_scalars`` from the ring's
shape, from the reduction that makes them to the one that reads them.  Over
Z_{p^e} (r = 1) each scalar is its one int (``_IntScalars``).  Over
GR(p^e, r) with r > 1 and at most _TABLE_SIZE = 16 elements (F4, F8, F16,
F9 and GR(4,2)) each is its q-adic digit index, q = p^r
(``ChainRing.index``: digit d holds the base-p digits d of the
coefficients), on which valuation, quotient by gamma^t and scaling by
gamma^k are the same int operations in base q; products, differences and
unit inverses are read from the ring's tables, built when the engine first
meets the ring (``_TableScalars``).  Larger rings keep coefficient tuples
and the ring's own arithmetic (``_TupleScalars``).  Ring-element rows are
built only when a report, a key or the codeword walk reads a form's
``rows``.  The public entry points take ring-element rows and check them;
the private ``_engine_rows`` keyword passes rows taken from pivot forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import prod
from operator import xor

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
    "DEFAULT_ENUM_CAP",
]

DEFAULT_ENUM_CAP = 1 << 20
# Largest table of trailing-row sums in the packed walk.
_BLOCK = 1 << 10
# Largest ring with r > 1 whose Howell engine runs on table-indexed ints,
# with product and difference tables of |R|^2 slots each: GR(4,2), the
# largest such ring the table engine was measured on against tuples.
_TABLE_SIZE = 16


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
    """Canonical generator rows: pivot j is exactly gamma^{pivot_vals[j]}.
    Kept as ``engine_rows``, which equality and hashing read (the kit's map
    to them is one to one); ``rows`` holds them as ring elements.  A form
    built from a generator polynomial g (``polycodes.generator_form``)
    carries g as ``poly``, which equality and hashing do not read; every
    other form has None there."""

    ring: ChainRing
    ncols: int
    engine_rows: tuple
    pivot_cols: tuple
    pivot_vals: tuple
    poly: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def rows(self) -> tuple:
        return tuple(map(_scalars(self.ring).store, self.engine_rows))

    def cardinality(self) -> int:
        return _span_size(self.ring, self.pivot_vals)

    def dual_is_smaller(self) -> bool:
        """Whether |P|^2 > |R|^n, so P^perp is the smaller (|P| |P^perp| = |R|^n)."""
        return self.cardinality() ** 2 > self.ring.size**self.ncols

    def key(self):  # on ring elements: table indices sort otherwise
        return (self.pivot_cols, self.pivot_vals, self.rows)

    @cached_property
    def _engine(self):
        """The scalar kit and the pivots in the form it works on, built on
        the first membership test and kept for the next ones."""
        s = _scalars(self.ring)
        return s, _engine_pivots(s, self.engine_rows, self.pivot_cols, self.pivot_vals)


def _span_size(ring, vals) -> int:
    """Size of the span of a Howell form with pivots gamma^t, t in vals."""
    return ring.q ** sum(ring.e - t for t in vals)


class _IntScalars:
    """Z_{p^e} (r = 1): the engine keeps each scalar as its one int.

    Over GR(p^e, r) the same ints serve as the q-adic digit indices of
    ``ChainRing.index`` (q = p^r): valuation, quotient and ``gamma_scale``
    read base q and mod q^e = |R|, which are p and p^e when r = 1.
    """

    zero = 0

    def __init__(self, ring):
        self.q, self.e, self.size = ring.q, ring.e, ring.size

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
        q, v = self.q, 0
        while not x % q:
            x //= q
            v += 1
        return v

    def quotient(self, x, t):
        """x // gamma^t: the exact quotient when valuation(x) >= t, else the
        quotient that leaves x's canonical residue mod gamma^t."""
        return x // self.q**t

    def make_monic(self, piv, col, t):
        """piv scaled by a unit so that piv[col] is exactly gamma^t."""
        u = piv[col] // self.q**t
        if u == 1:
            return piv
        size = self.size
        ui = pow(u, -1, size)
        return [ui * x % size for x in piv]

    def submul(self, row, w, support):
        """row -= w * piv, for piv given by its support."""
        size = self.size
        for k, pk in support:
            row[k] = (row[k] - w * pk) % size

    def gamma_scale(self, row, k):
        g, size = self.q**k, self.size
        return [g * x % size for x in row]


class _TableScalars(_IntScalars):
    """GR(p^e, r), r > 1, |R| <= _TABLE_SIZE: scalars are the ints of
    ``ChainRing.index``, and the unit inverse and the row updates read the
    ring's ``IndexTables``."""

    def __init__(self, ring):
        super().__init__(ring)
        self.tables = ring.index_tables()

    def load(self, row):
        return list(map(self.tables.code.__getitem__, row))

    def store(self, row):
        return tuple(map(self.tables.elements.__getitem__, row))

    def make_monic(self, piv, col, t):
        u = piv[col] // self.q**t
        if u == 1:
            return piv
        tab = self.tables
        mul, base = tab.mul, tab.inv[u] * self.size
        return [mul[base + x] for x in piv]

    def submul(self, row, w, support):
        tab, size = self.tables, self.size
        mul, sub, base = tab.mul, tab.sub, w * size
        for k, pk in support:
            row[k] = sub[row[k] * size + mul[base + pk]]


class _TupleScalars:
    """GR(p^e, r), r > 1, |R| > _TABLE_SIZE: scalars stay coefficient
    tuples, through the ring."""

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
    """The scalar kit for the ring, from its shape alone: plain ints for
    r = 1, table-indexed ints for r > 1 up to _TABLE_SIZE elements (tables
    of |R|^2 slots, built on the ring's first use), coefficient tuples
    beyond."""
    if ring.r == 1:
        return _IntScalars(ring)
    if ring.size <= _TABLE_SIZE:
        return _TableScalars(ring)
    return _TupleScalars(ring)


def _support(s, entries, start):
    """The (column, entry) pairs of the nonzero entries, the first of them
    in column start."""
    zero = s.zero
    return [(k, x) for k, x in enumerate(entries, start) if x != zero]


def _howell(ring, rows, pivot_cols_limit, split=0):
    """Shared reduction engine.

    Scans columns 0..pivot_cols_limit-1 for pivots while carrying the rows'
    further entries along, so the same code serves plain reduction, the
    augmented kernel and intersection, and the augmented solver.  Returns
    (rows, pivot_cols, pivot_vals) of the rows whose pivot column is
    >= split, cut to the columns from split on (and the pivot columns
    counted from there).  Rows with an earlier pivot still reduce the
    others, but are neither canonicalized nor returned.  Rows go in, and
    come out as tuples, in the form ``_scalars(ring)`` works on.
    """
    s = _scalars(ring)
    e, zero, nonzero = ring.e, s.zero, s.nonzero
    valuation, quotient, submul = s.valuation, s.quotient, s.submul
    work = [list(row) for row in rows if nonzero(row)]
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
    return [tuple(row[split:]) for row in res_rows], res_cols, res_vals


def _loaded(M: RingMatrix, engine_rows: bool):
    """M's rows in the engine's form: as they are when ``engine_rows`` says
    they already are, else loaded by the ring's kit."""
    return M.rows if engine_rows else list(map(_scalars(M.ring).load, M.rows))


def pivot_reduce(M: RingMatrix, *, _engine_rows=False) -> PivotForm:
    """Canonical pivot form with the same row span as M."""
    return _lower_block(M.ring, _loaded(M, _engine_rows), 0, M.ncols)


def _engine_pivots(s, rows, cols, vals):
    """(column, valuation, support) of each pivot row, in the form s works
    on."""
    return tuple((col, t, _support(s, row[col:], col)) for row, col, t in zip(rows, cols, vals))


def _reduce_against(s, v, pivots) -> bool:
    """Reduce v (in the form s works on) in place by the pivots from
    ``_engine_pivots``; False on a pivot it cannot clear."""
    zero = s.zero
    for col, t, supp in pivots:
        x = v[col]
        if x == zero:
            continue
        if s.valuation(x) < t:
            return False
        s.submul(v, s.quotient(x, t), supp)
    return True


def membership(v, P: PivotForm, *, _engine_rows=False) -> bool:
    """Whether v lies in the span of the pivot form.  With ``_engine_rows``
    v is already in the engine's form, made from pivot rows, and is not
    checked."""
    if len(v) != P.ncols:
        raise ValidationError(f"vector length {len(v)} != {P.ncols}")
    s, pivots = P._engine
    v = list(v) if _engine_rows else s.load(P.ring.check_row(v))
    return _reduce_against(s, v, pivots) and not s.nonzero(v)


def _field_width(ring):
    """Bits per packed field: one bit when p^e = 2, where fields are added
    with XOR, the sum mod 2, which carries into no other field; else the
    sum of two reduced coefficients below one guard bit."""
    if ring.pe == 2:
        return 1
    return (2 * ring.pe - 1).bit_length() + 1


def _layout(ring, n, w=0):
    """(W, a 1 in each of the r*n fields) for packed vectors of R^n.  W is
    the ring's own width, or w when that is wider: a field sum s < 2p^e still
    stays below the guard bit, as 2p^e <= 2^(W-1), and an XOR sum (p^e = 2)
    stays in its field at any width."""
    w = max(w, _field_width(ring))
    return w, ((1 << (ring.r * n * w)) - 1) // ((1 << w) - 1)


def _pack(v, n, w):
    """Coefficient k of coordinate i in the w-bit field k*n + i of one int."""
    return sum(c << ((k * n + i) * w) for i, x in enumerate(v) for k, c in enumerate(x))


def _check_enum_cap(what: str, size: int, cap: int) -> None:
    """The one enumeration-cap check: a listing of ``size`` words past
    ``cap`` raises, naming both and the flag that raises the cap."""
    if size > cap:
        raise CapExceededError(f"{what} of size {size} exceeds the enumeration cap {cap} (--max-enum)")


def _packed_blocks(P: PivotForm, cap: int, w: int = 0):
    """Yield the span elements as packed ints, in blocks, in the enumeration
    order: row 0 varies slowest, each coefficient through its transversal.

    Coefficient k of coordinate i sits in the W-bit field k*n + i of one int.
    A coefficient c of the transversal of <gamma^(e-t)> is sum_k c_k x^k with
    each c_k in [0, p^(e-t)) and c_0 varying slowest, so c * row is the sum
    of the integer multiples c_k * (x^k * row).  The walk therefore has one
    walk row x^k * row for each k < r of each pivot row, whose multiples
    0, v, 2v, ..., (p^(e-t) - 1) v are packed sums of copies of v: no ring
    multiplication for r = 1, and n per power of x for r > 1.  Addition
    reduces every field mod p^e at once: a field sum s lies below the guard
    bit, and s + 2^(W-1) - p^e reaches the guard bit exactly when s >= p^e.
    When p^e = 2 addition is XOR, the sum mod 2 at any width, and each walk
    row has the multiples 0 and v.  The trailing walk rows are combined into
    one table of at most _BLOCK sums (always including the last walk row),
    and each sum of the leading walk rows' multiples is added to the whole
    table.
    """
    _check_enum_cap("span", P.cardinality(), cap)
    ring, n = P.ring, P.ncols
    m = ring.pe
    w, unit = _layout(ring, n, w)
    if m == 2:
        add = xor

        def add_all(a, table):
            return [a ^ b for b in table]

    else:
        top, lift, shift = unit << (w - 1), unit * ((1 << (w - 1)) - m), w - 1

        def add(a, b):
            s = a + b
            return s - (((s + lift) & top) >> shift) * m

        def add_all(a, table):
            return [s - (((s + lift) & top) >> shift) * m for b in table for s in (a + b,)]

    powers = [tuple(int(i == k) for i in range(ring.r)) for k in range(1, ring.r)]  # x, ..., x^(r-1)
    mults = []
    for row, t in zip(P.rows, P.pivot_vals):
        copies = ring.p ** (ring.e - t) - 1
        for xrow in [row] + [[ring.mul(xk, x) for x in row] for xk in powers]:
            steps = itertools.repeat(_pack(xrow, n, w), copies)
            mults.append(list(itertools.accumulate(steps, add, initial=0)))
    lead = max(len(mults) - 1, 0)
    while lead > 0 and prod(map(len, mults[lead - 1 :])) <= _BLOCK:
        lead -= 1
    table = [0]
    for row in reversed(mults[lead:]):  # the later walk row varies faster
        table = [s for a in row for s in add_all(a, table)]
    for prefix in itertools.product(*mults[:lead]):
        yield add_all(reduce(add, prefix, 0), table)


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
    onto block 0.  At W = 1 (p^e = 2) a field is its own guard bit: an
    r = 1 word is its own flags, and for r > 1 the blocks are ORed onto
    block 0 and masked.  Spans walked at one common w give flags that line
    up.
    """
    ring, n = P.ring, P.ncols
    w, unit = _layout(ring, n, w)
    fill = unit * ((1 << (w - 1)) - 1)
    top = (unit & ((1 << (n * w)) - 1)) << (w - 1)  # the guard bits of block 0
    block = n * w
    for flags in _packed_blocks(P, cap, w):
        if w > 1:
            flags = map(fill.__add__, flags)
        for _ in range(1, ring.r):
            flags = [f | (f >> block) for f in flags]
        yield flags if w == 1 and ring.r == 1 else map(top.__and__, flags)


def _lower_block(ring, rows, split, width) -> PivotForm:
    """Reduce rows over all ``width`` columns and return, as a canonical
    form, the span of the rows whose pivot column is >= split, cut to
    columns split..width-1.

    By the Howell property that span is exactly the part of the row module
    vanishing on the first ``split`` columns, projected onto the rest.
    Those rows already form that span's canonical form (exact pivot powers,
    reduced entries above each pivot), so they are cut, not reduced again.
    The rows are in the engine's form.
    """
    red, cols, vals = _howell(ring, rows, width, split)
    return PivotForm(ring, width - split, tuple(red), tuple(cols), tuple(vals))


def _augment(rows, images):
    """The rows [row | image] of an augmented reduction, one per row."""
    return [row + image for row, image in zip(rows, images, strict=True)]


def kernel(M: RingMatrix, *, _engine_rows=False) -> PivotForm:
    """Pivot form of {x : M x^T = 0}.

    The rows of [M^T | I] span the pairs (x M^T, x); the part with a zero
    left block is {(0, x) : M x^T = 0}, read off one Howell reduction.
    """
    ring, n, m = M.ring, M.ncols, len(M.rows)
    zero, one = _scalars(ring).load((ring.zero, ring.one))
    rows = _loaded(M, _engine_rows)
    columns = list(zip(*rows)) or [()] * n  # n empty columns when m = 0
    z = (zero,) * n
    identity = [z[:k] + (one,) + z[k + 1:] for k in range(n)]
    return _lower_block(ring, _augment(columns, identity), m, m + n)


def intersect(P: PivotForm, Q: PivotForm) -> PivotForm:
    """Pivot form of span(P) meet span(Q), by the Zassenhaus construction.

    The rows [p | p] and [q | 0] span the pairs (p + q, p); the part with a
    zero left block is {(0, x) : x in both spans}, read off one Howell
    reduction.
    """
    if P.ring != Q.ring or P.ncols != Q.ncols:
        raise ValidationError("intersection needs spans in the same module")
    n, zero = P.ncols, _scalars(P.ring).zero
    images = P.engine_rows + ((zero,) * n,) * len(Q.engine_rows)
    rows = _augment(P.engine_rows + Q.engine_rows, images)
    return _lower_block(P.ring, rows, n, 2 * n)


class SpanSolver:
    """``solve(v)`` is sum_i c_i * images_i for a c with sum_i c_i M_i = v.

    [M | images] is reduced once over M's columns; each ``solve`` reduces
    [v | 0] by those pivots, which leaves [0 | -sum_i c_i * images_i].  The
    image is well defined when the images vanish on every relation among
    M's rows (sum_i a_i M_i = 0 implies sum_i a_i images_i = 0); identity
    images give the coefficients.  For C's and D's rows with images C's
    rows and zero rows (the Zassenhaus matrix of ``intersect``) and an LCP
    pair, a relation sum a_i p_i + sum b_j q_j = 0 puts sum a_i p_i in
    C meet D = 0, so ``solve`` gives the C part of the direct sum.
    ``_engine_rows``: both matrices' rows are already in the engine's form.
    """

    def __init__(self, M: RingMatrix, images: RingMatrix, *, _engine_rows=False):
        if images.ring != M.ring or len(images.rows) != len(M.rows):
            raise ValidationError("images need one row per row of M, over M's ring")
        self.ring = M.ring
        self.ncols = M.ncols
        self._width = images.ncols
        aug = _augment(_loaded(M, _engine_rows), _loaded(images, _engine_rows))
        rows, cols, vals = _howell(M.ring, aug, M.ncols)
        self._s = _scalars(M.ring)
        self._pivots = _engine_pivots(self._s, rows, cols, vals)
        self._vals = tuple(vals)

    def span_size(self) -> int:
        """Size of the span of M's rows.  The reduction picks its pivots on
        M's columns exactly as ``pivot_reduce`` of M would, so those pivots
        give the size of the span."""
        return _span_size(self.ring, self._vals)

    def solve(self, target):
        """The image of target (see the class docstring), or None when
        target is outside the span of M's rows."""
        ring, s = self.ring, self._s
        if len(target) != self.ncols:
            raise ValidationError("target length mismatch")
        v = s.load(ring.check_row(target)) + [s.zero] * self._width
        if not _reduce_against(s, v, self._pivots):
            return None
        if s.nonzero(v[: self.ncols]):
            return None
        return tuple(ring.neg(x) for x in s.store(v[self.ncols :]))
