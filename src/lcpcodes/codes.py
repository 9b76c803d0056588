"""Group codes: two-sided ideals of R[G] viewed as codes in R^n.

All product-ring computation is componentwise-first: a code is stored as one
pivot form per CRT component, operations act per component, and the Chinese
product reassembles results (``code_crt_combine`` builds it in a given target
algebra).  Two engines make the forms.  A component that is a prime field
F_p, over a group cyclic in index order, is F_p[x]/(x^n - 1): its closure,
sum, dual and involute come from generator polynomials (``polycodes``, the
gcd path), and its ideals are the <g> for the divisors g of x^n - 1.
Every other component, every intersection, two-sidedness check and split,
and any form that carries no generator polynomial (``PivotForm.poly``),
goes to the Howell engine of ``linalg``.  Both give the same canonical
forms.  ``enumerate_ideals`` lists a component's ideals by one of three
routes: the divisors on the gcd path; on any other separable component
(p not dividing |G|) one closure per combination of its block idempotents,
split from the orbit sums of the classes K under K -> K^q, as (sum K)^q =
sum K^q there (``_block_idempotents``); on a modular one a walk of its
elements.  Duality uses the standard coordinatewise bilinear form on the
coefficient vectors.
``lcp_check`` decides a pair from code sizes alone and lists no codeword;
``equivalence.check_dual_equivalence`` adds the distances of an LCP pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from math import prod

from .algebra import GroupAlgebra, component_rows, from_component_rows
from .errors import CapExceededError, NotLcpError, ValidationError
from .groups import _permuter
from .linalg import (
    DEFAULT_ENUM_CAP,
    PivotForm,
    RingMatrix,
    SpanSolver,
    _check_enum_cap,
    _field_width,
    _nonzero_flags,
    _scalars,
    enumerate_codewords,
    intersect,
    kernel,
    membership,
    pivot_reduce,
)
from .polycodes import closure, divisors, dual_poly, generator_form, reciprocal
from .rings import ChainRing, ProductRing, _fp_gcd, _power

__all__ = [
    "GroupCode",
    "LcpReport",
    "DsmSplitter",
    "code_sum",
    "code_intersect",
    "code_dual",
    "code_involute",
    "code_crt_combine",
    "lcp_check",
    "min_distance",
    "weight_enumerator",
    "enumerate_ideals",
    "DEFAULT_IDEAL_CAP",
]

DEFAULT_IDEAL_CAP = 1 << 12


@dataclass(repr=False)
class GroupCode:
    """A two-sided ideal of R[G], held as per-component pivot forms: the
    algebra and the forms are the whole value (equality and hash)."""

    algebra: GroupAlgebra
    components: tuple  # one pivot form per CRT component
    _weights: tuple | None = field(default=None, init=False, compare=False)
    _dual: "GroupCode | None" = field(default=None, init=False, compare=False)
    _involute: "GroupCode | None" = field(default=None, init=False, compare=False)

    def __hash__(self):
        return hash((self.algebra, self.components))

    @property
    def generators(self) -> tuple:
        """The component pivot rows embedded with zeros in the other
        components, read off the forms on each call."""
        zeros = [(P.ring.zero,) * P.ncols for P in self.components]
        return tuple(
            from_component_rows(zeros[:j] + [row] + zeros[j + 1 :])
            for j, form in enumerate(self.components)
            for row in form.rows
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generators(cls, algebra: GroupAlgebra, generators, *, _canonical=False) -> "GroupCode":
        """Smallest two-sided ideal containing the generators.

        Per component the rows g * a * h for all group elements g, h span the
        ideal.  Since g * a * h = (g h) * (h^-1 a h), that span is the left
        ideal of the distinct conjugates h^-1 a h; over an abelian group a is
        its only conjugate.  The conjugates join one at a time: the form so
        far spans a left ideal, so a conjugate that is a member brings its
        left translates with it and is skipped, and any other is reduced
        with its n left translates and the form's rows (the walk stops once
        the form is all of R_j[G]).  Howell forms are canonical, so the
        result does not depend on that order, and a generic element of a
        large group needs a few reductions of about rank + n rows instead of
        one of up to n^2.  The group keeps both sets of index maps, so they
        are built once per group, not once per call.  Each generator's
        component row is put in the engine's form once, and the maps move
        those rows.  A component that takes the gcd path (``_gcd_path``) is
        closed as <gcd(x^n - 1, a_1, ..., a_t)> instead, with the same form.
        The generators are checked against the algebra, unless the caller
        made them canonical (``_canonical``: parsed literals, elements of
        ``algebra.elements()``).
        """
        group = algebra.group
        n = group.n
        conj_maps, shifts = group.conjugations, group.left_translations
        split = [component_rows(a if _canonical else algebra.check(a)) for a in generators]
        forms = []
        for j, cr in enumerate(algebra.ring.components):
            load = _scalars(cr).load
            if _gcd_path(algebra, cr):
                forms.append(closure(cr, n, [load(a_rows[j]) for a_rows in split]))
                continue
            conjugates = {}
            for a_rows in split:
                a_j = tuple(load(a_rows[j]))
                for conj in conj_maps:
                    conjugates[conj(a_j)] = None
            rows, form = {}, None
            for c in conjugates:
                if form is not None:
                    if len(form.pivot_vals) == n and not any(form.pivot_vals):
                        break  # all of R_j[G]
                    if membership(c, form, _engine_rows=True):
                        continue
                    rows = dict.fromkeys(form.engine_rows)
                for shift in shifts:
                    rows[shift(c)] = None
                form = pivot_reduce(RingMatrix(cr, tuple(rows), n), _engine_rows=True)
            if form is None:  # no generators: the zero ideal
                form = PivotForm(cr, n, (), (), ())
            forms.append(form)
        return cls(algebra, tuple(forms))

    @classmethod
    def from_components(cls, algebra: GroupAlgebra, forms) -> "GroupCode":
        """Chinese product of per-component spans (assumed to be ideals)."""
        forms = tuple(forms)
        ring = algebra.ring
        n = algebra.group.n
        if len(forms) != ring.s:
            raise ValidationError(f"need {ring.s} component forms, got {len(forms)}")
        for form, cr in zip(forms, ring.components):
            if form.ring != cr or form.ncols != n:
                raise ValidationError("component form does not match the algebra")
        return cls(algebra, forms)

    # -- basic queries ---------------------------------------------------------

    def cardinality(self) -> int:
        return prod(P.cardinality() for P in self.components)

    @property
    def is_zero(self) -> bool:
        return self.cardinality() == 1

    def contains(self, a) -> bool:
        rows = component_rows(self.algebra.check(a))
        return all(membership(row, P) for row, P in zip(rows, self.components))

    def codewords(self, cap: int = DEFAULT_ENUM_CAP):
        """All codewords as algebra elements: the product of the component
        spans, each walked by ``enumerate_codewords`` on every call."""
        _check_enum_cap("code", self.cardinality(), cap)
        for combo in itertools.product(*(enumerate_codewords(P, cap) for P in self.components)):
            yield from_component_rows(combo)

    @property
    def key(self):
        """Canonical identity of the code: all component pivot forms."""
        return tuple(P.key() for P in self.components)

    def __repr__(self):
        return f"GroupCode(|C| = {self.cardinality()})"

    def is_two_sided(self) -> bool:
        """Closure of every component span under left/right translation by the
        group's generators, which for a finite group means by all of G."""
        group = self.algebra.group
        lefts, cols, inv = group.left_translations, group.columns, group.inv
        moves = [(lefts[g], _permuter(cols[inv[g]])) for g in group.generators]
        for P in self.components:
            for row in P.engine_rows:
                for to_left, to_right in moves:
                    moved = dict.fromkeys((to_left(row), to_right(row)))  # right if it differs
                    if not all(membership(v, P, _engine_rows=True) for v in moved):
                        return False
        return True

    def crt_project(self) -> tuple["GroupCode", ...]:
        """The component codes, each over its own chain-ring algebra, built
        afresh on each call."""
        return tuple(GroupCode.from_components(A, (P,)) for A, P in zip(self.algebra.components, self.components))


def _same_algebra(C: GroupCode, D: GroupCode):
    if C.algebra != D.algebra:
        raise ValidationError("codes live in different group algebras")


def _gcd_path(algebra: GroupAlgebra, ring) -> bool:
    """Whether the algebra's component over ``ring`` takes the gcd path
    (``polycodes``): the ring is a prime field and the group is cyclic in
    index order, so R_j[G] is F_p[x]/(x^n - 1).  Every other component is
    reduced by the Howell engine."""
    return ring.e == ring.r == 1 and algebra.group.cyclic_in_index_order


def _polys(algebra: GroupAlgebra, *forms) -> list | None:
    """The generator polynomials of forms of one component on the gcd path,
    or None: off that path, or when some form carries none (``PivotForm.poly``)
    and so goes to the Howell engine."""
    if not _gcd_path(algebra, forms[0].ring):
        return None
    gs = [P.poly for P in forms]
    return None if None in gs else gs


def code_sum(C: GroupCode, D: GroupCode) -> GroupCode:
    """Componentwise P + Q: <gcd(g_P, g_Q)> on the gcd path, else one
    reduction of both forms' rows."""
    _same_algebra(C, D)
    n = C.algebra.group.n
    forms = []
    for P, Q in zip(C.components, D.components):
        gs = _polys(C.algebra, P, Q)
        if gs:
            forms.append(generator_form(P.ring, n, _fp_gcd(*gs, P.ring.p)))
        else:
            forms.append(pivot_reduce(RingMatrix(P.ring, P.engine_rows + Q.engine_rows, n), _engine_rows=True))
    return GroupCode.from_components(C.algebra, forms)


def code_dual(C: GroupCode) -> GroupCode:
    """Annihilator under the coordinatewise bilinear form, per component:
    <g>^perp is the ideal of the monic reciprocal of (x^n - 1)/g on the gcd
    path, else a kernel.

    Computed once and cached on C; the result keeps no link back to C."""
    if C._dual is None:
        n = C.algebra.group.n
        forms = []
        for P in C.components:
            gs = _polys(C.algebra, P)
            if gs:
                forms.append(generator_form(P.ring, n, dual_poly(gs[0], n, P.ring.p)))
            else:
                forms.append(kernel(RingMatrix(P.ring, P.engine_rows, n), _engine_rows=True))
        out = GroupCode.from_components(C.algebra, forms)
        if not out.is_two_sided():
            raise AssertionError("dual of an ideal must remain an ideal")
        C._dual = out
    return C._dual


def code_involute(C: GroupCode) -> GroupCode:
    """The image of C under the coordinate map g -> g^-1.  That map reverses
    products in R[G], so it carries two-sided ideals to two-sided ideals; on
    the gcd path it carries <g> onto the ideal of g's monic reciprocal.

    Computed once and cached on C; the result keeps no link back to C."""
    if C._involute is None:
        get = _permuter(C.algebra.group.inv)
        forms = []
        for P in C.components:
            gs = _polys(C.algebra, P)
            if gs:
                forms.append(generator_form(P.ring, P.ncols, reciprocal(gs[0], P.ring.p)))
            else:
                M = RingMatrix(P.ring, tuple(map(get, P.engine_rows)), P.ncols)
                forms.append(pivot_reduce(M, _engine_rows=True))
        C._involute = GroupCode.from_components(C.algebra, forms)
    return C._involute


def code_intersect(C: GroupCode, D: GroupCode) -> GroupCode:
    """Componentwise C_j meet D_j, by one Zassenhaus reduction per component."""
    _same_algebra(C, D)
    forms = []
    for P, Q in zip(C.components, D.components):
        inter = intersect(P, Q)
        for row in inter.engine_rows:
            if not all(membership(row, X, _engine_rows=True) for X in (P, Q)):
                raise AssertionError("intersection row outside one of the codes")
        forms.append(inter)
    return GroupCode.from_components(C.algebra, forms)


def code_crt_combine(parts, algebra: GroupAlgebra) -> GroupCode:
    """Chinese product of chain-ring codes: part j is a code of the target
    algebra's component j (``GroupAlgebra.components``)."""
    parts = tuple(parts)
    if tuple(part.algebra for part in parts) != algebra.components:
        raise ValidationError("component codes do not match the target algebra's components")
    return GroupCode.from_components(algebra, [part.components[0] for part in parts])


# ---------------------------------------------------------------------------
# LCP and distances


@dataclass(frozen=True)
class LcpReport:
    is_lcp: bool
    intersection_size: int
    sum_is_full: bool
    component_verdicts: tuple


def lcp_check(C: GroupCode, D: GroupCode) -> LcpReport:
    """Decide whether (C, D) is a linear complementary pair; no codeword is
    listed or walked (``check_dual_equivalence`` gives the distances).

    Runs both the direct test (trivial intersection and full sum) and the
    componentwise test (``_component_verdict``), which must agree.  Both
    read the sum alone."""
    _same_algebra(C, D)
    total = code_sum(C, D)
    parts = zip(C.components, D.components, total.components)
    isizes, verdicts = zip(*(_component_verdict(P, Q, S.cardinality()) for P, Q, S in parts))
    isize = prod(isizes)
    sum_full = total.cardinality() == C.algebra.size
    direct = isize == 1 and sum_full
    if direct != all(verdicts):
        raise AssertionError("direct and componentwise LCP verdicts disagree")
    return LcpReport(
        is_lcp=direct,
        intersection_size=isize,
        sum_is_full=sum_full,
        component_verdicts=verdicts,
    )


def _component_verdict(P, Q, sum_size: int) -> tuple[int, bool]:
    """(|P meet Q|, whether P and Q are complementary), given sum_size =
    |P + Q|.  For finite modules |P meet Q| * |P + Q| = |P| * |Q| (second
    isomorphism theorem); the pair is complementary when the meet is 0 and
    the sum is all of R_j^n."""
    size, rest = divmod(P.cardinality() * Q.cardinality(), sum_size)
    if rest:
        raise AssertionError(f"|P| |Q| is not a multiple of |P + Q| = {sum_size}")
    return size, size == 1 and sum_size == P.ring.size**P.ncols


def weight_enumerator(C: GroupCode, max_enum: int = DEFAULT_ENUM_CAP) -> tuple:
    """Codeword counts by Hamming weight 0..n, from the nonzero flags of
    the packed walk (one guard bit per coordinate).  Over a chain ring a
    word's weight is the popcount of its flags.  Over a product ring every
    component is walked at one common field width, so the flags line up; a
    codeword is nonzero where any of its components is, and flags a
    (x words) and flags b (y words) give a | b (x * y words).  The counts
    are cached on C."""
    # checked also when cached, so a cap means the same on every call
    _check_enum_cap("code", C.cardinality(), max_enum)
    if C._weights is None:
        n = C.algebra.group.n
        if len(C.components) == 1:
            weights = Counter()
            for flags in _nonzero_flags(C.components[0], max_enum):
                weights.update(map(int.bit_count, flags))
            C._weights = tuple(weights[i] for i in range(n + 1))
        else:
            w = max(_field_width(P.ring) for P in C.components)
            keys = Counter({0: 1})
            for P in C.components:
                part = Counter()
                for flags in _nonzero_flags(P, max_enum, w):
                    part.update(flags)
                joined = Counter()
                for a, x in keys.items():
                    for b, y in part.items():
                        joined[a | b] += x * y
                keys = joined
            C._weights = _tally(keys, n)
    return C._weights


def _tally(keys: Counter, n: int) -> tuple:
    """Word counts by weight 0..n from counts of nonzero-flag keys; a key's
    popcount is its weight at any field width."""
    weights = [0] * (n + 1)
    for key, k in keys.items():
        weights[key.bit_count()] += k
    return tuple(weights)


def min_distance(C: GroupCode, max_enum: int = DEFAULT_ENUM_CAP) -> int:
    """Minimum Hamming weight of a nonzero codeword; n + 1 for the zero code."""
    n = C.algebra.group.n
    wd = weight_enumerator(C, max_enum)
    for w in range(1, n + 1):
        if wd[w]:
            return w
    return n + 1


# ---------------------------------------------------------------------------
# direct sum masking


class DsmSplitter:
    """Decomposes R[G] along a fixed complementary pair C + D.

    Per component one ``SpanSolver`` reduces the Zassenhaus matrix of C and
    D: their stacked rows, with C's rows as the images of C's rows and zero
    images for D's.  Each ``split`` is then one solve per component, whose
    image of z is its C part.  That reduction also gives |P + Q|, which
    decides the pair per component as in ``lcp_check``.
    """

    def __init__(self, C: GroupCode, D: GroupCode):
        _same_algebra(C, D)
        self.C, self.D = C, D
        n = C.algebra.group.n
        self._solvers = []
        for P, Q in zip(C.components, D.components):
            ring, rows = P.ring, P.engine_rows
            zeros = ((_scalars(ring).zero,) * n,) * len(Q.engine_rows)
            M, images = RingMatrix(ring, rows + Q.engine_rows, n), RingMatrix(ring, rows + zeros, n)
            solver = SpanSolver(M, images, _engine_rows=True)
            if not _component_verdict(P, Q, solver.span_size())[1]:
                raise NotLcpError("direct sum masking needs an LCP pair")
            self._solvers.append(solver)

    def split(self, z):
        """The unique (c, d) with z = c + d, c in C, d in D."""
        A = self.C.algebra
        z = A.check(z)
        c_parts = [solver.solve(zj) for solver, zj in zip(self._solvers, component_rows(z))]
        if None in c_parts:
            raise AssertionError("LCP pair failed to span the algebra")
        c = from_component_rows(c_parts)
        d = A.sub(z, c)
        if not (self.C.contains(c) and self.D.contains(d)):
            raise AssertionError("split parts fall outside the pair's codes")
        return c, d


# ---------------------------------------------------------------------------
# exhaustive ideal enumeration (desk scale)


def enumerate_ideals(algebra: GroupAlgebra, max_size: int = DEFAULT_IDEAL_CAP):
    """All two-sided ideals of R[G], sorted by cardinality then canonical key.

    Every ideal is the Chinese product of one ideal of each chain-ring
    algebra R_j[G], so the components are enumerated on their own, as pivot
    forms, and combined into one ``GroupCode`` per choice of a form in each.
    A component lists its ideals by one of three routes (``_chain_ideals``).
    On the gcd path (``_gcd_path``) they are the <g> for the monic divisors
    g of x^n - 1 (``polycodes.divisors``), with no walk and no closure.  Any
    other separable component (``_separable``: p does not divide |G|) is the
    product of its b blocks R_j[G] e_i, and lists its (e + 1)^b ideals as
    the closures of sum_i gamma^(a_i) e_i over its primitive central
    idempotents e_i, those of the residue field's algebra lifted as
    x -> x^(p^(e-1)) (``_block_idempotents``), with no walk and no sum.
    Every modular component visits its |R_j|^n elements, so the walks cost
    the sum of |R_j|^n over those components, not the product.  Within such
    an R_j[G] every ideal is a sum of principal ideals, and <a> = <u g a h>
    for every unit u of R_j and all g, h in G, so one closure is taken per
    orbit of that action.  The orbit of a is marked as the unit multiples
    of the left translates of its conjugates, since g a h = (g h) (h^-1 a h),
    through the group's kept index maps.  The principal ideals are then
    closed under sums by a worklist: each ideal is summed only with the
    ideals found before it, so every pair is summed once, and only when
    neither ideal lies in the other; otherwise the sum is the larger one,
    which is already found.  Containment is read off generators: the
    smaller ideal lies in the larger when its generators are members (a
    principal ideal is generated by its orbit representative, a sum by the
    union of its parts' generators).  Skipping those sums leaves the ideals found, and the order
    in which they are found, unchanged.  The cap on |R[G]| is checked
    before any route runs, so it bounds all three.
    """
    if algebra.size > max_size:
        raise CapExceededError(
            f"|R[G]| = {algebra.size} exceeds the ideal-enumeration cap {max_size} (--max-ideals)"
        )
    parts = [_chain_ideals(A) for A in algebra.components]
    ideals = [GroupCode.from_components(algebra, combo) for combo in itertools.product(*parts)]
    return sorted(ideals, key=lambda c: (c.cardinality(), c.key))


def _chain_ideals(algebra: GroupAlgebra) -> list:
    """Every two-sided ideal of a chain-ring algebra as its pivot form, in
    discovery order: on the gcd path (``_gcd_path``) the <g> in the order
    of ``divisors``; on a separable component (``_separable``) the ideals
    R[G] * sum_i gamma^(a_i) e_i over the block idempotents e_i
    (``_block_idempotents``), one closure per exponent vector a in
    {0..e}^b; on a modular one the walk of ``enumerate_ideals``."""
    cr = algebra.ring.components[0]
    group = algebra.group
    if _gcd_path(algebra, cr):
        return [generator_form(cr, group.n, g) for g in divisors(group.n, cr.p)]
    if _separable(algebra, cr):
        gens = [algebra.zero()]
        for x in _block_idempotents(algebra):
            layer = [algebra.scale((cr.gamma_power(a),), x) for a in range(cr.e + 1)]
            gens = [algebra.add(z, y) for z in gens for y in layer]
        return [GroupCode.from_generators(algebra, (z,), _canonical=True).components[0] for z in gens]
    conjs, shifts = group.conjugations, group.left_translations
    scalings = [
        {a: (cr.mul(u, a[0]),) for a in algebra.ring.elements()}.__getitem__
        for u in cr.elements()
        if cr.is_unit(u)
    ]
    load = _scalars(cr).load
    visited = set()
    found = {}  # components -> (ideal, |ideal|, its generators as engine rows)
    for a in algebra.elements():
        if a in visited:
            continue
        visited.update(
            tuple(map(scale, shift(c)))
            for c in [conj(a) for conj in conjs]
            for shift in shifts
            for scale in scalings
        )
        code = GroupCode.from_generators(algebra, (a,), _canonical=True)
        gens = (tuple(load(component_rows(a)[0])),)
        found.setdefault(code.components, (code, code.cardinality(), gens))
    ideals = list(found.values())
    for i, (X, cx, gx) in enumerate(ideals):  # sums found here join the walk
        for Y, cy, gy in ideals[:i]:
            if cx != cy and (_within(gx, Y) if cx < cy else _within(gy, X)):
                continue
            S = code_sum(X, Y)
            if S.components not in found:
                found[S.components] = S, S.cardinality(), tuple(dict.fromkeys(gx + gy))
                ideals.append(found[S.components])
    return [X.components[0] for X, _, _ in ideals]


def _within(rows, X: GroupCode) -> bool:
    """Whether the ideal generated by the engine rows lies in the chain-ring ideal X."""
    P = X.components[0]
    return all(membership(v, P, _engine_rows=True) for v in rows)


def _separable(algebra: GroupAlgebra, ring) -> bool:
    """Whether the algebra's component over ``ring`` is separable, p not
    dividing |G|: then R_j[G] is the direct product of its blocks
    R_j[G] e_i, each a matrix ring over a Galois ring, whose two-sided
    ideals are the gamma^a R_j[G] e_i (Maschke's theorem over the residue
    field, and idempotent lifting; Lam, A First Course in Noncommutative
    Rings, sections 21-22)."""
    return algebra.group.n % ring.p != 0


def _block_idempotents(algebra: GroupAlgebra) -> list:
    """The primitive central idempotents e_i of a separable chain-ring
    algebra GR(p^e, r)[G], as algebra elements; a modular one is refused.

    Over the residue field F_q, z -> z^q is F_q-linear on the center of
    A = F_q[G] and fixes exactly the F_q-span of the e_i.  For each class K,
    (sum K)^q = sum K^q, K^q = {g^q : g in K} (a class of |K| elements, as
    gcd(q, |G|) = 1): (x + y)^p = x^p + y^p mod the commutators [A, A], and
    Z(A) meets [A, A] in 0, as a block M_d(E) of A has d dividing |G| and so
    no traceless scalar but 0.  So the sums of the orbits of the classes
    under K -> K^q are a basis of that span, and their number b is the
    number of blocks (Witt-Berman).  The split starts from {1}, the
    identity's orbit: for each other orbit sum v and each idempotent f found
    so far, f - (v f - c f)^(q-1) is the part of f on which v takes the
    value c in F_q; it stops once b idempotents are found.  Each residue x,
    its digits read in GR(p^e, r), is central, and x = u + p y there with
    u the central idempotent it lifts to and y central; so its lift is
    x^(p^(e-1)) = u, as the k-th binomial term, k >= 1, of
    (u + p y)^(p^(e-1)) has p-adic valuation at least
    e - 1 - v_p(k) + k >= e.  The lifts are checked central,
    orthogonal and summing to 1, which makes each idempotent
    (x = x * sum_y y = x^2)."""
    cr = algebra.ring.components[0]
    group = algebra.group
    n, q, t, classes = group.n, cr.q, group.table, group.classes
    if not _separable(algebra, cr):  # K -> K^q would not permute the classes
        raise ValidationError(f"block idempotents need p = {cr.p} not dividing |G| = {n}")
    where = {g: k for k, cls in enumerate(classes) for g in cls}
    frobenius = []  # class k -> the class of g^q, g in class k; g^n = 1
    for cls in classes:
        x = 0
        for _ in range(q % n):
            x = t[x][cls[0]]
        frobenius.append(where[x])
    orbits = []
    for k in range(len(classes)):
        if all(k not in orbit for orbit in orbits):
            orbit = [k]
            while frobenius[orbit[-1]] != k:
                orbit.append(frobenius[orbit[-1]])
            orbits.append(orbit)
    field = cr if cr.e == 1 else ChainRing(cr.p, 1, cr.r, [c % cr.p for c in cr.modulus])
    F = GroupAlgebra(ProductRing([field]), group)
    zero, one, nil = F.zero(), F.ring.one, F.ring.zero
    found = [F.one()]
    for orbit in orbits[1:]:
        if len(found) == len(orbits):
            break
        v = tuple(one if where[g] in orbit else nil for g in range(n))
        split = []
        for f in found:
            vf, rest = F.mul(v, f), f
            for c in field.elements()[:-1]:  # what is left at the last c is its part
                if rest == zero:
                    break
                part = F.sub(f, _power(F.mul, F.sub(vf, F.scale((c,), f)), q - 1))
                if part != zero:
                    split.append(part)
                    rest = F.sub(rest, part)
            if rest != zero:
                split.append(rest)
        found = split
    if len(found) != len(orbits):
        raise AssertionError(f"split gave {len(found)} block idempotents, Witt-Berman counts {len(orbits)}")
    blocks = []
    for x in found:  # the residues' digits, read in GR(p^e, r)
        x = _power(algebra.mul, x, cr.p ** (cr.e - 1))
        if any(len({x[g] for g in cls}) > 1 for cls in classes):
            raise AssertionError("lifted block idempotent is not central")
        blocks.append(x)
    if any(algebra.mul(x, y) != algebra.zero() for i, x in enumerate(blocks) for y in blocks[:i]):
        raise AssertionError("block idempotents are not orthogonal")
    if reduce(algebra.add, blocks) != algebra.one():
        raise AssertionError("block idempotents do not sum to 1")
    return blocks
