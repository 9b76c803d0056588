"""Group codes: two-sided ideals of R[G] viewed as codes in R^n.

All product-ring computation is componentwise-first: a code is stored as one
pivot form per CRT component, operations act per component, and the Chinese
product reassembles results.  Duality uses the standard coordinatewise
bilinear form on the coefficient vectors.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod
from operator import itemgetter

from .algebra import GroupAlgebra
from .errors import CapExceededError, NotLcpError, ValidationError
from .linalg import (
    DEFAULT_ENUM_CAP,
    RingMatrix,
    SpanSolver,
    _field_width,
    _nonzero_flags,
    intersect,
    kernel,
    membership,
    pivot_reduce,
)
from .rings import ProductRing

__all__ = [
    "GroupCode",
    "LcpReport",
    "DsmSplitter",
    "code_from_generators",
    "code_sum",
    "code_intersect",
    "code_dual",
    "code_involute",
    "code_crt_combine",
    "lcp_check",
    "min_distance",
    "weight_enumerator",
    "security_parameter",
    "dsm_split",
    "enumerate_ideals",
    "DEFAULT_IDEAL_CAP",
]

DEFAULT_IDEAL_CAP = 1 << 12


def _permuter(perm):
    """c -> the tuple of c[perm[m]]; itemgetter returns a bare item for a
    single index, so a length-1 map is the identity ``tuple``."""
    return itemgetter(*perm) if len(perm) > 1 else tuple


class GroupCode:
    """A two-sided ideal of R[G], held as per-component pivot forms."""

    def __init__(self, algebra: GroupAlgebra, generators, components):
        self.algebra = algebra
        self._generators = None if generators is None else tuple(generators)
        self.components = tuple(components)
        self._key = None
        self._weights = None
        self._dual = None

    @property
    def generators(self) -> tuple:
        """The defining generators; for a code built from component forms,
        the component pivot rows embedded with zeros in the other components
        (built on first use)."""
        if self._generators is None:
            zeros = tuple(cr.zero for cr in self.algebra.ring.components)
            gens = []
            for j, form in enumerate(self.components):
                for row in form.rows:
                    gens.append(tuple(zeros[:j] + (x,) + zeros[j + 1 :] for x in row))
            self._generators = tuple(gens)
        return self._generators

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generators(cls, algebra: GroupAlgebra, generators) -> "GroupCode":
        """Smallest two-sided ideal containing the generators.

        Per component the rows g * a * h for all group elements g, h span an
        ideal closed under multiplication from both sides, so a single
        reduction suffices.  Since g * a * h = (g h) * (h^-1 a h), those rows
        are the left translates of the distinct conjugates h^-1 a h; over an
        abelian group a is its only conjugate.
        """
        gens = tuple(algebra.check(a) for a in generators)
        group = algebra.group
        n, t, inv = group.n, group.table, group.inv
        # m -> h m h^-1 reads h^-1 a h off a; each distinct map once
        hs = (0,) if group.is_abelian() else range(n)
        maps = {tuple(t[h][t[m][inv[h]]] for m in range(n)): None for h in hs}
        conj_maps = list(map(_permuter, maps))
        shifts = [_permuter(t[inv[g]]) for g in range(n)]
        forms = []
        for j, cr in enumerate(algebra.ring.components):
            conjugates = {}
            for a in gens:
                aj = tuple(a[i][j] for i in range(n))
                for conj in conj_maps:
                    conjugates[conj(aj)] = None
            rows = {}
            for c in conjugates:
                for shift in shifts:
                    rows[shift(c)] = None
            forms.append(pivot_reduce(RingMatrix(cr, tuple(rows), n)))
        return cls(algebra, gens, forms)

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
        return cls(algebra, None, forms)

    # -- basic queries ---------------------------------------------------------

    def cardinality(self) -> int:
        return prod(P.cardinality() for P in self.components)

    @property
    def is_zero(self) -> bool:
        return self.cardinality() == 1

    @property
    def is_full(self) -> bool:
        return self.cardinality() == self.algebra.size

    def contains(self, a) -> bool:
        a = self.algebra.check(a)
        n = self.algebra.group.n
        for j, P in enumerate(self.components):
            if not membership(tuple(a[i][j] for i in range(n)), P):
                return False
        return True

    def codewords(self, cap: int = DEFAULT_ENUM_CAP):
        """All codewords as algebra elements (product of component streams)."""
        if self.cardinality() > cap:
            raise CapExceededError(
                f"code of size {self.cardinality()} exceeds the enumeration cap {cap}"
            )
        n = self.algebra.group.n
        streams = [list(P.codewords(cap)) for P in self.components]
        for combo in itertools.product(*streams):
            yield tuple(tuple(part[i] for part in combo) for i in range(n))

    @property
    def key(self):
        """Canonical identity of the code: all component pivot forms."""
        if self._key is None:
            self._key = tuple(P.key() for P in self.components)
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, GroupCode)
            and self.algebra == other.algebra
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.algebra, self.key))

    def __repr__(self):
        return f"GroupCode(|C| = {self.cardinality()})"

    def is_two_sided(self) -> bool:
        """Closure of every component span under left/right translation by the
        group's generators, which for a finite group means by all of G."""
        group = self.algebra.group
        t, cols, inv = group.table, group.columns, group.inv
        moves = [(_permuter(t[inv[g]]), _permuter(cols[inv[g]])) for g in group.generators]
        for P in self.components:
            for row in P.rows:
                for to_left, to_right in moves:
                    left, right = to_left(row), to_right(row)
                    if not membership(left, P) or (right != left and not membership(right, P)):
                        return False
        return True

    def crt_project(self) -> tuple["GroupCode", ...]:
        """The component codes, each over its own chain-ring algebra."""
        comps = self.algebra.components
        return tuple(
            GroupCode.from_components(comps[j], (self.components[j],))
            for j in range(len(self.components))
        )


def code_from_generators(algebra: GroupAlgebra, generators) -> GroupCode:
    return GroupCode.from_generators(algebra, generators)


def _same_algebra(C: GroupCode, D: GroupCode):
    if C.algebra != D.algebra:
        raise ValidationError("codes live in different group algebras")


def code_sum(C: GroupCode, D: GroupCode) -> GroupCode:
    _same_algebra(C, D)
    n = C.algebra.group.n
    forms = [
        pivot_reduce(RingMatrix(P.ring, P.rows + Q.rows, n))
        for P, Q in zip(C.components, D.components)
    ]
    return GroupCode.from_components(C.algebra, forms)


def code_dual(C: GroupCode) -> GroupCode:
    """Annihilator under the coordinatewise bilinear form, per component.

    Computed once and cached on C.  Over a finite Frobenius ring (chain
    rings and their products) (C^perp)^perp = C, so C is recorded as the
    dual of the result."""
    if C._dual is None:
        n = C.algebra.group.n
        forms = [kernel(RingMatrix(P.ring, P.rows, n)) for P in C.components]
        out = GroupCode.from_components(C.algebra, forms)
        if not out.is_two_sided():
            raise AssertionError("dual of an ideal must remain an ideal")
        out._dual, C._dual = C, out
    return C._dual


def code_involute(C: GroupCode) -> GroupCode:
    """The image of C under the coordinate map g -> g^-1.  That map reverses
    products in R[G], so it carries two-sided ideals to two-sided ideals."""
    inv = C.algebra.group.inv
    forms = [
        pivot_reduce(RingMatrix(P.ring, tuple(tuple(row[i] for i in inv) for row in P.rows), P.ncols))
        for P in C.components
    ]
    return GroupCode.from_components(C.algebra, forms)


def code_intersect(C: GroupCode, D: GroupCode) -> GroupCode:
    """Componentwise C_j meet D_j, by one Zassenhaus reduction per component."""
    _same_algebra(C, D)
    forms = []
    for P, Q in zip(C.components, D.components):
        inter = intersect(P, Q)
        for row in inter.rows:
            if not (membership(row, P) and membership(row, Q)):
                raise AssertionError("intersection row outside one of the codes")
        forms.append(inter)
    return GroupCode.from_components(C.algebra, forms)


def code_crt_combine(parts, algebra: GroupAlgebra | None = None) -> GroupCode:
    """Chinese product of chain-ring codes over a common group."""
    parts = tuple(parts)
    if not parts:
        raise ValidationError("need at least one component code")
    group = parts[0].algebra.group
    comps = []
    for part in parts:
        if part.algebra.group != group:
            raise ValidationError("component codes use different groups")
        if part.algebra.ring.s != 1:
            raise ValidationError("component codes must be chain-ring codes")
        comps.append(part.algebra.ring.components[0])
    if algebra is None:
        algebra = GroupAlgebra(ProductRing(comps), group)
    else:
        if tuple(algebra.ring.components) != tuple(comps) or algebra.group != group:
            raise ValidationError("target algebra does not match the component codes")
    return GroupCode.from_components(algebra, [p.components[0] for p in parts])


# ---------------------------------------------------------------------------
# LCP, distances, security parameter


@dataclass(frozen=True)
class LcpReport:
    is_lcp: bool
    intersection_size: int
    sum_is_full: bool
    component_verdicts: tuple
    security_parameter: int | None


def lcp_check(
    C: GroupCode,
    D: GroupCode,
    max_enum: int = DEFAULT_ENUM_CAP,
    fill_security: bool = True,
) -> LcpReport:
    """Decide whether (C, D) is a linear complementary pair.

    Runs both the direct test (trivial intersection and full sum) and the
    componentwise test, which must agree; when the pair is LCP the security
    parameter min{d(C), d(D^perp)} is attached.  Both read the sum alone:
    for finite modules |P meet Q| * |P + Q| = |P| * |Q| (second isomorphism
    theorem), so each component's intersection size is |P| |Q| / |P + Q|.
    """
    _same_algebra(C, D)
    total = code_sum(C, D)
    isizes = [
        _meet_size(P, Q, S.cardinality())
        for P, Q, S in zip(C.components, D.components, total.components)
    ]
    isize = prod(isizes)
    sum_full = total.cardinality() == C.algebra.size
    n = C.algebra.group.n
    verdicts = tuple(
        i == 1 and P.cardinality() * Q.cardinality() == cr.size**n
        for i, P, Q, cr in zip(isizes, C.components, D.components, C.algebra.ring.components)
    )
    direct = isize == 1 and sum_full
    if direct != all(verdicts):
        raise AssertionError("direct and componentwise LCP verdicts disagree")
    sec = None
    if direct and fill_security:
        sec = security_parameter(C, D, max_enum=max_enum, _assume_lcp=True)
    return LcpReport(
        is_lcp=direct,
        intersection_size=isize,
        sum_is_full=sum_full,
        component_verdicts=verdicts,
        security_parameter=sec,
    )


def _meet_size(P, Q, sum_size: int) -> int:
    """|P meet Q| = |P| |Q| / |P + Q|, given sum_size = |P + Q|."""
    size, rest = divmod(P.cardinality() * Q.cardinality(), sum_size)
    if rest:
        raise AssertionError(f"|P| |Q| is not a multiple of |P + Q| = {sum_size}")
    return size


def _weight_distribution(C: GroupCode, max_enum: int):
    """Codeword counts by weight, from the nonzero flags of the packed walk
    (one guard bit per coordinate).  Over a chain ring a word's weight is
    the popcount of its flags.  Over a product ring every component is
    walked at one common field width, so the flags line up; a codeword is
    nonzero where any of its components is, and flags a (x words) and
    flags b (y words) give a | b (x * y words)."""
    card = C.cardinality()
    if card > max_enum:  # also when cached, so a cap means the same on every call
        raise CapExceededError(
            f"code of size {card} exceeds the enumeration cap {max_enum}"
        )
    if C._weights is None:
        weights = Counter()
        if len(C.components) == 1:
            for flags in _nonzero_flags(C.components[0], max_enum):
                weights.update(map(int.bit_count, flags))
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
            for key, k in keys.items():
                weights[key.bit_count()] += k
        C._weights = tuple(weights[i] for i in range(C.algebra.group.n + 1))
    return C._weights


def min_distance(C: GroupCode, max_enum: int = DEFAULT_ENUM_CAP) -> int:
    """Minimum Hamming weight of a nonzero codeword; n + 1 for the zero code."""
    n = C.algebra.group.n
    wd = _weight_distribution(C, max_enum)
    for w in range(1, n + 1):
        if wd[w]:
            return w
    return n + 1


def weight_enumerator(C: GroupCode, max_enum: int = DEFAULT_ENUM_CAP) -> tuple:
    """Codeword counts by Hamming weight 0..n."""
    return _weight_distribution(C, max_enum)


def security_parameter(
    C: GroupCode,
    D: GroupCode,
    max_enum: int = DEFAULT_ENUM_CAP,
    _assume_lcp: bool = False,
) -> int:
    """min{d(C), d(D^perp)} for an LCP pair; the two are checked to be equal.
    A caller that has already checked the pair passes ``_assume_lcp=True``."""
    if not _assume_lcp:
        rep = lcp_check(C, D, fill_security=False)
        if not rep.is_lcp:
            raise NotLcpError("security parameter is only defined for LCP pairs")
    dc = min_distance(C, max_enum)
    dd = min_distance(code_dual(D), max_enum)
    if dc != dd:
        raise AssertionError(
            f"LCP pair with d(C) = {dc} but d(D^perp) = {dd}; these must be equal"
        )
    return min(dc, dd)


# ---------------------------------------------------------------------------
# direct sum masking


class DsmSplitter:
    """Decomposes R[G] along a fixed complementary pair C + D.

    The stacked generator systems are pre-reduced once per component, so each
    ``split`` is a single linear solve.  That reduction also gives |P + Q|,
    which decides the pair as in ``lcp_check``: it is LCP when every
    component has |P| |Q| = |P + Q| = |R_j|^n.
    """

    def __init__(self, C: GroupCode, D: GroupCode, check: bool = True):
        _same_algebra(C, D)
        self.C, self.D = C, D
        n = C.algebra.group.n
        self._solvers = []
        self._c_row_counts = []
        for P, Q in zip(C.components, D.components):
            solver = SpanSolver(RingMatrix(P.ring, P.rows + Q.rows, n))
            size = solver.span_size()
            if check and not (_meet_size(P, Q, size) == 1 and size == P.ring.size**n):
                raise NotLcpError("direct sum masking needs an LCP pair")
            self._solvers.append(solver)
            self._c_row_counts.append(len(P.rows))

    def split(self, z):
        """The unique (c, d) with z = c + d, c in C, d in D."""
        A = self.C.algebra
        z = A.check(z)
        n = A.group.n
        c_parts = []
        for j, (solver, nc) in enumerate(zip(self._solvers, self._c_row_counts)):
            cr = A.ring.components[j]
            zj = tuple(z[i][j] for i in range(n))
            coeffs = solver.solve(zj)
            if coeffs is None:
                raise AssertionError("LCP pair failed to span the algebra")
            cj = [cr.zero] * n
            rows = self.C.components[j].rows
            for coef, row in zip(coeffs[:nc], rows):
                if coef != cr.zero:
                    for i in range(n):
                        cj[i] = cr.add(cj[i], cr.mul(coef, row[i]))
            c_parts.append(cj)
        c = tuple(tuple(c_parts[j][i] for j in range(A.ring.s)) for i in range(n))
        d = A.sub(z, c)
        if not (self.C.contains(c) and self.D.contains(d)):
            raise AssertionError("split parts fall outside the pair's codes")
        return c, d


def dsm_split(z, C: GroupCode, D: GroupCode):
    return DsmSplitter(C, D).split(z)


# ---------------------------------------------------------------------------
# exhaustive ideal enumeration (desk scale)


def enumerate_ideals(algebra: GroupAlgebra, max_size: int = DEFAULT_IDEAL_CAP):
    """All two-sided ideals of R[G], sorted by cardinality then canonical key.

    Every ideal is the Chinese product of one ideal of each chain-ring
    algebra R_j[G], so the components are enumerated on their own and
    combined, visiting sum_j |R_j|^n elements instead of prod_j.  Within one
    R_j[G] every ideal is a sum of principal ideals, and <a> = <u g a h> for
    every unit u of R_j and all g, h in G (h = 1 suffices when G is abelian),
    so one closure is taken per orbit of that action.  The principal ideals
    are then closed under sums by a worklist: each ideal is summed only with
    the ideals found before it, so every pair is summed once.
    """
    if algebra.size > max_size:
        raise CapExceededError(
            f"|R[G]| = {algebra.size} exceeds the ideal-enumeration cap {max_size}"
        )
    parts = [_chain_ideals(A) for A in algebra.components]
    ideals = [
        GroupCode.from_components(algebra, [X.components[0] for X in combo])
        for combo in itertools.product(*parts)
    ]
    return sorted(ideals, key=lambda c: (c.cardinality(), c.key))


def _chain_ideals(algebra: GroupAlgebra) -> list:
    """Every two-sided ideal of a chain-ring algebra, in discovery order."""
    cr = algebra.ring.components[0]
    group = algebra.group
    n, t, inv = group.n, group.table, group.inv
    rights = (0,) if group.is_abelian() else range(n)
    shifts = {
        tuple(t[t[inv[g]][m]][inv[h]] for m in range(n)) for g in range(n) for h in rights
    }
    scalings = [
        {a: (cr.mul(u, a[0]),) for a in algebra.ring.elements()}
        for u in cr.elements()
        if cr.is_unit(u)
    ]
    visited = set()
    found = {}
    for a in algebra.elements():
        if a in visited:
            continue
        visited.update(
            tuple(scale[a[k]] for k in shift) for shift in shifts for scale in scalings
        )
        code = GroupCode.from_generators(algebra, (a,))
        found.setdefault(code.key, code)
    ideals = list(found.values())
    for i, X in enumerate(ideals):  # sums found here join the walk
        for Y in ideals[:i]:
            S = code_sum(X, Y)
            if S.key not in found:
                found[S.key] = S
                ideals.append(S)
    return ideals
