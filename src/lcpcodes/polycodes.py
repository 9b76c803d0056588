"""Cyclic codes over a prime field, as ideals of F_p[x]/(x^n - 1).

When the group is cyclic in index order (``FiniteGroup.cyclic_in_index_order``)
coordinate i of a component row over F_p is the coefficient of x^i, and
F_p[G] is F_p[x]/(x^n - 1).  That ring is a principal ideal ring for every
n: each ideal is <g> for one monic g dividing x^n - 1.  The ideal of
a_1, ..., a_t is <gcd(x^n - 1, a_1, ..., a_t)>, <g> + <h> is <gcd(g, h)>,
<g>^perp is generated by the reciprocal of (x^n - 1)/g, and the coordinate
map x^i -> x^-i carries <g> onto the ideal of g's reciprocal (MacWilliams
and Sloane, *The Theory of Error-Correcting Codes*, ch. 7).  So the ideals
are listed as the <g> for the ``divisors`` of x^n - 1, found by Berlekamp's
factorization.

``generator_form`` gives <g> the canonical pivot form the Howell engine
gives it, so a code has the same form whichever path built it, and the
form carries g (``PivotForm.poly``) for the next operation on it.
Polynomials are coefficient sequences, low degree first, as in ``rings``.
"""

from __future__ import annotations

from .linalg import PivotForm
from .rings import ChainRing, _fp_divmod, _fp_gcd, _fp_mul

__all__ = ["closure", "divisors", "generator_form", "dual_poly", "reciprocal"]


def _x_n_minus_1(n: int, p: int) -> list[int]:
    return [p - 1] + [0] * (n - 1) + [1]


def closure(ring: ChainRing, n: int, rows) -> PivotForm:
    """The form of the ideal of the rows (ints mod p, one per coordinate):
    <g> for g = gcd(x^n - 1, a_1, ..., a_t)."""
    p = ring.p
    g = _x_n_minus_1(n, p)
    for a in rows:
        g = _fp_gcd(g, a, p)
    return generator_form(ring, n, g)


def divisors(n: int, p: int) -> list[list[int]]:
    """Every monic divisor of x^n - 1 over F_p.

    With n = p^t m and p not dividing m, x^n - 1 = (x^m - 1)^(p^t), and
    x^m - 1 is squarefree.  The indicator h of a p-cyclotomic coset mod m
    (the sum of x^i over one orbit of i -> p i) has h^p = h mod x^m - 1, and
    these h span Berlekamp's algebra: for each h in turn every factor f is
    split into its gcds with h - c, c in F_p, which leaves the irreducible
    factors f_i of x^m - 1.  The loop over c stops once what is left of f
    is linear, so it costs at most p gcds per factor and coset, where a
    walk of F_p[C_n] visits p^n elements.  The divisors are the products of
    the f_i^(a_i), 0 <= a_i <= p^t.
    """
    q, m = 1, n
    while m % p == 0:
        q, m = q * p, m // p
    factors = [_x_n_minus_1(m, p)]
    covered = [0] * m
    for s in range(m):
        if covered[s]:
            continue
        h, i = [0] * m, s
        while not h[i]:
            h[i] = covered[i] = 1
            i = i * p % m
        factors = [piece for f in factors for piece in _split(f, h, p)]
    out = [[1]]
    for f in factors:
        powers = [[1]]
        for _ in range(q):
            powers.append(_fp_mul(powers[-1], f, p))
        out = [_fp_mul(g, power, p) for g in out for power in powers]
    return out


def _split(f, h, p: int) -> list[list[int]]:
    """The pieces gcd(f, h - c) != 1, c in F_p, for f squarefree and h^p = h
    mod f: a factorization of f.  Each piece is divided out as it is found,
    and a cofactor of degree below 2 is the last piece."""
    pieces = []
    for c in range(p):
        if len(f) < 3:
            break
        g = _fp_gcd(f, [h[0] - c] + h[1:], p)
        if len(g) > 1:
            pieces.append(g)
            f = _fp_divmod(f, g, p)[0]
    return pieces + [f] * (len(f) > 1)


def generator_form(ring: ChainRing, n: int, g) -> PivotForm:
    """The canonical form of <g>, for g monic dividing x^n - 1, carrying g.

    x does not divide x^n - 1, so g_0 != 0 and the code words x^i g,
    i < k = n - deg g, are triangular on columns 0..k-1: those are the
    pivots.  Row i is the word that reads x^i there, x^i - x^k (x^(i+n-k)
    mod g), since x^k x^(i+n-k) = x^(i+n) = x^i mod g.  Its tail is
    -(x^(i+n-k) mod g), which for i = 0 is g - x^(n-k) and is then x times
    the tail before, reduced by g: O(deg g) per row.
    """
    p, d = ring.p, len(g) - 1
    k = n - d
    eye = (0,) * (k - 1) + (1,) + (0,) * (k - 1)
    tail = list(g[:d])
    rows = []
    for i in range(k):
        rows.append(eye[k - 1 - i : 2 * k - 1 - i] + tuple(tail))
        if d:
            top = tail[-1]
            tail = [(a - top * b) % p for a, b in zip([0] + tail[:-1], g)]
    return PivotForm(ring, n, tuple(rows), tuple(range(k)), (0,) * k, tuple(g))


def dual_poly(g, n: int, p: int) -> list[int]:
    """The generator of <g>^perp: the monic reciprocal of (x^n - 1)/g."""
    return reciprocal(_fp_divmod(_x_n_minus_1(n, p), g, p)[0], p)


def reciprocal(g, p: int) -> list[int]:
    """x^deg(g) g(1/x), made monic; g_0 != 0 for every g dividing x^n - 1."""
    inv = pow(g[0], -1, p)
    return [c * inv % p for c in reversed(g)]
