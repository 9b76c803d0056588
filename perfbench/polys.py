"""Polynomial arithmetic over Z and F_p for generating and checking cyclic codes.

Polynomials are lists of integer coefficients, lowest degree first, with no
trailing zeros (the zero polynomial is ``[]``).  Everything here is an
independent oracle: none of it calls into ``lcpcodes``.
"""

from __future__ import annotations

import random


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def deg(a) -> int:
    return len(trim(a)) - 1


def reduce_mod(a, m: int):
    return trim([c % m for c in a])


def add(a, b, m: int | None = None):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return reduce_mod(out, m) if m else trim(out)


def sub(a, b, m: int | None = None):
    return add(a, [-c for c in b], m)


def mul(a, b, m: int | None = None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return reduce_mod(out, m) if m else trim(out)


def divmod_p(a, b, p: int):
    """Quotient and remainder over F_p (b nonzero)."""
    a, b = reduce_mod(a, p), reduce_mod(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv % p
        q[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] = (r[k + i] - c * y) % p
    return trim(q), trim(r)


def divmod_monic(a, b, m: int | None = None):
    """Quotient and remainder by a monic b, over Z or Z_m."""
    b = trim(b)
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1]
        q[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    if m:
        return reduce_mod(q, m), reduce_mod(r, m)
    return trim(q), trim(r)


def monic(a, p: int):
    a = reduce_mod(a, p)
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def gcd_p(a, b, p: int):
    """Monic gcd over F_p."""
    a, b = reduce_mod(a, p), reduce_mod(b, p)
    while b:
        a, b = b, divmod_p(a, b, p)[1]
    return monic(a, p)


def lcm_p(a, b, p: int):
    g = gcd_p(a, b, p)
    return monic(divmod_p(mul(a, b, p), g, p)[0], p)


def xn_minus_1(n: int):
    return [-1] + [0] * (n - 1) + [1]


def reciprocal(a):
    """x^deg(a) * a(1/x)."""
    return trim(list(reversed(trim(a))))


def pow_mod_p(base, e: int, f, p: int):
    result, base = [1], divmod_p(base, f, p)[1]
    while e:
        if e & 1:
            result = divmod_p(mul(result, base, p), f, p)[1]
        base = divmod_p(mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def cyclotomic_cosets(q: int, m: int):
    """The q-cyclotomic cosets modulo m, as sorted tuples."""
    seen, out = set(), []
    for s in range(m):
        if s in seen:
            continue
        coset, x = [], s
        while x not in coset:
            coset.append(x)
            x = x * q % m
        seen.update(coset)
        out.append(tuple(sorted(coset)))
    return out


def factor_xn_minus_1(n: int, p: int):
    """Monic irreducible factors of x^n - 1 over F_p, for gcd(n, p) = 1.

    Distinct-degree then equal-degree (Cantor-Zassenhaus) factorization with
    a fixed-seed splitter, returned sorted so the result is canonical.
    """
    if n % p == 0:
        raise ValueError("x^n - 1 is not squarefree when p divides n")
    rng = random.Random(0)
    f = reduce_mod(xn_minus_1(n), p)
    out = []
    d = 1
    xpow = [0, 1]
    while deg(f) >= 2 * d:
        xpow = pow_mod_p(xpow, p, f, p)
        g = gcd_p(f, sub(xpow, [0, 1], p), p)
        if deg(g) > 0:
            out.extend(_split_equal_degree(g, d, p, rng))
            f = divmod_p(f, g, p)[0]
            xpow = divmod_p(xpow, f, p)[1]
        d += 1
    if deg(f) > 0:
        out.append(monic(f, p))
    return sorted(out, key=lambda g: (deg(g), g))


def _split_equal_degree(f, d: int, p: int, rng):
    if deg(f) == d:
        return [monic(f, p)]
    while True:
        a = trim([rng.randrange(p) for _ in range(deg(f))])
        if deg(a) < 1:
            continue
        if p == 2:
            t, acc = a, a
            for _ in range(d - 1):
                t = divmod_p(mul(t, t, p), f, p)[1]
                acc = add(acc, t, p)
            g = gcd_p(f, acc, p)
        else:
            h = pow_mod_p(a, (p**d - 1) // 2, f, p)
            g = gcd_p(f, sub(h, [1], p), p)
        if 0 < deg(g) < deg(f):
            return _split_equal_degree(g, d, p, rng) + _split_equal_degree(
                divmod_p(f, g, p)[0], d, p, rng
            )


def cyclotomic(n: int):
    """The n-th cyclotomic polynomial over Z."""
    f = xn_minus_1(n)
    for d in range(1, n):
        if n % d == 0:
            f = divmod_monic(f, cyclotomic(d))[0]
    return f
