"""Exact arithmetic in finite chain rings and finite principal ideal rings.

Chain rings are realized as Galois rings GR(p^e, r): quotients
Z[x] / (p^e, f(x)) with f monic of degree r and irreducible modulo p.  This
covers both Z_{p^e} (r = 1) and the fields F_{p^r} (e = 1).  Elements are
coefficient tuples (c0, ..., c_{r-1}), low degree first, with 0 <= ci < p^e.
The maximal ideal is generated by gamma = p and gamma^e = 0.

A finite principal ideal ring is an ordered product of chain rings; its
elements are tuples holding one chain-ring element per component.  When every
component is Z_{p^e} for pairwise distinct primes, the product is Z_m for
m = prod p^e, and integers can be moved in and out through the residue maps.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import partial
from math import gcd, prod

from .errors import CapExceededError, NotInvertibleError, ValidationError

__all__ = ["ChainRing", "ProductRing", "default_modulus", "is_prime", "factorize"]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all of _MR_BASES, 399165290221 *
# 798330580441 (Sorenson and Webster, Math. Comp. 86, 2017); every odd
# composite below it fails the test for one of the bases.
_MR_LIMIT = 318665857834031151167461
# Steps of the Pollard-Brent map allowed for one split: about sqrt(p) are
# needed to split off a prime p, so a second-largest prime factor up to
# about 2^40 is found.
_FACTOR_STEPS = 1 << 21


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n below 3.1 * 10^23.

    A larger n that passes raises ValidationError rather than get a
    probable answer; one that fails is composite.
    """
    prime = _strong_probable_prime(n)
    if prime and n >= _MR_LIMIT:
        raise ValidationError(f"{n} is past the exact primality range (< {_MR_LIMIT})")
    return prime


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in _MR_BASES; False means n is composite
    (or below 2) at any size."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int | None:
    """A nontrivial factor of the odd composite n, a prime power too
    (Brent, BIT 20, 1980): Brent's cycle search on x -> x^2 + c mod n, with
    the gcds batched over runs of 128 differences; a c whose cycle closes
    mod n at once is retried with the next one.  None once the next round
    would take the steps of the map past _FACTOR_STEPS."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r steps to move x on, at most r more to compare
            if steps > _FACTOR_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 2 as a sorted list of (prime, exponent):
    trial division by 2..999, then Pollard-Brent on what is left, which
    takes about sqrt(p) steps for its second-largest prime factor p.  A
    split that would take more than _FACTOR_STEPS steps raises
    CapExceededError, and a cofactor past the exact range of ``is_prime``
    that passes its test raises ValidationError."""
    if m < 2:
        raise ValidationError(f"cannot factor modulus {m}; need m >= 2")
    modulus, out = m, Counter()
    for d in range(2, 1000):
        if d * d > m:  # what is left is 1 or a prime
            break
        while m % d == 0:
            m //= d
            out[d] += 1
    stack = [m] if m > 1 else []
    while stack:  # every k is a prime or has no factor below 1000
        k = stack.pop()
        if is_prime(k):
            out[k] += 1
            continue
        f = _pollard_brent(k)
        if f is None:
            raise CapExceededError(
                f"factoring modulus {modulus} needs more than the cap of {_FACTOR_STEPS} "
                "Pollard-Brent steps; give the ring as a list of components instead"
            )
        stack += [f, k // f]
    return sorted(out.items())


# ---------------------------------------------------------------------------
# polynomial helpers over the prime field F_p (coefficients low degree first)


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Polynomial division a = q*b + rem over F_p; b must be nonzero."""
    a = _fp_trim([c % p for c in a])
    b = _fp_trim([c % p for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv_lead, low = pow(b[-1], -1, p), b[:-1]
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:  # subtract c x^shift b, which clears the top term
        shift = len(a) - 1 - db
        c = a.pop() * inv_lead % p
        q[shift] = c
        a[shift:] = [(x - c * y) % p for x, y in zip(a[shift:], low)]
        _fp_trim(a)
    return q, a


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b over F_p."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _fp_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a * b modulo the monic f over F_p."""
    return _fp_divmod(_fp_mul(a, b, p), f, p)[1]


def _power(mul, x, k: int):
    """x^k for k >= 1 under the associative product ``mul``, by repeated
    squaring: about 2 log2 k products."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


def _fp_is_irreducible(f: list[int], p: int) -> bool:
    """Monic f over F_p has no monic factor of degree in [1, deg(f)/2].

    Ben-Or's test: gcd(x^(p^d) - x, f) = 1 for each such d.  Each x^(p^d)
    mod f is the p-th power of the one before (``_power``), so the cost
    grows with log p rather than with the p^d candidate factors.
    """
    f = _fp_trim([c % p for c in f])
    r = len(f) - 1
    if r < 1:
        return False
    mulmod = partial(_fp_mulmod, f=f, p=p)
    h = [0, 1]  # x^(p^d) mod f, from d = 0
    for _ in range(r // 2):
        h = _power(mulmod, h, p)
        g = h + [0] * (2 - len(h))  # h - x
        g[1] -= 1
        if len(_fp_gcd(f, g, p)) > 1:
            return False
    return True


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b over F_p by Euclid's algorithm ([] when both
    are zero)."""
    a, b = _fp_trim([c % p for c in a]), _fp_trim([c % p for c in b])
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return a
    inv_lead = pow(a[-1], -1, p)
    return [c * inv_lead % p for c in a]


def _fp_poly_inverse(a: list[int], f: list[int], p: int) -> list[int]:
    """Inverse of a modulo the monic irreducible f over F_p (extended Euclid)."""
    r0, r1 = [c % p for c in f], _fp_trim([c % p for c in a])
    t0, t1 = [0], [1]
    while len(r1) > 1:
        q, rem = _fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        width = max(len(t0), len(t1) + len(q))
        t2 = [0] * width
        for i, tc in enumerate(t0):
            t2[i] = tc
        for i, qc in enumerate(q):
            if qc:
                for j, tc in enumerate(t1):
                    t2[i + j] = (t2[i + j] - qc * tc) % p
        t0, t1 = t1, _fp_trim(t2)
    if not r1:
        raise NotInvertibleError("element shares a factor with the modulus")
    c_inv = pow(r1[0], p - 2, p)
    _, out = _fp_divmod([(c * c_inv) % p for c in t1], f, p)
    return out


def default_modulus(p: int, e: int, r: int) -> tuple[int, ...]:
    """Deterministic monic degree-r modulus for GR(p^e, r), irreducible mod p.

    For r >= 2 this is the lexicographically smallest monic irreducible
    polynomial over F_p (coefficient tuples compared low degree first), lifted
    coefficientwise.  r = 1 uses the degenerate modulus x, so the ring is
    plain Z mod p^e.
    """
    if not is_prime(p):
        raise ValidationError(f"p = {p} is not prime")
    if e < 1 or r < 1:
        raise ValidationError("need e >= 1 and r >= 1")
    if r == 1:
        return (0, 1)
    if r > 6:
        raise ValidationError(f"residue degree r = {r} out of supported range (r <= 6)")
    # tails (c0, ..., c_{r-1}) in order are the base-p digits of k, c0 the
    # most significant; a zero c0 makes x a factor, so k starts at p^(r-1)
    for k in range(p ** (r - 1), p**r):
        f = [k // p ** (r - 1 - j) % p for j in range(r)] + [1]
        if _fp_is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class ChainRing:
    """Galois ring GR(p^e, r) with gamma = p generating the maximal ideal.

    The ideal chain is <gamma^0> > <gamma^1> > ... > <gamma^e> = {0}; the
    residue field has q = p^r elements and the ring has p^(e*r).
    """

    def __init__(self, p: int, e: int = 1, r: int = 1, modulus=None):
        if not is_prime(p):
            raise ValidationError(f"p = {p} is not prime")
        if e < 1:
            raise ValidationError(f"nilpotency index e = {e} must be >= 1")
        if r < 1:
            raise ValidationError(f"residue degree r = {r} must be >= 1")
        self.p = p
        self.e = e
        self.r = r
        self.pe = p**e
        self.q = p**r
        self.size = p ** (e * r)
        if modulus is None:
            modulus = default_modulus(p, e, r)
        else:
            modulus = tuple(int(c) % self.pe for c in modulus)
            if len(modulus) != r + 1 or modulus[r] != 1:
                raise ValidationError("modulus must be monic of degree r")
            if r >= 2 and not _fp_is_irreducible([c % p for c in modulus], p):
                raise ValidationError("modulus is not irreducible modulo p")
        self.modulus = modulus
        self._mtail = modulus[:r]
        self.zero = (0,) * r
        self.one = (1,) + (0,) * (r - 1)
        self._key = (p, e, r, self.modulus)
        self._elements = None
        self._inv_cache: dict[tuple, tuple] = {}
        self._tables = None

    # -- identity / display ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ChainRing) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.r == 1:
            return f"F{self.p}" if self.e == 1 else f"Z{self.pe}"
        if self.e == 1:
            return f"F{self.q}"
        return f"GR({self.p}^{self.e},{self.r})"

    def describe(self) -> dict:
        return {"p": self.p, "e": self.e, "r": self.r, "modulus": list(self.modulus), "size": self.size}

    def format_element(self, a) -> str:
        if self.r == 1:
            return str(a[0])
        terms = []
        for k in range(self.r - 1, -1, -1):
            c = a[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return "+".join(terms) if terms else "0"

    # -- element plumbing ---------------------------------------------------

    def check(self, a):
        """Validate an element and return it as a canonical tuple."""
        if not isinstance(a, (tuple, list)):
            raise ValidationError(f"element {a!r} of {self!r} must be a coefficient tuple")
        if len(a) != self.r:
            raise ValidationError(f"element {a!r} has arity {len(a)}, ring {self!r} needs {self.r}")
        for c in a:
            if not isinstance(c, int) or not 0 <= c < self.pe:
                raise ValidationError(f"coefficient {c!r} of {a!r} outside [0, {self.pe})")
        return tuple(a)

    def check_row(self, v) -> tuple:
        """check() of every entry of the vector v, as a tuple.  A row already
        in the form check() returns is validated in bulk; any other row is
        checked entry by entry, so errors are those of check()."""
        v = tuple(v)
        return v if self._canonical(v) else tuple(map(self.check, v))

    def _canonical(self, v) -> bool:
        """Whether every entry of v is a tuple of r ints in [0, p^e), the
        form check() returns (False for an empty v)."""
        if set(map(type, v)) != {tuple} or set(map(len, v)) != {self.r}:
            return False
        xs = [x for (x,) in v] if self.r == 1 else [c for x in v for c in x]
        return set(map(type, xs)) == {int} and 0 <= min(xs) and max(xs) < self.pe

    def from_int(self, k: int):
        """Constant polynomial k mod p^e."""
        return (k % self.pe,) + (0,) * (self.r - 1)

    def elements(self) -> list:
        """All ring elements as tuples, in a fixed lexicographic order."""
        if self._elements is None:
            self._elements = list(itertools.product(range(self.pe), repeat=self.r))
        return self._elements

    def index(self, a) -> int:
        """The q-adic digit index of a: sum_d q^d * sum_i c_{i,d} p^i, with
        c_{i,d} the d-th base-p digit of coefficient c_i, in [0, size).

        Digit d of the index is the layer gamma^d of a, so zero is 0, one is
        1, valuation(a) is v_q(index), div_gamma(a, t) has index
        index // q^t and gamma^k * a has index index * q^k mod q^e.  For
        r = 1 the index is the one coefficient."""
        p, q = self.p, self.q
        out, scale = 0, 1
        for _ in range(self.e):
            out += scale * sum(c % p * p**i for i, c in enumerate(a))
            a = [c // p for c in a]
            scale *= q
        return out

    def index_tables(self) -> "IndexTables":
        """The ring's arithmetic on indices, built on the first call and
        kept on the ring."""
        if self._tables is None:
            self._tables = IndexTables(self)
        return self._tables

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if len(a) != self.r or len(b) != self.r:
            raise ValidationError(f"arity mismatch: {a!r} + {b!r} in {self!r}")
        pe = self.pe
        return tuple((x + y) % pe for x, y in zip(a, b))

    def sub(self, a, b):
        if len(a) != self.r or len(b) != self.r:
            raise ValidationError(f"arity mismatch: {a!r} - {b!r} in {self!r}")
        pe = self.pe
        return tuple((x - y) % pe for x, y in zip(a, b))

    def neg(self, a):
        pe = self.pe
        return tuple((-x) % pe for x in a)

    def mul(self, a, b):
        if len(a) != self.r or len(b) != self.r:
            raise ValidationError(f"arity mismatch: {a!r} * {b!r} in {self!r}")
        pe = self.pe
        r = self.r
        if r == 1:
            return ((a[0] * b[0]) % pe,)
        conv = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        # fold high-degree terms using x^r = -(m_0 + ... + m_{r-1} x^{r-1})
        mtail = self._mtail
        for d in range(2 * r - 2, r - 1, -1):
            c = conv[d] % pe
            if c:
                for k in range(r):
                    conv[d - r + k] -= c * mtail[k]
        return tuple(x % pe for x in conv[:r])

    def is_unit(self, a) -> bool:
        p = self.p
        return any(c % p for c in a)

    def valuation(self, a) -> int:
        """Largest t with a in <gamma^t>; the zero element gets e."""
        p, best = self.p, self.e
        for c in a:
            if c:
                w = 0
                while c % p == 0:
                    c //= p
                    w += 1
                if w < best:
                    best = w
                    if best == 0:
                        break
        return best

    def inverse(self, a):
        """Multiplicative inverse: over Z_{p^e} (r = 1) the exact
        pow(a, -1, p^e); for r > 1 invert in the residue field, Newton-lift."""
        a = self.check(a)
        if not self.is_unit(a):
            raise NotInvertibleError(f"{a} is not a unit in {self!r}")
        cached = self._inv_cache.get(a)
        if cached is not None:
            return cached
        if self.r == 1:
            b = (pow(a[0], -1, self.pe),)
        else:
            p = self.p
            res = _fp_poly_inverse([c % p for c in a], [c % p for c in self.modulus], p)
            b = tuple(res) + (0,) * (self.r - len(res))
            two = self.from_int(2)
            guard = 0
            while self.mul(a, b) != self.one:
                b = self.mul(b, self.sub(two, self.mul(a, b)))
                guard += 1
                if guard > self.e + 2:
                    raise AssertionError("inverse lifting failed to converge")
        self._inv_cache[a] = b
        return b

    # -- gamma bookkeeping (used heavily by the linear algebra) --------------

    def gamma_power(self, t: int):
        """gamma^t as a ring element (zero for t >= e)."""
        if t >= self.e:
            return self.zero
        return (self.p**t,) + (0,) * (self.r - 1)

    def div_gamma(self, a, t: int):
        """a // gamma^t, coefficientwise c // p^t: the exact quotient when
        valuation(a) >= t, else the quotient that leaves a's canonical
        residue mod gamma^t (a - gamma^t * (a // gamma^t), every coefficient
        below p^t)."""
        pt = self.p**t
        return tuple(c // pt for c in a)


class IndexTables:
    """Products, differences and unit inverses of a chain ring on element
    indices (``ChainRing.index``), as flat tables of size^2 slots.

    ``mul[a * size + b]`` and ``sub[a * size + b]`` hold the indices of
    a * b and a - b, and ``inv[u]`` the index of the unit u's inverse (None
    for a non-unit).  ``elements`` and ``code`` map indices to elements and
    back.  Every slot is computed once, when the tables are built, with the
    ring's own ``mul`` and ``sub``.
    """

    def __init__(self, ring: ChainRing):
        size = ring.size
        self.code = code = {a: ring.index(a) for a in ring.elements()}
        self.elements = els = sorted(code, key=code.__getitem__)
        mul, sub = ring.mul, ring.sub
        self.mul = table = [0] * (size * size)
        for i, a in enumerate(els):
            for j in range(i, size):
                table[i * size + j] = table[j * size + i] = code[mul(a, els[j])]
        self.sub = [code[sub(a, b)] for a in els for b in els]
        rows = [table[u * size : (u + 1) * size] for u in range(size)]
        self.inv = [row.index(1) if 1 in row else None for row in rows]


class ProductRing:
    """Finite principal ideal ring as an ordered product of chain rings."""

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValidationError("a product ring needs at least one component")
        for c in comps:
            if not isinstance(c, ChainRing):
                raise ValidationError(f"component {c!r} is not a chain ring")
        self.components = comps
        self.s = len(comps)
        self.size = prod(c.size for c in comps)
        self.zero = tuple(c.zero for c in comps)
        self.one = tuple(c.one for c in comps)
        # integer I/O works only for Z_m with pairwise coprime prime powers
        primes = [c.p for c in comps]
        self._integer_like = all(c.r == 1 for c in comps) and len(set(primes)) == len(primes)
        self._elements = None

    @classmethod
    def from_modulus(cls, m: int) -> "ProductRing":
        """Z_m decomposed into its prime-power residue rings."""
        return cls([ChainRing(p, e, 1) for p, e in factorize(m)])

    # -- identity / display ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ProductRing) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return " x ".join(repr(c) for c in self.components)

    def format_element(self, a) -> str:
        if self._integer_like:
            if self.s == 1:
                return str(a[0][0])
            return str(self.lift(a))
        parts = [c.format_element(x) for c, x in zip(self.components, a)]
        if self.s == 1:
            return parts[0]
        return "(" + ", ".join(parts) + ")"

    # -- element plumbing -------------------------------------------------------

    def check(self, a):
        if not isinstance(a, (tuple, list)):
            raise ValidationError(f"element {a!r} of {self!r} must be a tuple of component parts")
        if len(a) != self.s:
            raise ValidationError(f"element {a!r} has arity {len(a)}, ring has {self.s} components")
        return tuple(c.check(part) for c, part in zip(self.components, a))

    def check_row(self, v) -> tuple:
        """check() of every entry of the vector v, as a tuple.  A row of
        s-tuples whose component columns are each in the form
        ``ChainRing.check`` returns is validated in bulk; any other row is
        checked entry by entry, so errors are those of check()."""
        v = tuple(v)
        if (
            set(map(type, v)) == {tuple}
            and set(map(len, v)) == {self.s}
            and all(c._canonical(col) for c, col in zip(self.components, zip(*v)))
        ):
            return v
        return tuple(map(self.check, v))

    def elements(self) -> list:
        if self._elements is None:
            self._elements = [
                tuple(combo)
                for combo in itertools.product(*(c.elements() for c in self.components))
            ]
        return self._elements

    def project(self, x: int):
        """Residues of an integer in each component (the CRT direction)."""
        if not self._integer_like:
            raise ValidationError(
                "integer projection needs pairwise-coprime Z_{p^e} components"
            )
        return tuple((x % c.pe,) for c in self.components)

    def lift(self, a) -> int:
        """The unique integer in [0, m) with the given residues."""
        if not self._integer_like:
            raise ValidationError("integer lifting needs pairwise-coprime Z_{p^e} components")
        a = self.check(a)
        m = prod(c.pe for c in self.components)
        x = 0
        for c, part in zip(self.components, a):
            cof = m // c.pe
            x += part[0] * cof * pow(cof, -1, c.pe)
        return x % m

    # -- componentwise arithmetic ----------------------------------------------

    def _arity(self, a, b):
        if len(a) != self.s or len(b) != self.s:
            raise ValidationError(f"arity mismatch in {self!r}: {a!r}, {b!r}")

    def add(self, a, b):
        self._arity(a, b)
        return tuple(c.add(x, y) for c, x, y in zip(self.components, a, b))

    def sub(self, a, b):
        self._arity(a, b)
        return tuple(c.sub(x, y) for c, x, y in zip(self.components, a, b))

    def mul(self, a, b):
        self._arity(a, b)
        return tuple(c.mul(x, y) for c, x, y in zip(self.components, a, b))
