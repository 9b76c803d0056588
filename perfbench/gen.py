"""Seeded job generators for the three workloads.

A job is one ``lcpcodes`` CLI invocation (always with ``--json``) on a
generated config file, plus the facts the output checker needs.  Every input
is drawn from ``random.Random(f"{workload}:{seed}")``; the program sees only
the config files written by ``write_configs``.

Each workload is a list of *slots*.  A slot fixes the subcommand, the ring,
the group and the shape of the code (its size, or the divisor or degree
that sets it); the seed draws the generators within that shape, the
messages and the job order.  Slots keep the cost of the job list the same
for every seed, so the end-to-end figures compare across seeds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
from dataclasses import dataclass

import polys


@dataclass(frozen=True, eq=False)
class Ring:
    name: str
    lit: object  # the config literal
    comps: tuple  # ((p, e, r), ...) in the order the program uses

    @property
    def r(self) -> int:
        return self.comps[0][2]

    @property
    def modulus(self) -> int:
        """Coefficient modulus: m for Z_m-like rings, p^e for one extension component."""
        if self.r == 1:
            out = 1
            for p, e, _ in self.comps:
                out *= p**e
            return out
        p, e, _ = self.comps[0]
        return p**e

    @property
    def size(self) -> int:
        out = 1
        for p, e, r in self.comps:
            out *= p ** (e * r)
        return out

    @property
    def fields_only(self) -> bool:
        """Every component is a prime field, so cyclic codes have gcd formulas."""
        return all(e == 1 and r == 1 for _, e, r in self.comps)

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _, _ in self.comps)


def _gr(p, e, r):
    return [{"p": p, "e": e, "r": r}]


RINGS = {
    r.name: r
    for r in (
        Ring("F2", 2, ((2, 1, 1),)),
        Ring("F3", 3, ((3, 1, 1),)),
        Ring("F5", 5, ((5, 1, 1),)),
        Ring("F7", 7, ((7, 1, 1),)),
        Ring("Z4", 4, ((2, 2, 1),)),
        Ring("Z8", 8, ((2, 3, 1),)),
        Ring("Z9", 9, ((3, 2, 1),)),
        Ring("Z6", 6, ((2, 1, 1), (3, 1, 1))),
        Ring("Z10", 10, ((2, 1, 1), (5, 1, 1))),
        Ring("F4", _gr(2, 1, 2), ((2, 1, 2),)),
        Ring("GR(4,2)", _gr(2, 2, 2), ((2, 2, 2),)),
    )
}


# ---------------------------------------------------------------------------
# elements: a list of n coefficients; an int mod m when r = 1, else an
# r-tuple of ints mod p^e


def scalar(ring: Ring, c: int):
    m = ring.modulus
    return c % m if ring.r == 1 else (c % m,) + (0,) * (ring.r - 1)


def coeff_add(ring: Ring, a, b):
    m = ring.modulus
    if ring.r == 1:
        return (a + b) % m
    return tuple((x + y) % m for x, y in zip(a, b))


def coeff_scale(ring: Ring, k: int, a):
    m = ring.modulus
    if ring.r == 1:
        return k * a % m
    return tuple(k * x % m for x in a)


def is_zero(ring: Ring, c) -> bool:
    return c == 0 if ring.r == 1 else not any(c)


def rand_coeff(ring: Ring, rng: random.Random):
    """A uniformly drawn unit.

    Units keep every CRT component of a generator nonzero, so the size of the
    ideal, and with it the cost of the job, does not swing with the draw.
    """
    m = ring.modulus
    while True:
        c = rng.randrange(m) if ring.r == 1 else tuple(rng.randrange(m) for _ in range(ring.r))
        if ring.r == 1 and math.gcd(c, m) == 1:
            return c
        if ring.r > 1 and any(x % ring.comps[0][0] for x in c):
            return c


def zero_elem(ring: Ring, n: int):
    return [scalar(ring, 0)] * n


def int_poly_elem(ring: Ring, f, n: int):
    """The integer polynomial f reduced mod x^n - 1, as an element."""
    out = zero_elem(ring, n)
    for i, c in enumerate(f):
        out[i % n] = coeff_add(ring, out[i % n], scalar(ring, c))
    return out


def cyclic_mul(ring: Ring, f, u, n: int):
    """Integer polynomial f times element u in R[C_n]."""
    out = zero_elem(ring, n)
    for i, c in enumerate(f):
        if c:
            for j, x in enumerate(u):
                k = (i + j) % n
                out[k] = coeff_add(ring, out[k], coeff_scale(ring, c, x))
    return out


def sparse_elem(ring: Ring, n: int, rng: random.Random, terms: int, zero_sum: bool):
    """Random element with about ``terms`` nonzero coefficients.

    With ``zero_sum`` the coefficients add up to zero, which puts the element
    in the augmentation ideal, so its two-sided ideal is proper.
    """
    while True:
        out = zero_elem(ring, n)
        idx = rng.sample(range(n), terms)
        total = scalar(ring, 0)
        for i in idx[:-1]:
            c = rand_coeff(ring, rng)
            out[i] = c
            total = coeff_add(ring, total, c)
        out[idx[-1]] = coeff_scale(ring, -1, total) if zero_sum else rand_coeff(ring, rng)
        if sum(1 for c in out if not is_zero(ring, c)) >= 2:
            return out


def elem_literal(ring: Ring, a):
    """Config literal: [[group-index, coefficient], ...]."""
    if ring.r == 1:
        return [[i, c] for i, c in enumerate(a) if c]
    return [[i, [list(c)]] for i, c in enumerate(a) if any(c)]


def elem_json(ring: Ring, a):
    """The program's JSON shape of an element: per coefficient, per component."""
    if ring.r == 1:
        return [[[c % p**e] for p, e, _ in ring.comps] for c in a]
    return [[list(c)] for c in a]


def elem_int_poly(a):
    """Integer coefficient list of an r = 1 element (index = exponent)."""
    return polys.trim(list(a))


def small_divisors(n: int):
    """Divisors d <= n / 16 (and d = 1): <x^d - 1> keeps rank n - d close to n."""
    return [d for d in range(1, max(2, n // 16 + 1)) if n % d == 0]


def coprime_to(n: int, ring: Ring) -> bool:
    return all(n % p for p in ring.primes)


# ---------------------------------------------------------------------------
# job records


class Builder:
    """Collects configs and jobs; config file names are unique per builder."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.configs = {}
        self.jobs = []

    def config(self, ring: Ring, group: dict, codes: dict, seed: int = 0) -> str:
        name = f"c{len(self.configs):04d}.json"
        self.configs[name] = {"ring": ring.lit, "group": group, "codes": codes, "seed": seed}
        return name

    def job(self, argv, config: str, label: str, check: dict):
        self.jobs.append(
            {"id": len(self.jobs), "argv": list(argv), "config": config, "label": label, "check": check}
        )


def _group(family: str, n: int) -> dict:
    return {"family": family, "n": n}


def _order(family: str, n: int) -> int:
    return 2 * n if family == "dihedral" else n


# ---------------------------------------------------------------------------
# reduce: big-n reductions, no codeword enumeration

# (subcommand, ring, group family, n).  Dihedral n is the rotation count, so
# the group order is 2n.  LCP pairs go only to dsm, which needs the group
# order to be a unit in R.  The job cost grows like n^3, and a slot that let
# the seed pick between neighbouring n (and the divisor d below) moved a
# slot's cost by up to 50%, so each slot fixes n.
REDUCE_SLOTS = [
    ("code", "Z6", "cyclic", 46),
    ("code", "Z10", "cyclic", 46),
    ("code", "Z4", "cyclic", 54),
    ("code", "Z8", "cyclic", 54),
    ("code", "GR(4,2)", "cyclic", 46),
    ("code", "Z9", "dihedral", 22),
    ("code", "Z6", "dihedral", 22),
    ("dual", "Z6", "cyclic", 68),
    ("dual", "Z8", "cyclic", 76),
    ("dual", "Z9", "cyclic", 68),
    ("dual", "Z4", "cyclic", 76),
    ("dual", "GR(4,2)", "cyclic", 60),
    ("dual", "Z10", "dihedral", 25),
    ("crt", "Z6", "cyclic", 68),
    ("crt", "Z10", "cyclic", 68),
    ("crt", "GR(4,2)", "cyclic", 60),
    ("crt", "Z6", "dihedral", 22),
    ("lcp", "Z6", "cyclic", 60),
    ("lcp", "Z10", "cyclic", 60),
    ("lcp", "Z4", "cyclic", 86),
    ("lcp", "Z8", "cyclic", 76),
    ("lcp", "GR(4,2)", "cyclic", 52),
    ("lcp", "Z9", "dihedral", 22),
    ("lcp", "Z6", "dihedral", 22),
    ("dsm", "Z6", "cyclic", 47),
    ("dsm", "Z10", "cyclic", 47),
    ("dsm", "Z9", "cyclic", 70),
    ("dsm", "Z4", "cyclic", 59),
    ("dsm", "Z9", "dihedral", 22),
    ("dsm", "GR(4,2)", "cyclic", 49),
]


def _reduce_generator(ring: Ring, family: str, n: int, rng: random.Random, reflection=False):
    """A proper ideal generator c g^j (1 - h) with c a unit and h != 1.

    Cyclic: h = x^d with d a small divisor of n, so the ideal is <x^d - 1>.
    Dihedral: h = r^k with k prime to n (the kernel onto R[C_2]) or, with
    ``reflection``, a reflection r^k s.  Fixing the ideal's shape keeps the
    cost of a slot steady from seed to seed; the seed still picks c, j, k.
    """
    order = _order(family, n)
    c = rand_coeff(ring, rng)
    a = zero_elem(ring, order)
    if family == "cyclic":
        d, j = max(small_divisors(n)), rng.randrange(n)
        a[(j + d) % n], a[j] = c, coeff_scale(ring, -1, c)
        return a
    k = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])
    a[0], a[k + n if reflection else k] = c, coeff_scale(ring, -1, c)
    return a


def _gcd_degrees(ring: Ring, a, n: int):
    """deg gcd(a mod p, x^n - 1) per prime-field component."""
    f = polys.xn_minus_1(n)
    return [polys.deg(polys.gcd_p(elem_int_poly(a), f, p)) for p in ring.primes]


def _reduce_job(b: Builder, kind: str, ring: Ring, family: str, n: int):
    rng = b.rng
    order = _order(family, n)
    label = f"{kind} {ring.name}[{'C' if family == 'cyclic' else 'D'}{order}]"
    exact = ring.fields_only and family == "cyclic"
    check = {"kind": kind, "ring": ring.name, "order": order, "full": ring.size**order}
    if kind in ("code", "dual", "crt"):
        a = _reduce_generator(ring, family, n, rng)
        cfg = b.config(ring, _group(family, n), {"C": [elem_literal(ring, a)]})
        if exact:
            check["cardinality"] = _field_code_size(ring, n, _gcd_degrees(ring, a, n))
        b.job([kind, "C"], cfg, label, check)
    elif kind == "lcp":
        a = _reduce_generator(ring, family, n, rng)
        c = _reduce_generator(ring, family, n, rng, reflection=True)
        cfg = b.config(
            ring, _group(family, n), {"C": [elem_literal(ring, a)], "D": [elem_literal(ring, c)]}
        )
        if exact:
            f = polys.xn_minus_1(n)
            degs = []
            for p in ring.primes:
                ga = polys.gcd_p(elem_int_poly(a), f, p)
                gc = polys.gcd_p(elem_int_poly(c), f, p)
                degs.append(polys.deg(polys.lcm_p(ga, gc, p)))
            check["intersection_size"] = _field_code_size(ring, n, degs)
        check["is_lcp"] = False
        b.job(["lcp", "C", "D"], cfg, label, check)
    else:
        if family == "cyclic":
            d = max(small_divisors(n))
            g = polys.sub([0] * d + [1], [1])
            h = [1 if i % d == 0 else 0 for i in range(n)]
            codes = {"C": [elem_literal(ring, int_poly_elem(ring, g, n))],
                     "D": [elem_literal(ring, int_poly_elem(ring, h, n))]}
            u = sparse_elem(ring, n, rng, rng.randint(2, 4), zero_sum=False)
            msg = cyclic_mul(ring, g, u, n)
        else:
            one, rot, ref = 0, 1, n
            gens_c = []
            for idx in (rot, ref):
                e = zero_elem(ring, order)
                e[one], e[idx] = scalar(ring, 1), scalar(ring, -1)
                gens_c.append(elem_literal(ring, e))
            codes = {"C": gens_c, "D": [elem_literal(ring, [scalar(ring, 1)] * order)]}
            msg = sparse_elem(ring, order, rng, rng.randint(3, 5), zero_sum=True)
        cfg = b.config(ring, _group(family, n), codes, seed=rng.randrange(1 << 32))
        check["message"] = elem_json(ring, msg)
        b.job(["dsm", "C", "D", json.dumps(elem_literal(ring, msg))], cfg, label, check)


def _field_code_size(ring: Ring, n: int, gcd_degs) -> int:
    out = 1
    for p, dg in zip(ring.primes, gcd_degs):
        out *= p ** (n - dg)
    return out


def build_reduce(b: Builder, tiny: bool):
    for kind, ring_name, family, n in REDUCE_SLOTS:
        ring = RINGS[ring_name]
        if tiny:
            sizes = range(4, 13) if family == "cyclic" else range(3, 7)
            if kind == "dsm":
                sizes = [m for m in sizes if coprime_to(_order(family, m), ring)]
            n = b.rng.choice(list(sizes))
        _reduce_job(b, kind, ring, family, n)
    _shuffle(b, [[job] for job in b.jobs])


def _shuffle(b: Builder, units):
    """Shuffle the job list as units (runs of jobs that stay together)."""
    b.rng.shuffle(units)
    b.jobs = [job for unit in units for job in unit]
    for i, job in enumerate(b.jobs):
        job["id"] = i


# ---------------------------------------------------------------------------
# enumerate: small n, many codewords


@functools.lru_cache(maxsize=None)
def _cyclic_factors(ring: Ring, n: int):
    """Factors of x^n - 1 with multiplicities, as [(f, mult)].

    Over a prime field these are the irreducible factors (n = p^a m, each
    factor of x^m - 1 with multiplicity p^a).  Over Z4 and F4 they are the
    cyclotomic polynomials Phi_d, d | n, which divide x^n - 1 over Z.
    """
    if ring.r == 1 and ring.fields_only and len(ring.comps) == 1:
        p = ring.primes[0]
        m, mult = n, 1
        while m % p == 0:
            m //= p
            mult *= p
        return tuple((f, mult) for f in polys.factor_xn_minus_1(m, p))
    return tuple((polys.cyclotomic(d), 1) for d in range(1, n + 1) if n % d == 0)


def _field_q(ring: Ring) -> int:
    p, e, r = ring.comps[0]
    return p ** (e * r)


def _poly_product(factors, exps, m: int):
    out = [1]
    for (f, _), k in zip(factors, exps):
        for _ in range(k):
            out = polys.mul(out, f, m)
    return out


# (ring, n, allowed k = log_q |C|).  Each slot fixes the pair {k, n - k}, so
# the words enumerated per C / C^perp pair are the same for every seed; the
# seed picks which factors of x^n - 1 go into the generator.
MINDIST_SLOTS = [
    ("F2", 28, (14,)),
    ("F2", 23, (11, 12)),
    ("F2", 21, (10, 11)),
    ("F3", 14, (7,)),
    ("Z4", 12, (6,)),
    ("F4", 12, (6,)),
]

# LCP pairs <g>, <h> with g h = x^n - 1 and gcd(g, h) = 1, for lcp and dsm:
# (subcommand, ring, (n, k = log_q |C|) per round).  The seed picks which
# factors of x^n - 1 go into g.  The lcp cost grows with |C| (enumeration of
# C and D^perp plus the permutation search) and, for one (n, k), can differ
# 50-fold between factor choices: F3[C8] with k = 5 or 6 took 0.07-2.8 s.
# So each (n, k) here is one whose choices all cost about the same, and the
# job list costs the same for every seed; see BENCHMARK.json for the
# families left out.
PAIR_SLOTS = [
    (kind, ring, rounds)
    for kind in ("lcp", "dsm")
    for ring, rounds in (
        ("F2", ((7, 4), (9, 6))),
        ("F3", ((7, 6), (8, 4))),
        ("F5", ((4, 3), (6, 3))),
        ("F4", ((5, 4), (9, 3))),
    )
]


def _mindist_jobs(b: Builder, ring: Ring, n: int, ks):
    rng = b.rng
    factors = _cyclic_factors(ring, n)
    options = [
        exps
        for exps in itertools.product(*(range(mult + 1) for _, mult in factors))
        if n - sum(polys.deg(f) * e for (f, _), e in zip(factors, exps)) in ks
    ]
    exps = rng.choice(options)
    m = ring.modulus
    g = _poly_product(factors, exps, m)
    h = _poly_product(factors, [mult - e for (_, mult), e in zip(factors, exps)], m)
    dual = polys.reduce_mod(polys.reciprocal(h), m)
    q = _field_q(ring)
    k = n - polys.deg(g)
    cfg = b.config(
        ring,
        _group("cyclic", n),
        {
            "C": [elem_literal(ring, int_poly_elem(ring, g, n))],
            "Cd": [elem_literal(ring, int_poly_elem(ring, dual, n))],
        },
    )
    label = f"mindist {ring.name}[C{n}]"
    for name, other, kk in (("C", "Cd", k), ("Cd", "C", n - k)):
        check = {"kind": "mindist", "ring": ring.name, "order": n, "q": q,
                 "full": ring.size**n, "cardinality": q**kk, "dual_of": other}
        b.job(["mindist", name], cfg, label, check)


def _pair_job(b: Builder, kind: str, ring: Ring, n: int, ks):
    rng = b.rng
    factors = _cyclic_factors(ring, n)
    options = [
        mask
        for mask in range(1, 2 ** len(factors) - 1)
        if n - sum(polys.deg(f) for i, (f, _) in enumerate(factors) if mask >> i & 1) in ks
    ]
    mask = rng.choice(options)
    m = ring.modulus
    g = _poly_product(factors, [mask >> i & 1 for i in range(len(factors))], m)
    h = _poly_product(factors, [1 - (mask >> i & 1) for i in range(len(factors))], m)
    codes = {"C": [elem_literal(ring, int_poly_elem(ring, g, n))],
             "D": [elem_literal(ring, int_poly_elem(ring, h, n))]}
    label = f"{kind} {ring.name}[C{n}]"
    check = {"kind": kind, "ring": ring.name, "order": n, "full": ring.size**n}
    if kind == "lcp":
        check["is_lcp"] = True
        cfg = b.config(ring, _group("cyclic", n), codes)
        b.job(["lcp", "C", "D"], cfg, label, check)
        return
    u = sparse_elem(ring, n, rng, rng.randint(2, 3), zero_sum=False)
    msg = cyclic_mul(ring, g, u, n)
    cfg = b.config(ring, _group("cyclic", n), codes, seed=rng.randrange(1 << 32))
    check["message"] = elem_json(ring, msg)
    b.job(["dsm", "C", "D", json.dumps(elem_literal(ring, msg))], cfg, label, check)


def build_enumerate(b: Builder, tiny: bool):
    """Every slot twice, with separate draws; each C / C^perp pair stays adjacent."""
    units = []
    for round_ in range(2):
        for ring_name, n, ks in MINDIST_SLOTS:
            if tiny:
                n, ks = 8, (4,)
            start = len(b.jobs)
            _mindist_jobs(b, RINGS[ring_name], n, ks)
            units.append(b.jobs[start:])
        for kind, ring_name, rounds in PAIR_SLOTS:
            n, k = rounds[round_]
            ks = (k,)
            if tiny:
                n, ks = 7, range(1, 7)
            start = len(b.jobs)
            _pair_job(b, kind, RINGS[ring_name], n, ks)
            units.append(b.jobs[start:])
    _shuffle(b, units)


# ---------------------------------------------------------------------------
# search: ideal lattices of small algebras


def _fp_formula(ring: Ring, n: int):
    """(ideal count, LCP pair count) of R[C_n] when R[C_n] splits into chain rings.

    Per component GR(p^e, r) with q = p^r and n = p^a m: if e = 1 every one
    of the k q-cyclotomic cosets mod m gives a chain ring with p^a + 1
    ideals; if e > 1 and a = 0 each gives GR(p^e, .) with e + 1 ideals.  Each
    chain ring has exactly two LCP pairs.  Components multiply.
    """
    ideals, pairs = 1, 1
    for p, e, r in ring.comps:
        m, pa = n, 1
        while m % p == 0:
            m //= p
            pa *= p
        if e > 1 and pa > 1:
            return None
        k = len(polys.cyclotomic_cosets(p**r, m))
        ideals *= (pa + 1 if e == 1 else e + 1) ** k
        pairs *= 2**k
    return ideals, pairs


# Algebras for search-lcp, with seconds per job as first measured.  The
# 2^12-element algebras F2[C12], F2[D6], Z4[C6] and F4[C6] take 5-18 s each
# and are left out, so one job cannot fill a third of a run.
SEARCH_ALGEBRAS = [
    # under 0.25 s
    ("F2", "cyclic", 6), ("F2", "cyclic", 7), ("F3", "cyclic", 4), ("F3", "cyclic", 5),
    ("F5", "cyclic", 3), ("F7", "cyclic", 3), ("Z6", "cyclic", 3), ("Z4", "cyclic", 3),
    ("F4", "cyclic", 3), ("F4", "cyclic", 4), ("F2", "symmetric", 3),
    # 0.2-0.7 s
    ("F2", "cyclic", 8), ("F2", "cyclic", 9), ("F3", "cyclic", 6), ("F5", "cyclic", 4),
    ("Z10", "cyclic", 3), ("Z4", "cyclic", 4), ("Z4", "cyclic", 5), ("F4", "cyclic", 5),
    # 0.9-2.1 s
    ("F3", "symmetric", 3), ("F3", "cyclic", 7), ("Z6", "cyclic", 4), ("GR(4,2)", "cyclic", 3),
]


def _search_job(b: Builder, ring: Ring, family: str, n: int):
    group = {"family": family, "m": n} if family == "symmetric" else _group(family, n)
    order = {"cyclic": n, "dihedral": 2 * n, "symmetric": math.factorial(n)}[family]
    cfg = b.config(ring, group, {})
    name = {"cyclic": "C", "dihedral": "D", "symmetric": "S"}[family]
    check = {"kind": "search-lcp", "ring": ring.name, "order": order,
             "full": ring.size**order}
    if family == "cyclic":
        formula = _fp_formula(ring, n)
        if formula:
            check["ideal_count"], check["lcp_pair_count"] = formula
    b.job(["search-lcp"], cfg, f"search-lcp {ring.name}[{name}{n}]", check)


def build_search(b: Builder, tiny: bool):
    """Every algebra once; the seed sets the order."""
    for ring_name, family, n in SEARCH_ALGEBRAS[:4] if tiny else SEARCH_ALGEBRAS:
        _search_job(b, RINGS[ring_name], family, n)
    _shuffle(b, [[job] for job in b.jobs])


BUILDERS = {"reduce": build_reduce, "enumerate": build_enumerate, "search": build_search}


def build(workload: str, seed: int, tiny: bool = False):
    """The workload's job list, and the configs it uses by file name."""
    b = Builder(workload, seed)
    BUILDERS[workload](b, tiny)
    return b.jobs, b.configs


def write_configs(configs: dict, directory: str):
    os.makedirs(directory, exist_ok=True)
    for name, doc in configs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
