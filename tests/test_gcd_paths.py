"""The gcd path for cyclic codes over prime fields against the Howell engine.

A CRT component of R[G] that is a prime field F_p, with G cyclic in index
order, is F_p[x]/(x^n - 1): ``from_generators``, ``code_sum``, ``code_dual``
and ``code_involute`` build its forms from generator polynomials
(``lcpcodes.polycodes``); each form built so carries its g, which
equality and hashing ignore.  Every other component, and every form that
carries no g, is reduced by the Howell engine, which is the oracle here:
with ``codes._gcd_path`` refusing every component, each operation must give
the same pivot forms.  The envelope closures and a
non-LCP ``lcp`` are checked to make no Howell reduction at all (calls are
counted, not timed).  ``enumerate_ideals`` lists such a component's ideals
as the divisors of x^n - 1, checked against ``oracles.principal_closure_ideals``
and against trial division, with no closure, sum or Howell reduction.  No
seed-1 benchmark job over a cyclic group reduces a prime-field component.
"""

import contextlib
import io
import itertools
import json
import random
import time

import pytest

from lcpcodes import cli, codes, linalg, polycodes
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_dual, code_involute, code_sum, enumerate_ideals, lcp_check
from lcpcodes.groups import cyclic, direct_product, group_from_table
from lcpcodes.linalg import RingMatrix, pivot_reduce
from lcpcodes.rings import ChainRing, ProductRing, _fp_divmod, _fp_gcd, _fp_is_irreducible

from counting import count_calls
from oracles import principal_closure_ideals
from test_output_identity import job_sets, load_perfbench


def chain(p, e=1, r=1):
    return ProductRing([ChainRing(p, e, r)])


# every cyclic algebra of the ideal corpora (test_fast_paths, test_ideal_search,
# test_packed_walk) with a prime-field component, p | n among them, and n = 1;
# over Z12 = Z4 x F3 one component takes each path
CORPUS = {
    "F2[C3]": (chain(2), 3),
    "F2[C6]": (chain(2), 6),
    "F2[C12]": (chain(2), 12),
    "F3[C4]": (chain(3), 4),
    "F3[C9]": (chain(3), 9),
    "F5[C4]": (chain(5), 4),
    "F7[C3]": (chain(7), 3),
    "F5[C1]": (chain(5), 1),
    "Z6[C1]": (ProductRing.from_modulus(6), 1),
    "Z6[C2]": (ProductRing.from_modulus(6), 2),
    "Z6[C3]": (ProductRing.from_modulus(6), 3),
    "Z10[C3]": (ProductRing.from_modulus(10), 3),
    "Z12[C2]": (ProductRing.from_modulus(12), 2),
    "Z12[C3]": (ProductRing.from_modulus(12), 3),
    "Z_(2^64-59)[C64]": (chain(2**64 - 59), 64),
}
# algebras up to this size also have all their ideals enumerated both ways
ENUMERATED = 1 << 12


@contextlib.contextmanager
def howell_only():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_gcd_path", lambda algebra, ring: False)
        yield


def fresh(X):
    """X's forms in a new code, with nothing cached."""
    return GroupCode.from_components(X.algebra, X.components)


def random_element(algebra, rng):
    return tuple(
        tuple((rng.randrange(cr.pe),) for cr in algebra.ring.components) for _ in range(algebra.group.n)
    )


def sample(algebra, rng):
    """A random element times 1 - g^d for a random divisor d of n, so that
    its ideal is often proper (d = n gives zero)."""
    n = algebra.group.n
    d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    factor = algebra.sub(algebra.one(), algebra.basis(d % n))
    return algebra.mul(random_element(algebra, rng), factor)


def generator_sets(algebra, rng):
    one, zero = algebra.one(), algebra.zero()
    sets = [(), (zero,), (one,), (zero, one)]
    sets += [tuple(sample(algebra, rng) for _ in range(k)) for k in (1, 1, 1, 1, 1, 2, 2, 3)]
    return sets


def howell_rings(monkeypatch):
    """The ring of every Howell reduction from here on."""
    return count_calls(monkeypatch, linalg._howell)


@pytest.mark.parametrize("name", list(CORPUS))
def test_gcd_forms_match_the_howell_forms(name, monkeypatch):
    ring, n = CORPUS[name]
    algebra = GroupAlgebra(ring, cyclic(n))
    rng = random.Random(name)
    rings = howell_rings(monkeypatch)
    built = [GroupCode.from_generators(algebra, gens) for gens in generator_sets(algebra, rng)]
    if algebra.size <= ENUMERATED:
        built += enumerate_ideals(algebra)
    duals = [code_dual(fresh(X)) for X in built]
    involutes = [code_involute(fresh(X)) for X in built]
    sums = [code_sum(X, Y) for X, Y in zip(built, built[1:] + built[:1])]
    # the prime fields took no reduction; a non-field took at least one
    assert all(r.e > 1 for r in rings)
    assert bool(rings) == any(cr.e > 1 for cr in ring.components)
    with howell_only():
        gens = generator_sets(algebra, random.Random(name))
        oracle = [GroupCode.from_generators(algebra, g) for g in gens]
        if algebra.size <= ENUMERATED:
            oracle += enumerate_ideals(algebra)
        assert [X.components for X in built] == [X.components for X in oracle]
        assert [X.components for X in duals] == [code_dual(fresh(X)).components for X in built]
        assert [X.components for X in involutes] == [code_involute(fresh(X)).components for X in built]
        pairs = zip(built, built[1:] + built[:1])
        assert [X.components for X in sums] == [code_sum(X, Y).components for X, Y in pairs]
    if n > 1:
        assert {X.cardinality() for X in built} > {1, algebra.size}  # proper ideals too


# algebras whose ideals are listed as divisors and checked against the
# oracle's principal closures; p | n in the first four, and over
# Z12 = Z4 x F3 the Z4 part keeps the walk
DIVISOR_CORPUS = {
    "F2[C8]": (chain(2), 8),
    "F2[C12]": (chain(2), 12),
    "F3[C6]": (chain(3), 6),
    "F3[C9]": (chain(3), 9),
    "F5[C4]": (chain(5), 4),
    "F7[C3]": (chain(7), 3),
    "Z6[C4]": (ProductRing.from_modulus(6), 4),
    "Z10[C3]": (ProductRing.from_modulus(10), 3),
    "Z12[C3]": (ProductRing.from_modulus(12), 3),
}


def divisor_count(n, p):
    """(p^t + 1)^k for n = p^t m, p not dividing m, and k the number of
    p-cyclotomic cosets mod m: each of the k irreducible factors of x^m - 1
    takes an exponent 0..p^t."""
    q, m = 1, n
    while m % p == 0:
        q, m = q * p, m // p
    cosets = {frozenset(s * p**j % m for j in range(m)) for s in range(m)}
    return (q + 1) ** len(cosets)


@pytest.mark.parametrize("name", list(DIVISOR_CORPUS))
def test_gcd_path_ideals_are_the_divisors_of_x_n_minus_1(name, monkeypatch):
    """A gcd-path component lists its ideals with no closure, no sum and no
    Howell reduction, and the ideals are those of the principal-closure
    oracle run on the Howell engine alone."""
    ring, n = DIVISOR_CORPUS[name]
    algebra = GroupAlgebra(ring, cyclic(n))
    closures = []
    from_generators = GroupCode.from_generators.__func__

    def counted(cls, *args, **kwargs):
        closures.append(args[0])
        return from_generators(cls, *args, **kwargs)

    monkeypatch.setattr(GroupCode, "from_generators", classmethod(counted))
    sums, rings = count_calls(monkeypatch, code_sum), howell_rings(monkeypatch)
    listed = 0
    for component in algebra.components:
        (cr,) = component.ring.components
        if codes._gcd_path(component, cr):
            ideals = codes._chain_ideals(component)
            assert closures == sums == rings == []
            assert len({X.key for X in ideals}) == len(ideals) == divisor_count(n, cr.p)
            listed += 1
    assert listed == sum(cr.e == 1 for cr in ring.components) > 0
    ideals = enumerate_ideals(algebra, max_size=algebra.size)  # F3[C9] is past the default cap
    monkeypatch.undo()
    with howell_only():
        assert [X.key for X in ideals] == [X.key for X in principal_closure_ideals(algebra)]


def test_divisors_are_every_monic_divisor():
    """Against every monic polynomial of degree up to n, tried by division."""
    for p, top in ((2, 12), (3, 8), (5, 5), (7, 4)):
        for n in range(1, top + 1):
            x_n_minus_1 = [p - 1] + [0] * (n - 1) + [1]
            brute = [
                list(low) + [1]
                for d in range(n + 1)
                for low in itertools.product(range(p), repeat=d)
                if not _fp_divmod(x_n_minus_1, list(low) + [1], p)[1]
            ]
            assert sorted(polycodes.divisors(n, p)) == sorted(brute)


@pytest.mark.parametrize("p, n", [(65521, 2), (2**64 - 59, 1)], ids=["F65521[C2]", "Z_(2^64-59)[C1]"])
def test_large_prime_components_list_their_ideals_without_a_walk(p, n):
    """The walk would visit p^n elements (4.3e9 for F65521[C2]); the
    divisors of x^n - 1 are found at once."""
    algebra = GroupAlgebra(chain(p), cyclic(n))
    start = time.perf_counter()
    ideals = enumerate_ideals(algebra, max_size=p**n)
    assert time.perf_counter() - start < 5
    polys = sorted(X.components[0].poly for X in ideals)
    if n == 1:
        assert polys == [(1,), (p - 1, 1)]
    else:
        assert polys == [(1,), (1, 1), (p - 1, 0, 1), (p - 1, 1)]
    assert [X.cardinality() for X in ideals] == sorted(p ** (n + 1 - len(g)) for g in polys)


def relabelled_cyclic(n, rng):
    """C_n with g^k at index sigma(k), sigma a random permutation fixing 0:
    a group isomorphic to C_n whose table is not ``cyclic(n)``'s."""
    sigma = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[sigma[i]][sigma[j]] = sigma[(i + j) % n]
    return group_from_table(table), sigma


@pytest.mark.parametrize("ring", [chain(2), chain(3), ProductRing.from_modulus(6)], ids=repr)
def test_other_index_orders_take_the_howell_path_and_agree(ring, monkeypatch):
    """A relabelled C_15 and C_3 x C_5 (C_15 with g^k at (k mod 3, k mod 5))
    are cyclic, but not in index order: they are reduced by the Howell
    engine, and their codes are the C_15 codes with the coordinates moved."""
    rng = random.Random(repr(ring))
    base = GroupAlgebra(ring, cyclic(15))
    relabelled, sigma = relabelled_cyclic(15, rng)
    product = direct_product(cyclic(3), cyclic(5))
    crt = [(k % 3) * 5 + k % 5 for k in range(15)]
    for group, where in ((relabelled, sigma), (product, crt)):
        assert not group.cyclic_in_index_order
        algebra = GroupAlgebra(ring, group)

        def moved(a):
            out = [None] * 15
            for k, x in enumerate(a):
                out[where[k]] = x
            return tuple(out)

        def moved_forms(X):
            return tuple(
                pivot_reduce(RingMatrix(P.ring, tuple(map(moved, P.engine_rows)), 15), _engine_rows=True)
                for P in X.components
            )

        for gens in generator_sets(base, rng)[4:]:
            C = GroupCode.from_generators(base, gens)
            rings = howell_rings(monkeypatch)
            X = GroupCode.from_generators(algebra, [moved(a) for a in gens])
            assert rings  # the Howell path
            assert X.components == moved_forms(C)
            assert code_dual(X).components == moved_forms(code_dual(C))
            assert code_involute(X).components == moved_forms(code_involute(C))
            monkeypatch.undo()
        assert cyclic(15).cyclic_in_index_order


def test_a_span_that_is_no_ideal_falls_back_to_howell(monkeypatch):
    """``from_components`` takes any span.  Over F2[C4] the span of 1 + x^3,
    x and x^2 + x^3 has the pivots 0, 1, 2 and the row 0 of <1 + x>, but it
    is no ideal (x * x = x^2 is not in it): its forms go to the Howell
    engine, and give what the engine gives."""
    algebra = GroupAlgebra(chain(2), cyclic(4))
    (F2,) = algebra.ring.components
    one, zero = F2.one, F2.zero
    rows = [(one, zero, zero, one), (zero, one, zero, zero), (zero, zero, one, one)]
    P = pivot_reduce(RingMatrix.make(F2, rows))
    assert P.pivot_cols == (0, 1, 2)
    ideal = GroupCode.from_generators(algebra, [((one,), (one,), (zero,), (zero,))])  # <1 + x>
    assert ideal.components[0].engine_rows[0] == P.engine_rows[0] and ideal.components[0] != P
    assert P.poly is None
    X = GroupCode.from_components(algebra, [P])
    Y = GroupCode.from_generators(algebra, [((zero,), (zero,), (one,), (one,))])  # <x^2 + x^3>
    rings = howell_rings(monkeypatch)
    gcd_sum, gcd_involute = code_sum(X, Y), code_involute(X)
    assert len(rings) == 2
    with howell_only():
        assert gcd_sum.components == code_sum(fresh(X), Y).components
        assert gcd_involute.components == code_involute(fresh(X)).components
    with pytest.raises(AssertionError, match="dual of an ideal"):  # its dual is no ideal either
        code_dual(X)
    with howell_only(), pytest.raises(AssertionError, match="dual of an ideal"):
        code_dual(fresh(X))


def envelope_element(ring, n):
    """(x - 1) b over the ring, for b drawn from random.Random(1)."""
    (cr,) = ring.components
    rng = random.Random(1)
    b = [rng.randrange(cr.pe) for _ in range(n)]
    return tuple(((b[i - 1] - b[i]) % cr.pe,) for i in range(n))


@pytest.mark.parametrize("ring, n", [(chain(2**64 - 59), 256), (chain(2), 255)], ids=["Z_(2^64-59)[C256]", "F2[C255]"])
def test_envelope_closures_make_no_howell_reduction(ring, n, monkeypatch):
    algebra = GroupAlgebra(ring, cyclic(n))
    rings = howell_rings(monkeypatch)
    a = tuple((x,) for x in envelope_element(ring, n))
    C = GroupCode.from_generators(algebra, [a])
    assert rings == []
    (P,) = C.components
    g = P.poly  # x - 1 divides g
    assert g is not None and sum(g) % ring.components[0].p == 0 and C.contains(a)
    assert C.cardinality() == ring.size ** (n - len(g) + 1)


def test_lcp_on_a_non_lcp_pair_makes_no_howell_reduction(tmp_path, capsys, monkeypatch):
    """Over Z6[C60] = F2[C60] x F3[C60] the pair <1 + x>, <sum of G> is not
    LCP: x + 1 divides the sum of G, since 60 is even."""
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "ring": 6,
                "group": {"family": "cyclic", "n": 60},
                "codes": {"C": [[[0, 1], [1, 1]]], "D": [[[i, 1] for i in range(60)]]},
            }
        ),
        encoding="utf-8",
    )
    rings = howell_rings(monkeypatch)
    checks = count_calls(monkeypatch, lcp_check)
    assert cli.main(["--config", str(path), "--json", "lcp", "C", "D"]) == cli.EXIT_NOT_LCP
    report = json.loads(capsys.readouterr().out)
    assert report["component_verdicts"] == [False, False]
    assert len(checks) == 1 and rings == []


def test_lcp_takes_each_component_kernel_once(tmp_path, capsys, monkeypatch):
    """Over Z12[C7] = Z4[C7] x F3[C7] the pair C = <F, x - 1>, D = <h, sum
    of G>, with F = 3 + x + 2x^2 + x^3 (the lift of 1 + x + x^3 to Z4) and
    h = (x^7 - 1)/F, is LCP, and iota(C) != C on Z4 (iota(F) is the other
    cubic factor).  |C_Z4|^2 = 4^8 > |Z4|^7, so the permutation searches
    read D_Z4 and its image under g -> g^-1, which is C_Z4^perp, with no
    kernel of their own.  The one Z4 kernel is the one that checks
    iota(C)^perp = D.  F3 takes no kernel."""
    assert _fp_divmod([3, 0, 0, 0, 0, 0, 0, 1], [3, 1, 2, 1], 2)[1] == []  # F mod 2 divides x^7 - 1
    path = tmp_path / "pair.json"
    # Z12 coefficients: 9 = (1 mod 4, 0 mod 3) and 4 = (0 mod 4, 1 mod 3)
    path.write_text(
        json.dumps(
            {
                "ring": 12,
                "group": {"family": "cyclic", "n": 7},
                "codes": {
                    "C": [[[i, 9 * c % 12] for i, c in enumerate([3, 1, 2, 1])], [[0, 8], [1, 4]]],
                    "D": [[[i, 9 * c % 12] for i, c in enumerate([1, 1, 3, 2, 1])], [[i, 4] for i in range(7)]],
                },
            }
        ),
        encoding="utf-8",
    )
    kernels = count_calls(monkeypatch, linalg.kernel)
    assert cli.main(["--config", str(path), "--json", "lcp", "C", "D"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["equivalence"]["status"] == "found"
    assert [M.ring for M in kernels] == [ChainRing(2, 2)]


def test_fp_gcd_is_the_monic_common_factor():
    p = 7
    rng = random.Random(7)
    for _ in range(50):
        f, a, b = ([rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1] for _ in range(3))
        fa, fb = mul(f, a, p), mul(f, b, p)
        g = _fp_gcd(fa, fb, p)
        assert g[-1] == 1
        assert _fp_divmod(g, f, p)[1] == [] and _fp_divmod(fa, g, p)[1] == [] and _fp_divmod(fb, g, p)[1] == []
    assert _fp_gcd([], [], p) == [] and _fp_gcd([0, 3], [], p) == [0, 1]
    assert _fp_is_irreducible([1, 1, 0, 1], 2) and not _fp_is_irreducible([1, 0, 1], 2)


def mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_index_order_is_cached_on_the_group():
    G = cyclic(5)
    assert G.cyclic_in_index_order and "cyclic_in_index_order" in vars(G)
    assert not direct_product(cyclic(2), cyclic(3)).cyclic_in_index_order
    assert all(cyclic(n).cyclic_in_index_order for n in range(1, 9))


@pytest.mark.parametrize("p, n", [(2, 12), (3, 9), (5, 4)], ids=["F2[C12]", "F3[C9]", "F5[C4]"])
def test_the_generator_polynomial_is_invisible_to_equality(p, n, monkeypatch):
    """For every divisor g of x^n - 1, the form ``generator_form`` builds
    equals, and hashes like, the Howell form of <g>; only the first carries
    g.  The Howell-built codes, which carry no g, take the Howell engine for
    their sums, duals and involutes, and get the gcd-built results."""
    algebra = GroupAlgebra(chain(p), cyclic(n))
    (cr,) = algebra.ring.components
    gs = polycodes.divisors(n, p)
    built = [GroupCode.from_components(algebra, [polycodes.generator_form(cr, n, g)]) for g in gs]
    with howell_only():
        howell = []
        for g in gs:
            coefficients = [0] * n
            for i, c in enumerate(g):  # g mod x^n - 1
                coefficients[i % n] = (coefficients[i % n] + c) % p
            howell.append(GroupCode.from_generators(algebra, [tuple(((c,),) for c in coefficients)]))
    for g, X, Y in zip(gs, built, howell):
        (P,), (Q,) = X.components, Y.components
        assert P == Q and hash(P) == hash(Q) and X == Y
        assert P.poly == tuple(g) and Q.poly is None
    rings = howell_rings(monkeypatch)
    for X, Y, X2, Y2 in zip(built, howell, built[1:] + built[:1], howell[1:] + howell[:1]):
        assert code_sum(Y, Y2).components == code_sum(X, X2).components
        assert code_dual(Y).components == code_dual(X).components
        assert code_involute(Y).components == code_involute(X).components
    assert len(rings) == 3 * len(gs)  # one per operation on a Howell-built code


def test_benchmark_cyclic_prime_field_components_take_the_gcd_path(tmp_path, monkeypatch):
    """No seed-1 benchmark job over a cyclic group (``test_output_identity``'s
    runs) reduces a prime-field component in ``linalg._lower_block``, the
    step behind ``pivot_reduce``, ``kernel`` and ``intersect``.  A gcd-built
    form that lost its g would take that step and print the same report,
    so only this count sees it.  ``SpanSolver`` and ``DsmSplitter`` stay on
    Howell by design and are not counted."""
    sets = job_sets(load_perfbench("gen"), tmp_path)
    rings = count_calls(monkeypatch, linalg._lower_block)
    ran = 0
    for name in ("reduce:1", "enumerate:1", "search:1"):
        for key, label, argv, doc in sets[name]:
            if not (key.endswith(":json") and doc["group"].get("family") == "cyclic"):
                continue
            ran += any(cr.e == cr.r == 1 for cr in cli.parse_ring(doc["ring"]).components)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
            assert [R for R in rings if R.e == R.r == 1] == [], f"{key} ({label})"
    assert ran and rings  # prime-field components were met, and other rings reduced
