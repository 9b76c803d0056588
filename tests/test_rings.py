"""Chain-ring and product-ring arithmetic, checked exhaustively at small sizes."""

import itertools
import random

import pytest

from lcpcodes import rings
from lcpcodes.errors import CapExceededError, NotInvertibleError, ValidationError
from lcpcodes.linalg import _scalars
from lcpcodes.rings import ChainRing, ProductRing, _fp_is_irreducible, default_modulus, factorize, is_prime

from oracles import trial_division_factorize, trial_division_irreducible, trial_division_is_prime

Z4 = ChainRing(2, 2, 1)
Z8 = ChainRing(2, 3, 1)
Z9 = ChainRing(3, 2, 1)
F4 = ChainRing(2, 1, 2)

# every (p, e, r) shape with ring size p^(e*r) <= 81
SMALL_SHAPES = [
    (p, e, r)
    for p in (2, 3, 5, 7)
    for e in range(1, 7)
    for r in range(1, 7)
    if p ** (e * r) <= 81
]


def test_small_shape_list_is_complete():
    assert (2, 6, 1) in SMALL_SHAPES and (3, 2, 2) in SMALL_SHAPES
    assert (2, 7, 1) not in SMALL_SHAPES
    assert len(SMALL_SHAPES) == 28


def test_add_examples():
    assert Z4.add((3,), (3,)) == (2,)
    a = F4.check((1, 1))
    assert F4.add(a, F4.zero) == a
    assert F4.add((0, 1), (1, 1)) == (1, 0)


def test_mul_examples():
    assert F4.mul((0, 1), (0, 1)) == (1, 1)  # x * x = x + 1
    assert Z9.mul((3,), (3,)) == (0,)  # gamma^2 = 0
    assert Z4.mul((2,), (3,)) == (2,)


@pytest.mark.parametrize("op, sign", [("add", "+"), ("sub", "-"), ("mul", "*")])
@pytest.mark.parametrize("ring, good, bad", [(Z4, (1,), (1, 0)), (F4, (1, 0), (1,))])
def test_chain_ring_operations_check_arity(op, sign, ring, good, bad):
    fn = getattr(ring, op)
    for a, b in ((good, bad), (bad, good)):
        with pytest.raises(ValidationError, match=rf"arity mismatch: .* \{sign} "):
            fn(a, b)


def test_format_element_of_a_residue_ring_and_a_mixed_product():
    assert Z9.format_element((7,)) == "7"
    R = ProductRing([F4, ChainRing(3)])  # F4 x F3: no integer lift
    assert R.format_element(((1, 1), (2,))) == "(x+1, 2)"
    assert R.format_element(((0, 1), (0,))) == "(x, 0)"
    assert R.format_element(R.zero) == "(0, 0)"


def test_unit_examples():
    assert not Z4.is_unit((2,))
    assert Z4.is_unit((3,))
    assert not Z4.is_unit(Z4.zero)


@pytest.mark.parametrize("p, e", [(2, 3), (3, 2), (3, 3)])
def test_inverse_over_z_pe_is_pow(p, e):
    ring, m = ChainRing(p, e), p**e
    units = [u for u in range(m) if u % p]
    assert [ring.inverse((u,)) for u in units] == [(pow(u, -1, m),) for u in units]


def test_inverse_over_a_64_bit_prime_squared_is_pow():
    p = 2**64 - 59
    ring, m = ChainRing(p, 2), p * p
    for u in (1, 2, 3, p - 1, p + 1, 2**64, m - 1, m // 3):
        assert ring.inverse((u,)) == (pow(u, -1, m),)


def test_inverse_examples():
    assert Z9.inverse((2,)) == (5,)
    assert F4.inverse(F4.one) == F4.one
    assert F4.inverse((0, 1)) == (1, 1)
    with pytest.raises(NotInvertibleError):
        Z4.inverse((2,))


def test_valuation_examples():
    assert Z8.valuation((4,)) == 2
    assert Z8.valuation((0,)) == 3
    assert F4.valuation((0, 1)) == 0


def test_default_modulus_degenerate_and_quadratics():
    assert default_modulus(2, 1, 2) == (1, 1, 1)  # x^2 + x + 1
    assert default_modulus(3, 4, 1) == (0, 1)
    assert default_modulus(7, 2, 1) == (0, 1)


def test_default_modulus_f9_matches_exhaustive_scan():
    # independent scan: a monic quadratic over F_3 is irreducible iff rootless
    expected = None
    for c0, c1 in itertools.product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 0, 1)
    assert default_modulus(3, 1, 2) == expected


@pytest.mark.parametrize("p, top", [(2, 6), (3, 5), (5, 4), (7, 3), (11, 3)])
def test_irreducibility_matches_trial_division(p, top):
    """Every monic polynomial over F_p of degree 0..top."""
    for r in range(top + 1):
        for tail in itertools.product(range(p), repeat=r):
            f = list(tail) + [1]
            assert _fp_is_irreducible(f, p) == trial_division_irreducible(f, p), f


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 4), (5, 3), (7, 2), (7, 3)])
def test_default_modulus_is_the_first_irreducible(p, r):
    """The search order, low coefficients varying slowest, is unchanged."""
    first = next(
        tuple(tail) + (1,)
        for tail in itertools.product(range(p), repeat=r)
        if trial_division_irreducible(list(tail) + [1], p)
    )
    assert default_modulus(p, 1, r) == first


@pytest.mark.parametrize("p", [7919, 9973])
@pytest.mark.parametrize("r", [2, 3])
def test_large_prime_extension_ring_builds(p, r):
    """The search and the irreducibility test cost log p, not p^(r-1)."""
    ring = ChainRing(p, 3, r)
    assert trial_division_irreducible(list(ring.modulus), p)
    gamma = ring.gamma_power(1)
    assert ring.mul(ring.one, gamma) == gamma


@pytest.mark.parametrize("r", [2, 3, 6])
def test_modulus_search_for_a_31_bit_prime(r):
    """The search walks its candidates lazily, so it never lists F_p."""
    p = 2**31 - 1
    ring = ChainRing(p, 1, r)
    assert ring.modulus[0] != 0 and ring.modulus[-1] == 1
    x = tuple(range(2, r + 2))
    assert ring.mul(x, ring.inverse(x)) == ring.one


def test_modulus_validation():
    with pytest.raises(ValidationError):
        ChainRing(2, 1, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValidationError):
        ChainRing(2, 1, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(ValidationError):
        ChainRing(4, 1, 1)  # p not prime
    with pytest.raises(ValidationError):
        default_modulus(2, 1, 7)  # r out of range
    with pytest.raises(ValidationError, match="p = 4 is not prime"):
        default_modulus(4, 1, 2)
    with pytest.raises(ValidationError, match="need e >= 1 and r >= 1"):
        default_modulus(2, 0, 2)


def test_element_check():
    with pytest.raises(ValidationError):
        Z4.check((1, 0))
    with pytest.raises(ValidationError):
        Z4.check((4,))
    with pytest.raises(ValidationError):
        F4.check((0,))
    with pytest.raises(ValidationError):
        Z4.check(5)
    with pytest.raises(ValidationError):
        F4.check(None)
    # check_row accepts and refuses exactly what check does, entry by entry
    for ring in (Z4, F4):
        for a in ((1,), (3,), [2], (True,), (1, 0), (4,), (-1,), ("a",), (1.0,), 5, None, (0, 1), (1, 4)):
            row = [ring.zero, a, ring.one]
            try:
                want = tuple(map(ring.check, row))
            except ValidationError:
                with pytest.raises(ValidationError):
                    ring.check_row(row)
            else:
                assert ring.check_row(row) == want
        assert ring.check_row([]) == ()


def _checked(fn, *args):
    try:
        return fn(*args)
    except (ValidationError, TypeError) as exc:
        return type(exc), str(exc)


def test_product_row_check_matches_entry_by_entry():
    """ProductRing.check_row gives what check gives entry by entry: the same
    tuple, or the same error for the first bad entry."""
    Z6 = ProductRing.from_modulus(6)
    F4F3 = ProductRing([F4, ChainRing(3)])
    entries = [
        ((1,), (2,)), ((1,),), ((2,), (0,)), ((0,), (3,)), ([1], (0,)), ((True,), (0,)),
        ((1.0,), (0,)), (("a",), (0,)), (5, (0,)), [(1,), (1,)], ((1, 0), (1,)), ((0, 1), (2,)),
        ((0, 2), (0,)), ((1,), (0,), (0,)), 5, None,
    ]
    for ring in (Z6, F4F3):
        for a in entries:
            for row in ([ring.zero, a, ring.one], [a, ((9,), (9,))], (a,)):
                assert _checked(ring.check_row, row) == _checked(lambda r: tuple(map(ring.check, r)), row)
        assert ring.check_row([]) == ()
        row = (ring.one, ring.zero)
        assert ring.check_row(row) == row


def _op_tables(ring):
    elems = ring.elements()
    add = {(a, b): ring.add(a, b) for a in elems for b in elems}
    mul = {(a, b): ring.mul(a, b) for a in elems for b in elems}
    return elems, add, mul


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=lambda s: f"GR({s[0]}^{s[1]},{s[2]})")
def test_ring_axioms_exhaustive(shape):
    ring = ChainRing(*shape)
    elems, add, mul = _op_tables(ring)
    gamma = ring.gamma_power(1)
    ge = gamma
    for _ in range(ring.e - 1):
        ge = mul[(ge, gamma)]
    assert ge == ring.zero  # gamma^e = 0
    for a in elems:
        assert add[(a, ring.zero)] == a
        assert mul[(a, ring.one)] == a
    for a in elems:
        for b in elems:
            assert add[(a, b)] == add[(b, a)]
            assert mul[(a, b)] == mul[(b, a)]
            for c in elems:
                assert add[(add[(a, b)], c)] == add[(a, add[(b, c)])]
                assert mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])]
                assert mul[(a, add[(b, c)])] == add[(mul[(a, b)], mul[(a, c)])]


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=lambda s: f"GR({s[0]}^{s[1]},{s[2]})")
def test_valuation_multiplicativity_and_inverses(shape):
    ring = ChainRing(*shape)
    elems = ring.elements()
    e = ring.e
    for a in elems:
        va = ring.valuation(a)
        assert 0 <= va <= e
        assert (va == e) == (a == ring.zero)
        if ring.is_unit(a):
            assert ring.mul(ring.inverse(a), a) == ring.one
        for b in elems:
            assert ring.valuation(ring.mul(a, b)) == min(va + ring.valuation(b), e)


def test_integer_arithmetic_matches_plain_ints():
    # r = 1 rings are Z_{p^e}: anchor ring ops to integer arithmetic mod p^e
    for ring in (Z4, Z8, Z9):
        m = ring.pe
        for a in range(m):
            for b in range(m):
                assert ring.add((a,), (b,)) == ((a + b) % m,)
                assert ring.mul((a,), (b,)) == ((a * b) % m,)


def test_product_projection_examples():
    R6 = ProductRing.from_modulus(6)
    assert R6.project(5) == ((1,), (2,))
    assert R6.project(0) == ((0,), (0,))
    assert R6.lift(((1,), (2,))) == 5
    assert R6.lift(((0,), (0,))) == 0
    R12 = ProductRing.from_modulus(12)
    assert R12.project(7) == ((3,), (1,))
    assert R12.lift(((3,), (1,))) == 7


def test_product_componentwise_examples():
    R6 = ProductRing.from_modulus(6)
    five = R6.project(5)
    assert R6.mul(five, five) == ((1,), (1,))  # 5*5 = 25 = 1 mod 6
    assert R6.add(((0,), (1,)), ((1,), (0,))) == ((1,), (1,))


def test_projection_is_ring_homomorphism():
    rng = random.Random(20240811)
    for m in (6, 12, 36):
        R = ProductRing.from_modulus(m)
        for _ in range(200):
            a, b = rng.randrange(m), rng.randrange(m)
            assert R.project((a + b) % m) == R.add(R.project(a), R.project(b))
            assert R.project((a * b) % m) == R.mul(R.project(a), R.project(b))
            assert R.lift(R.project(a)) == a


def test_projection_requires_coprime_integer_components():
    mixed = ProductRing([ChainRing(2, 1, 1), ChainRing(2, 1, 2)])
    with pytest.raises(ValidationError):
        mixed.project(3)
    with pytest.raises(ValidationError):
        mixed.lift(mixed.one)
    twice = ProductRing([ChainRing(2, 1, 1), ChainRing(2, 2, 1)])
    with pytest.raises(ValidationError):
        twice.project(1)


def test_product_arity_checks():
    R6 = ProductRing.from_modulus(6)
    with pytest.raises(ValidationError):
        R6.check(((1,),))
    for a, b in ((((1,), (1,)), ((1,),)), (((1,),), ((1,), (1,)))):
        with pytest.raises(ValidationError, match="arity mismatch in"):
            R6.add(a, b)
    with pytest.raises(ValidationError):
        ProductRing([])
    with pytest.raises(ValidationError, match="is not a chain ring"):
        ProductRing([ChainRing(2), (2, 1, 1)])


def test_factorize():
    assert factorize(36) == [(2, 2), (3, 2)]
    assert factorize(7) == [(7, 1)]
    with pytest.raises(ValidationError):
        factorize(1)


def test_factorize_step_cap(monkeypatch):
    """Pollard-Brent stops at its step cap with a cap error naming the cap
    and the modulus.  (The 64-bit moduli of the test above factor under the
    default cap.)"""
    m = 1048571 * 1048573
    assert factorize(m) == [(1048571, 1), (1048573, 1)]
    monkeypatch.setattr(rings, "_FACTOR_STEPS", 256)
    with pytest.raises(CapExceededError, match=f"factoring modulus {m} needs more than the cap of 256 "):
        factorize(m)


# Carmichael numbers, and strong pseudoprimes to the bases 2 (2047), 2..7
# (3215031751) and 2..23 (3825123056546413051)
PSEUDOPRIMES = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161, 2047, 3215031751, 3825123056546413051,
]


def test_is_prime_and_factorize_match_trial_division():
    for n in range(-2, 10**5):
        assert is_prime(n) == trial_division_is_prime(n), n
    for n in range(2, 10**5):
        assert factorize(n) == trial_division_factorize(n), n
    for n in PSEUDOPRIMES:
        assert not is_prime(n) and not trial_division_is_prime(n), n
        assert factorize(n) == trial_division_factorize(n), n


def test_is_prime_and_factorize_at_64_bits():
    for p in (2**31 - 1, 2**61 - 1, 2**64 - 59, 1000000007):
        assert is_prime(p) and factorize(p) == [(p, 1)]
    assert not is_prime(2**64 - 1) and not is_prime((2**31 - 1) * (2**31 - 19))
    assert factorize((2**31 - 1) * (2**31 - 19)) == [(2**31 - 19, 1), (2**31 - 1, 1)]
    assert factorize(2**10 * 3 * (2**31 - 1) ** 2) == [(2, 10), (3, 1), (2**31 - 1, 2)]
    assert factorize((2**32 - 5) ** 2) == [(2**32 - 5, 2)]
    assert factorize(1000003**3 * 999983) == [(999983, 1), (1000003, 3)]
    assert factorize(2**64 - 1) == [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)]
    # the least strong pseudoprime to every base 2..37 is past the exact range
    with pytest.raises(ValidationError):
        is_prime(399165290221 * 798330580441)


# Galois rings with r > 1: F4, GR(4,2), F9, GR(9,2), GR(4,4)
EXTENSIONS = [ChainRing(2, 1, 2), ChainRing(2, 2, 2), ChainRing(3, 1, 2), ChainRing(3, 2, 2), ChainRing(2, 2, 4)]


@pytest.mark.parametrize("ring", EXTENSIONS, ids=repr)
def test_index_encoding_carries_the_gamma_operations(ring):
    """The q-adic digit index round-trips, and valuation, division by
    gamma^t and scaling by gamma^k are v_q, // q^t and * q^k mod |R| on it."""
    p, q, size = ring.p, ring.q, ring.size
    assert ring.index(ring.zero) == 0 and ring.index(ring.one) == 1
    indices = {ring.index(a): a for a in ring.elements()}
    assert sorted(indices) == list(range(size))
    for k, a in indices.items():
        # base-p digit i of q-adic digit d is the base-p digit d of c_i
        decoded = tuple(
            sum(k // q**d // p**i % p * p**d for d in range(ring.e)) for i in range(ring.r)
        )
        assert decoded == a
        v = 0
        while v < ring.e and k % q ** (v + 1) == 0:
            v += 1
        assert v == ring.valuation(a)
        for t in range(ring.e + 1):
            assert ring.index(ring.div_gamma(a, t)) == k // q**t
            assert ring.index(ring.mul(ring.gamma_power(t), a)) == k * q**t % size


# (p, e, r) of the Galois rings whose Howell engine runs on table-indexed
# ints: F4, F8, F16, F9 and GR(4,2)
TABLED = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (2, 2, 2)]


@pytest.mark.parametrize("per", TABLED, ids=lambda per: repr(ChainRing(*per)))
def test_index_tables_match_ring_arithmetic(per, monkeypatch):
    """Table products, differences and inverses equal the ring's on every
    pair.  Constructing the ring computes no product; the engine's first
    use of the ring builds the tables, one ``ChainRing.mul`` per unordered
    pair, and later uses share them."""
    calls = []
    real = ChainRing.mul
    monkeypatch.setattr(ChainRing, "mul", lambda self, a, b: calls.append(1) or real(self, a, b))
    ring = ChainRing(*per)
    assert calls == []
    tables = _scalars(ring).tables
    size, els = ring.size, tables.elements
    assert len(calls) == size * (size + 1) // 2
    assert _scalars(ring).tables is tables and len(calls) == size * (size + 1) // 2
    assert [ring.index(a) for a in els] == list(range(size))
    assert all(tables.code[a] == k for k, a in enumerate(els))
    for i, j in itertools.product(range(size), repeat=2):
        a, b = els[i], els[j]
        assert els[tables.mul[i * size + j]] == real(ring, a, b)
        assert els[tables.sub[i * size + j]] == ring.sub(a, b)
    for k, a in enumerate(els):
        if ring.is_unit(a):
            assert els[tables.inv[k]] == ring.inverse(a)
        else:
            assert tables.inv[k] is None
