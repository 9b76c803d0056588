"""Fast paths against the constructions they replaced.

The ideal closure from conjugates, two-sidedness by group generators, the
Zassenhaus intersection, the Howell kernel and the Howell engine on ints
(plain, or table-indexed for small Galois rings) are each compared with the
old construction kept in ``oracles.py`` or with brute force: on the ideal
corpora of small algebras, on non-abelian groups, on random matrices over
rings up to 64-bit primes, and at lengths 40-70 where brute force cannot
reach.
"""

import itertools
import random

import pytest

from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_dual, code_intersect, code_sum, enumerate_ideals
from lcpcodes.errors import ValidationError
from lcpcodes.groups import cyclic, dihedral, direct_product, symmetric
from lcpcodes.linalg import (
    RingMatrix,
    SpanSolver,
    _IntScalars,
    _lower_block,
    _scalars,
    _TableScalars,
    _TupleScalars,
    enumerate_codewords,
    intersect,
    kernel,
    membership,
    pivot_reduce,
)
from lcpcodes.rings import ChainRing, ProductRing

from oracles import (
    all_elements_two_sided,
    brute_kernel,
    brute_span,
    code_generators,
    code_word_set,
    identity_images,
    is_ideal_subset,
    subgroup_closure,
    translate_closure_key,
    tuple_intersect,
    tuple_kernel,
    tuple_membership,
    tuple_pivot_reduce,
    tuple_solve,
)

F2, F3, F4, F5 = ChainRing(2), ChainRing(3), ChainRing(2, 1, 2), ChainRing(5)
Z4, Z8, Z9 = ChainRing(2, 2), ChainRing(2, 3), ChainRing(3, 2)
GR42 = ChainRing(2, 2, 2)
Z27, Z2_40, F_M61 = ChainRing(3, 3), ChainRing(2, 40), ChainRing(2**61 - 1)
F9, GR82, GR92, GR44 = ChainRing(3, 1, 2), ChainRing(2, 3, 2), ChainRing(3, 2, 2), ChainRing(2, 2, 4)
F343, GR83 = ChainRing(7, 1, 3), ChainRing(2, 3, 3)
# every scalar shape the Howell engine meets: Z_{p^e} and F_p of all sizes
# (the Z6 and Z10 components among them); Galois rings with r > 1 up to the
# table bound of 16 elements (F4, F9, GR(4,2) at exactly 16) and beyond it
# (GR(8,2), GR(9,2), GR(4,4), F343, GR(8,3))
ENGINE_RINGS = list(
    dict.fromkeys(
        [Z4, Z8, Z9, Z27, F5, Z2_40, F_M61, GR42, F4, F9, GR82, GR92, GR44, F343, GR83]
        + list(ProductRing.from_modulus(6).components)
        + list(ProductRing.from_modulus(10).components)
    )
)

CORPORA = {
    "F2[C3]": (ProductRing([F2]), cyclic(3)),
    "F2[S3]": (ProductRing([F2]), symmetric(3)),
    "F3[S3]": (ProductRing([F3]), symmetric(3)),
    "Z4[C3]": (ProductRing([Z4]), cyclic(3)),
    "Z4[C4]": (ProductRing([Z4]), cyclic(4)),
    "Z6[C2]": (ProductRing.from_modulus(6), cyclic(2)),
    "Z6[C3]": (ProductRing.from_modulus(6), cyclic(3)),
    "Z8[C2]": (ProductRing([Z8]), cyclic(2)),
    "Z9[C2]": (ProductRing([Z9]), cyclic(2)),
    "GR(4,2)[C2]": (ProductRing([GR42]), cyclic(2)),
}

NONABELIAN = {
    "S3": symmetric(3),
    "D4": dihedral(4),
    "D5": dihedral(5),
    "S4": symmetric(4),
    "C2xS3": direct_product(cyclic(2), symmetric(3)),
}

BRUTE_LIMIT = 1 << 12


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    ring, group = CORPORA[request.param]
    algebra = GroupAlgebra(ring, group)
    return algebra, enumerate_ideals(algebra)


def random_element(algebra, rng, support=None):
    n = algebra.group.n
    coeffs = algebra.ring.elements()
    idx = range(n) if support is None else rng.sample(range(n), support)
    out = list(algebra.zero())
    for i in idx:
        out[i] = rng.choice(coeffs)
    return tuple(out)


def brute_meet(C, D):
    """C meet D from the codewords of the smaller code, filtered by the other."""
    if C.cardinality() > D.cardinality():
        C, D = D, C
    words = code_word_set(C)
    if D.cardinality() <= BRUTE_LIMIT:
        return words & code_word_set(D)
    return {w for w in words if D.contains(w)}


# ---------------------------------------------------------------------------
# ideal closure and two-sidedness


def test_from_generators_matches_translate_closure_on_corpora(corpus):
    algebra, ideals = corpus
    rng = random.Random(algebra.size)
    elements = list(algebra.elements())
    for a in rng.sample(elements, min(len(elements), 150)):
        code = GroupCode.from_generators(algebra, (a,))
        assert code.key == translate_closure_key(algebra, (a,))
    for _ in range(20):
        gens = tuple(rng.choice(elements) for _ in range(rng.randint(2, 3)))
        assert GroupCode.from_generators(algebra, gens).key == translate_closure_key(algebra, gens)
    for I in ideals:
        assert GroupCode.from_generators(algebra, code_generators(I)).key == I.key


@pytest.mark.parametrize("name", sorted(NONABELIAN))
@pytest.mark.parametrize("ring", [F2, F3, Z4], ids=repr)
def test_from_generators_matches_translate_closure_nonabelian(name, ring):
    algebra = GroupAlgebra(ProductRing([ring]), NONABELIAN[name])
    rng = random.Random(f"{name}{ring!r}")
    for _ in range(6):
        gens = tuple(
            random_element(algebra, rng, support=rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))
        )
        code = GroupCode.from_generators(algebra, gens)
        assert code.key == translate_closure_key(algebra, gens)
        assert code.is_two_sided() and all_elements_two_sided(code)


def test_is_two_sided_matches_all_elements_check(corpus):
    algebra, ideals = corpus
    for I in ideals:
        assert I.is_two_sided() and all_elements_two_sided(I)
    rng = random.Random(algebra.size + 1)
    n = algebra.group.n
    verdicts = set()
    for _ in range(60):
        forms = []
        for cr in algebra.ring.components:
            rows = [
                tuple(rng.choice(cr.elements()) for _ in range(n))
                for _ in range(rng.randint(0, 2))
            ]
            forms.append(pivot_reduce(RingMatrix(cr, tuple(rows), n)))
        span = GroupCode.from_components(algebra, forms)
        verdict = span.is_two_sided()
        assert verdict == all_elements_two_sided(span)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(NONABELIAN))
def test_is_two_sided_on_left_ideals(name):
    """Left ideals R[G] a: two-sided exactly when the old check says so."""
    G = NONABELIAN[name]
    algebra = GroupAlgebra(ProductRing([F3]), G)
    cr, n, t, inv = F3, G.n, G.table, G.inv
    rng = random.Random(name)
    verdicts = set()
    for _ in range(12):
        a = random_element(algebra, rng, support=rng.randint(1, 3))
        aj = tuple(x[0] for x in a)
        rows = tuple(tuple(aj[t[inv[g]][m]] for m in range(n)) for g in range(n))
        left = GroupCode.from_components(algebra, (pivot_reduce(RingMatrix(cr, rows, n)),))
        verdict = left.is_two_sided()
        assert verdict == all_elements_two_sided(left)
        verdicts.add(verdict)
    assert False in verdicts


def test_left_ideal_of_f2s3_is_not_two_sided():
    algebra = GroupAlgebra(ProductRing([F2]), symmetric(3))
    G, n = algebra.group, algebra.group.n
    one, zero = F2.one, F2.zero
    s = 1  # the transposition 021
    a = tuple(one if i in (0, s) else zero for i in range(n))  # 1 + s
    rows = tuple(tuple(a[G.table[G.inv[g]][m]] for m in range(n)) for g in range(n))
    left = GroupCode.from_components(algebra, (pivot_reduce(RingMatrix(F2, rows, n)),))
    assert left.cardinality() == 8
    assert left.is_two_sided() is False
    assert all_elements_two_sided(left) is False
    assert not is_ideal_subset(algebra, code_word_set(left))
    # its two-sided closure is strictly larger
    assert GroupCode.from_generators(algebra, code_generators(left)).cardinality() > 8


# ---------------------------------------------------------------------------
# intersection


def test_code_intersect_matches_brute_force_on_corpora(corpus):
    algebra, ideals = corpus
    for C, D in itertools.combinations_with_replacement(ideals, 2):
        inter = code_intersect(C, D)
        assert code_word_set(inter) == code_word_set(C) & code_word_set(D)
        assert inter == code_intersect(D, C)


@pytest.mark.parametrize("name", sorted(NONABELIAN))
@pytest.mark.parametrize("ring", [F2, F3, Z4], ids=repr)
def test_code_intersect_matches_brute_force_nonabelian(name, ring):
    """Ideals inside R[G] e_N, e_N the sum over a normal subgroup N with
    |R|^[G : N] <= 729, stay small enough to enumerate; each is also met
    with an ideal from a random sparse generator."""
    G = NONABELIAN[name]
    algebra = GroupAlgebra(ProductRing([ring]), G)
    rng = random.Random(f"meet{name}{ring!r}")
    normals = {
        frozenset(subgroup_closure(G, {G.table[G.table[x][g]][G.inv[x]] for x in range(G.n)}))
        for g in range(G.n)
    }
    normals = sorted((N for N in normals if ring.size ** (G.n // len(N)) <= 729), key=sorted)
    assert normals
    small, big = [], []
    for N in normals:
        e_N = tuple(ring.one if i in N else ring.zero for i in range(G.n))
        e_N = tuple((x,) for x in e_N)
        for _ in range(2):
            a = random_element(algebra, rng, support=rng.randint(1, 2))
            small.append(GroupCode.from_generators(algebra, (algebra.mul(a, e_N),)))
    for _ in range(2):
        big.append(GroupCode.from_generators(algebra, (random_element(algebra, rng, support=2),)))
    for C, D in itertools.chain(
        itertools.combinations(small, 2), itertools.product(small, big)
    ):
        inter = code_intersect(C, D)
        assert code_word_set(inter) == brute_meet(C, D)
        assert inter.is_two_sided()


@pytest.mark.parametrize(
    "ring, group",
    [
        (ProductRing([Z4]), cyclic(45)),
        (ProductRing.from_modulus(6), cyclic(56)),
        (ProductRing([Z9]), cyclic(40)),
        (ProductRing([F4]), cyclic(63)),
        (ProductRing([F2]), dihedral(35)),
        (ProductRing.from_modulus(6), dihedral(21)),
    ],
    ids=lambda x: repr(x) if isinstance(x, ProductRing) else f"order{x.n}",
)
def test_sum_and_intersection_sizes_at_large_length(ring, group):
    """|C + D| |C meet D| = |C| |D|, and (C meet D)^perp = C^perp + D^perp,
    at lengths 40-70 where no codeword set can be listed."""
    algebra = GroupAlgebra(ring, group)
    rng = random.Random(f"{ring!r}{group.n}")
    for _ in range(3):
        c = random_element(algebra, rng, support=3)
        C = GroupCode.from_generators(algebra, (algebra.mul(random_element(algebra, rng, support=2), c),))
        D = GroupCode.from_generators(algebra, (algebra.mul(random_element(algebra, rng, support=2), c),))
        S, M = code_sum(C, D), code_intersect(C, D)
        assert S.cardinality() * M.cardinality() == C.cardinality() * D.cardinality()
        assert code_dual(M) == code_sum(code_dual(C), code_dual(D))
        for P, Q, X in zip(C.components, D.components, M.components):
            for row in X.rows:
                assert membership(row, P) and membership(row, Q)


def test_linalg_intersect_matches_brute_span():
    rng = random.Random(404)
    for _ in range(60):
        ring = rng.choice([Z4, F4, Z9, Z8])
        n = rng.randint(1, 3)

        def rand_rows():
            return tuple(
                tuple(tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(n))
                for _ in range(rng.randint(0, 3))
            )

        A, B = rand_rows(), rand_rows()
        P, Q = pivot_reduce(RingMatrix(ring, A, n)), pivot_reduce(RingMatrix(ring, B, n))
        got = set(enumerate_codewords(intersect(P, Q)))
        assert got == brute_span(ring, A, n) & brute_span(ring, B, n)


def test_linalg_intersect_rejects_mismatched_modules():
    P = pivot_reduce(RingMatrix(Z4, (), 2))
    with pytest.raises(ValidationError):
        intersect(P, pivot_reduce(RingMatrix(Z4, (), 3)))
    with pytest.raises(ValidationError):
        intersect(P, pivot_reduce(RingMatrix(Z9, (), 2)))


# ---------------------------------------------------------------------------
# kernel edge cases and the lower block


def _ints(ring, rows):
    return tuple(tuple((x,) for x in row) for row in rows)


def test_kernel_of_no_rows_and_zero_rows_is_everything():
    for M in (RingMatrix(Z8, (), 3), RingMatrix(Z8, _ints(Z8, [[0, 0, 0], [0, 0, 0]]), 3)):
        K = kernel(M)
        assert K.cardinality() == 8**3
        assert K.pivot_cols == (0, 1, 2) and K.pivot_vals == (0, 0, 0)


def test_kernel_of_full_rank_is_zero():
    for ring, rows in (
        (Z8, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        (Z8, [[3, 2, 0], [0, 5, 4], [0, 0, 7]]),
        (Z9, [[1, 2], [4, 1]]),
    ):
        K = kernel(RingMatrix(ring, _ints(ring, rows), len(rows[0])))
        assert K.rows == () and K.cardinality() == 1


def test_kernel_z8_saturation():
    K = kernel(RingMatrix(Z8, _ints(Z8, [[4]]), 1))
    assert set(enumerate_codewords(K)) == {((x,),) for x in (0, 2, 4, 6)}
    # 2 x + 4 y = 0: the pivot 2 needs its saturation row for the Howell property
    rows = [[2, 4]]
    K = kernel(RingMatrix(Z8, _ints(Z8, rows), 2))
    assert set(enumerate_codewords(K)) == brute_kernel(Z8, _ints(Z8, rows), 2)
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[rng.choice((0, 2, 4, 6, 1, 3)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        K = kernel(RingMatrix(Z8, _ints(Z8, rows), n))
        assert set(enumerate_codewords(K)) == brute_kernel(Z8, _ints(Z8, rows), n)


def random_entry(ring, rng):
    """An element of random valuation: gamma^k times a random element."""
    x = tuple(rng.randrange(ring.pe) for _ in range(ring.r))
    return ring.mul(ring.gamma_power(rng.randint(0, ring.e)), x)


def random_rows(ring, rng, nrows, width):
    return tuple(tuple(random_entry(ring, rng) for _ in range(width)) for _ in range(nrows))


@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=repr)
def test_lower_block_is_already_canonical(ring):
    """The rows a Howell form keeps right of the split need no second
    reduction: the lower block equals the pivot form of its own rows."""
    rng = random.Random(f"lower{ring!r}")
    for _ in range(120):
        width = rng.randint(1, 7)
        split = rng.randint(0, width)
        rows = random_rows(ring, rng, rng.randint(0, 6), width)
        low = _lower_block(ring, list(map(_scalars(ring).load, rows)), split, width)
        assert low == pivot_reduce(RingMatrix(ring, low.rows, width - split))


def engine_cases(ring, rng):
    """Random matrices with the edge cases first: no rows, zero rows, the
    identity, a full-rank triangle with unit diagonal, and rows repeated."""
    zero, one = ring.zero, ring.one
    n = 4
    yield RingMatrix(ring, (), n)
    yield RingMatrix(ring, ((zero,) * n,) * 3, n)
    yield RingMatrix(ring, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)
    tri = random_rows(ring, rng, n, n)
    yield RingMatrix(
        ring, tuple(tuple(one if j == i else tri[i][j] if j > i else zero for j in range(n)) for i in range(n)), n
    )
    rows = random_rows(ring, rng, 2, n)
    yield RingMatrix(ring, rows + rows, n)
    for _ in range(40):
        width = rng.randint(1, 7)
        yield RingMatrix(ring, random_rows(ring, rng, rng.randint(0, 7), width), width)


@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=repr)
def test_engine_picks_its_scalars_from_the_ring_shape(ring):
    """Plain ints for r = 1, table-indexed ints for r > 1 up to 16
    elements, coefficient tuples beyond."""
    small = (F4, GR42, F9)  # r > 1, at most 16 elements
    expected = _IntScalars if ring.r == 1 else _TableScalars if ring in small else _TupleScalars
    assert type(_scalars(ring)) is expected


@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=repr)
def test_engine_matches_tuple_engine(ring):
    """pivot_reduce, kernel, intersect, membership and SpanSolver.solve give
    what the engine with tuple scalars throughout gave, and the solver's
    reduction gives the size of the span that pivot_reduce gives."""
    rng = random.Random(f"engine{ring!r}")
    for M in engine_cases(ring, rng):
        n = M.ncols
        P = pivot_reduce(M)
        assert P == tuple_pivot_reduce(M)
        assert kernel(M) == tuple_kernel(M)
        other = RingMatrix(ring, random_rows(ring, rng, rng.randint(0, 4), n), n)
        Q = pivot_reduce(other)
        assert intersect(P, Q) == tuple_intersect(P, Q)
        solver = SpanSolver(M, identity_images(ring, len(M.rows)))
        assert solver.span_size() == P.cardinality()
        member = (ring.zero,) * n
        for row in M.rows:
            c = random_entry(ring, rng)
            member = tuple(ring.add(a, ring.mul(c, x)) for a, x in zip(member, row))
        assert membership(member, P) and solver.solve(member) is not None
        for v in [member, *M.rows, *random_rows(ring, rng, 4, n)]:
            assert membership(v, P) == tuple_membership(v, P)
            assert solver.solve(v) == tuple_solve(M, v)
