"""Pivot forms, membership, kernels and enumeration against brute force."""

import itertools
import random

import pytest

from lcpcodes.errors import CapExceededError, ValidationError
from lcpcodes.linalg import (
    RingMatrix,
    SpanSolver,
    enumerate_codewords,
    kernel,
    membership,
    pivot_reduce,
)
from lcpcodes.rings import ChainRing

from oracles import brute_kernel, brute_span, identity_images

Z4 = ChainRing(2, 2, 1)
F2 = ChainRing(2, 1, 1)
F4 = ChainRing(2, 1, 2)
Z9 = ChainRing(3, 2, 1)


def M(ring, int_rows, ncols=None):
    rows = tuple(tuple((x,) for x in row) for row in int_rows)
    if ncols is None:
        ncols = len(int_rows[0]) if int_rows else 0
    return RingMatrix(ring, rows, ncols)


def test_pivot_reduce_z4_example():
    P = pivot_reduce(M(Z4, [[2, 2], [0, 2]]))
    assert P.pivot_cols == (0, 1)
    assert P.pivot_vals == (1, 1)
    # canonical rows: the entry above the second pivot reduces to 0 mod <2>
    assert P.rows == (((2,), (0,)), ((0,), (2,)))
    assert brute_span(Z4, P.rows, 2) == brute_span(Z4, M(Z4, [[2, 2], [0, 2]]).rows, 2)
    assert P.cardinality() == 4 == len(brute_span(Z4, P.rows, 2))


def test_pivot_reduce_field_row():
    P = pivot_reduce(M(F2, [[1, 1, 1]]))
    assert P.pivot_cols == (0,) and P.pivot_vals == (0,)
    assert P.rows == (((1,), (1,), (1,)),)


def test_pivot_reduce_zero_matrix():
    P = pivot_reduce(M(Z4, [[0, 0], [0, 0]]))
    assert P.rows == () and P.pivot_cols == () and P.pivot_vals == ()
    assert P.cardinality() == 1


def test_pivot_reduce_saturation_row():
    # <(2, 1)> over Z4 contains 2*(2,1) = (0,2); the form must expose it
    P = pivot_reduce(M(Z4, [[2, 1]]))
    assert P.pivot_cols == (0, 1)
    assert P.pivot_vals == (1, 1)
    assert P.cardinality() == 4
    assert set(enumerate_codewords(P)) == brute_span(Z4, (((2,), (1,)),), 2)


def test_membership_examples():
    P = pivot_reduce(M(Z4, [[2, 2], [0, 2]]))
    assert membership(((0,), (0,)), P)
    assert membership(((2,), (0,)), P)
    assert not membership(((1,), (0,)), P)
    with pytest.raises(ValidationError):
        membership(((0,),), P)
    # entries are checked as ring elements: lists pass, as ChainRing.check
    # allows, and anything it refuses is refused here too
    assert membership([[2], [0]], P)
    for bad in ((4,), (-1,), (1, 0), ("a",), (1.0,), {1: 1}, 2):
        with pytest.raises(ValidationError):
            membership((bad, (0,)), P)


def test_kernel_examples():
    K = kernel(M(F2, [[1, 1, 1]]))
    assert K.cardinality() == 4
    assert membership(((1,), (1,), (0,)), K)
    assert membership(((0,), (1,), (1,)), K)

    K2 = kernel(M(Z4, [[2]]))
    assert K2.cardinality() == 2
    assert set(enumerate_codewords(K2)) == {((0,),), ((2,),)}

    ident = M(Z4, [[1, 0], [0, 1]])
    assert kernel(ident).cardinality() == 1


def test_cardinality_examples():
    assert pivot_reduce(M(Z4, [], 3)).cardinality() == 1
    assert pivot_reduce(M(Z4, [[2, 2], [0, 2]])).cardinality() == 4
    assert pivot_reduce(M(F2, [[1, 1, 0]], 3)).cardinality() == 2


def test_enumerate_examples():
    even = pivot_reduce(M(F2, [[1, 1, 0], [0, 1, 1]]))
    words = {tuple(x[0] for x in w) for w in enumerate_codewords(even)}
    assert words == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    empty = pivot_reduce(M(F2, [], 2))
    assert list(enumerate_codewords(empty)) == [((0,), (0,))]

    P = pivot_reduce(M(Z4, [[2, 2], [0, 2]]))
    words = list(enumerate_codewords(P))
    assert len(words) == len(set(words)) == 4
    assert all(x[0] in (0, 2) for w in words for x in w)


def test_enumeration_cap():
    P = pivot_reduce(M(Z4, [[1, 0], [0, 1]]))
    with pytest.raises(CapExceededError):
        list(enumerate_codewords(P, cap=4))


def _random_matrix(ring, rng):
    m = rng.randint(1, 4)
    n = rng.randint(1, 5)
    rows = tuple(
        tuple(
            tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(n)
        )
        for _ in range(m)
    )
    return RingMatrix(ring, rows, n)


def _corpus(seed, count=100):
    rng = random.Random(seed)
    rings = [Z4, F4, Z9]
    for k in range(count):
        yield _random_matrix(rings[k % 3], rng), rng


@pytest.mark.parametrize("seed", [101])
def test_corpus_span_membership_kernel_cardinality(seed):
    for mat, rng in _corpus(seed):
        ring, n = mat.ring, mat.ncols
        span = brute_span(ring, mat.rows, n)
        P = pivot_reduce(mat)
        assert brute_span(ring, P.rows, n) == span
        assert P.cardinality() == len(span)
        enumerated = list(enumerate_codewords(P))
        assert len(enumerated) == len(span)
        assert set(enumerated) == span
        for v in span:
            assert membership(v, P)
        for _ in range(30):
            v = tuple(
                tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(n)
            )
            assert membership(v, P) == (v in span)
        K = kernel(mat)
        assert len(span) * K.cardinality() == ring.size**n
        if ring.size**n <= 10000:
            assert set(enumerate_codewords(K)) == brute_kernel(ring, mat.rows, n)
        else:
            # at least: every kernel generator annihilates every row
            for gen in K.rows:
                for row in mat.rows:
                    acc = ring.zero
                    for a, b in zip(row, gen):
                        acc = ring.add(acc, ring.mul(a, b))
                    assert acc == ring.zero
        # double annihilator recovers a span containing every original row
        KK = kernel(RingMatrix(ring, K.rows, n))
        for row in mat.rows:
            assert membership(row, KK)


def test_canonical_form_is_generator_independent():
    rng = random.Random(202)
    for _ in range(30):
        ring = [Z4, F4, Z9][rng.randrange(3)]
        mat = _random_matrix(ring, rng)
        span = brute_span(ring, mat.rows, mat.ncols)
        P1 = pivot_reduce(mat)
        all_rows = RingMatrix(ring, tuple(sorted(span)), mat.ncols)
        P2 = pivot_reduce(all_rows)
        assert P1.rows == P2.rows
        assert P1.pivot_cols == P2.pivot_cols
        assert P1.pivot_vals == P2.pivot_vals


def test_span_solver_round_trip():
    rng = random.Random(303)
    for _ in range(25):
        ring = [Z4, F4, Z9][rng.randrange(3)]
        mat = _random_matrix(ring, rng)
        span = brute_span(ring, mat.rows, mat.ncols)
        solver = SpanSolver(mat, identity_images(ring, len(mat.rows)))
        for v in itertools.islice(sorted(span), 12):
            coeffs = solver.solve(v)
            assert coeffs is not None
            acc = [ring.zero] * mat.ncols
            for c, row in zip(coeffs, mat.rows):
                for i, x in enumerate(row):
                    acc[i] = ring.add(acc[i], ring.mul(c, x))
            assert tuple(acc) == v
        for _ in range(10):
            v = tuple(
                tuple(rng.randrange(ring.pe) for _ in range(ring.r))
                for _ in range(mat.ncols)
            )
            if v not in span:
                assert solver.solve(v) is None


def test_span_solver_maps_to_images():
    """With images that vanish on every relation among the rows, solve(v)
    is sum_i c_i * images_i for the coefficients an identity-image solver
    finds, whichever combination it picks.  Images of the form X * T for a
    fixed matrix T have that property: a relation sum a_i M_i = 0 gives
    sum a_i (M_i T) = 0."""
    rng = random.Random(404)
    for _ in range(25):
        ring = [Z4, F4, Z9][rng.randrange(3)]
        mat = _random_matrix(ring, rng)
        width = rng.randint(1, 4)
        T = [[tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(width)]
             for _ in range(mat.ncols)]

        def times_t(v):
            acc = [ring.zero] * width
            for x, trow in zip(v, T):
                for j, y in enumerate(trow):
                    acc[j] = ring.add(acc[j], ring.mul(x, y))
            return tuple(acc)

        images = RingMatrix(ring, tuple(map(times_t, mat.rows)), width)
        solver = SpanSolver(mat, images)
        coefficients = SpanSolver(mat, identity_images(ring, len(mat.rows)))
        assert solver.span_size() == pivot_reduce(mat).cardinality()
        for v in itertools.islice(sorted(brute_span(ring, mat.rows, mat.ncols)), 12):
            acc = [ring.zero] * width
            for c, image in zip(coefficients.solve(v), images.rows):
                for j, y in enumerate(image):
                    acc[j] = ring.add(acc[j], ring.mul(c, y))
            assert solver.solve(v) == tuple(acc) == times_t(v)
        outside = tuple(ring.one for _ in range(mat.ncols))
        assert (solver.solve(outside) is None) == (coefficients.solve(outside) is None)


def test_span_solver_needs_one_image_per_row():
    mat = M(Z4, [[1, 2], [0, 2]])
    with pytest.raises(ValidationError):
        SpanSolver(mat, identity_images(Z4, 1))
    with pytest.raises(ValidationError):
        SpanSolver(mat, identity_images(Z9, 2))


def test_span_solver_checks_the_target_length():
    solver = SpanSolver(M(Z4, [[1, 2, 3]]), identity_images(Z4, 1))
    assert solver.solve(((2,), (0,), (2,))) == ((2,),)
    for target in (((1,), (2,)), ((1,), (2,), (3,), (0,))):
        with pytest.raises(ValidationError, match="target length mismatch"):
            solver.solve(target)


BAD_MATRICES = {
    "entry-outside-F2": RingMatrix(F2, (((1,), (3,)),), 2),
    "entry-outside-Z4": RingMatrix(Z4, (((1,), (0,)), ((0,), (4,))), 2),
    "entry-of-arity-1-in-F4": RingMatrix(F4, (((1, 0), (1,)),), 2),
    "entry-not-a-tuple": RingMatrix(Z9, ((1, 2),), 2),
    "ragged": RingMatrix(Z4, (((1,), (0,)), ((1,),)), 2),
    "long-row": RingMatrix(Z9, (((1,), (0,), (2,)),), 2),
    "no-ncols": RingMatrix(Z4, (), None),
    "negative-ncols": RingMatrix(Z4, (), -1),
}


def test_ring_matrix_validation():
    """``pivot_reduce``, ``kernel`` and ``SpanSolver`` check the matrices
    they load: ``ncols`` a count, each entry an element of the ring, each
    row ``ncols`` long.  An unchecked (1, 3) over F2 would reduce to a form
    unequal to that of its residue (1, 1)."""
    for name, bad in BAD_MATRICES.items():
        ring, m = bad.ring, len(bad.rows)
        zeros = RingMatrix(ring, ((ring.zero,),) * m, 1)
        for make in (
            pivot_reduce,
            kernel,
            lambda X: SpanSolver(X, identity_images(ring, m)),
            lambda X: SpanSolver(zeros, X),
        ):
            with pytest.raises(ValidationError):
                make(bad)
                pytest.fail(f"{name} was loaded")
    assert pivot_reduce(M(F2, [[1, 1]])).cardinality() == 2
