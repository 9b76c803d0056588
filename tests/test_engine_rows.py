"""Pivot forms keep their rows in the engine's form.

A form reduced from rows already in the engine's form (``_engine_rows``)
is compared with the form reduced from ring-element rows, and the
operations that pass engine rows on (kernel, intersection, two-sidedness,
the direct-sum split) with ``oracles.py``, on every scalar kit: ints,
table indices, coefficient tuples and the components of product rings.
Sorting ideals follows the ring-element rows, not the table indices, and a
non-LCP check builds no ring-element row at all.
"""

import random

import pytest

from lcpcodes.algebra import GroupAlgebra, component_rows
from lcpcodes.codes import (
    DsmSplitter,
    GroupCode,
    code_dual,
    code_intersect,
    code_sum,
    enumerate_ideals,
    lcp_check,
)
from lcpcodes.groups import cyclic, dihedral, symmetric
from lcpcodes.linalg import (
    RingMatrix,
    SpanSolver,
    _scalars,
    enumerate_codewords,
    intersect,
    kernel,
    membership,
    pivot_reduce,
)
from lcpcodes.rings import ChainRing, ProductRing

from oracles import (
    all_elements_two_sided,
    code_word_set,
    coefficient_split,
    identity_images,
    tuple_howell,
    tuple_intersect,
    tuple_kernel,
    tuple_membership,
    tuple_pivot_reduce,
    tuple_solve,
)
from test_fast_paths import ENGINE_RINGS, engine_cases, random_element, random_rows

F4, GR42, GR82 = ChainRing(2, 1, 2), ChainRing(2, 2, 2), ChainRing(2, 3, 2)


def engine_matrix(M):
    """M with its rows in the engine's form."""
    load = _scalars(M.ring).load
    return RingMatrix(M.ring, tuple(tuple(load(row)) for row in M.rows), M.ncols)


@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=repr)
def test_engine_rows_give_the_element_form(ring):
    """A form reduced from engine rows equals the form reduced from the
    ring-element rows in rows, key, cardinality and hash, and its rows are
    the rows the tuple engine gives; kernel, intersection, membership and
    the solver on engine rows give what the oracles give."""
    rng = random.Random(f"rows{ring!r}")
    for M in engine_cases(ring, rng):
        n, E = M.ncols, engine_matrix(M)
        P, Q = pivot_reduce(E, _engine_rows=True), pivot_reduce(M)
        assert P == Q == tuple_pivot_reduce(M)
        red, _, _ = tuple_howell(ring, M.rows, n, n)
        assert P.rows == Q.rows == tuple(map(tuple, red))
        assert P.key() == Q.key() and hash(P) == hash(Q)
        assert P.cardinality() == Q.cardinality()
        assert kernel(E, _engine_rows=True) == kernel(M) == tuple_kernel(M)
        other = pivot_reduce(RingMatrix(ring, random_rows(ring, rng, rng.randint(0, 4), n), n))
        assert intersect(P, other) == tuple_intersect(P, other)
        images = engine_matrix(identity_images(ring, len(M.rows)))
        solver = SpanSolver(E, images, _engine_rows=True)
        load = _scalars(ring).load
        for v in [*M.rows, *random_rows(ring, rng, 4, n)]:
            assert membership(tuple(load(v)), P, _engine_rows=True) == tuple_membership(v, P)
            assert solver.solve(v) == tuple_solve(M, v)


# the int kit over a product ring's components, the table kit, the tuple kit
ALGEBRAS = {
    "Z6[S3]": GroupAlgebra(ProductRing.from_modulus(6), symmetric(3)),
    "Z10[C2]": GroupAlgebra(ProductRing.from_modulus(10), cyclic(2)),
    "F4[C3]": GroupAlgebra(ProductRing([F4]), cyclic(3)),
    "GR(4,2)[C2]": GroupAlgebra(ProductRing([GR42]), cyclic(2)),
    "GR(8,2)[C2]": GroupAlgebra(ProductRing([GR82]), cyclic(2)),
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_two_sided_and_dsm_split_on_engine_rows(name):
    """Two-sidedness agrees with translation by every group element, on
    every ideal and on a span that is not one, and the direct-sum split of
    every LCP pair agrees with the coefficient split, and with the
    brute-force one while C has at most 256 words."""
    A = ALGEBRAS[name]
    rng = random.Random(name)
    ideals = enumerate_ideals(A, A.size)
    for X in ideals:
        assert X.is_two_sided() and all_elements_two_sided(X)
    n, rows = A.group.n, component_rows(A.basis(1))
    line = GroupCode.from_components(
        A, [pivot_reduce(RingMatrix(cr, (row,), n)) for cr, row in zip(A.ring.components, rows)]
    )
    assert not line.is_two_sided() and not all_elements_two_sided(line)
    pairs = [(C, D) for C in ideals for D in ideals if lcp_check(C, D).is_lcp]
    assert pairs
    for C, D in pairs:
        splitter = DsmSplitter(C, D)
        words = code_word_set(C) if C.cardinality() <= 256 else None
        for _ in range(3):
            z = random_element(A, rng)
            c, d = splitter.split(z)
            assert (c, d) == coefficient_split(C, D, z)
            if words is not None:
                assert [w for w in words if D.contains(A.sub(z, w))] == [c]


def element_order_key(X):
    """(|X|, each component's pivot columns, valuations and ring-element
    rows), the rows found from X's codewords by the tuple engine, so that
    no row passes through a kit's ``store``."""
    key = []
    for P in X.components:
        words = sorted(set(enumerate_codewords(P)))
        red, cols, vals = tuple_howell(P.ring, words, P.ncols, P.ncols)
        key.append((tuple(cols), tuple(vals), tuple(map(tuple, red))))
    return X.cardinality(), tuple(key)


@pytest.mark.parametrize("ring", [F4, GR42], ids=repr)
def test_ideals_sort_by_ring_element_rows(ring):
    """Over the table kit the index order of the engine rows is not the
    order of the coefficient tuples; ideals still sort by the latter."""
    ideals = enumerate_ideals(GroupAlgebra(ProductRing([ring]), cyclic(3)))
    assert ideals == sorted(ideals, key=element_order_key)
    def index_key(X):
        return X.cardinality(), [(P.pivot_cols, P.pivot_vals, P.engine_rows) for P in X.components]

    assert sorted(ideals, key=index_key) != ideals


def reduce_style_pair(A, rng):
    """Two proper ideals <c g^j (1 - h)> with h != 1, as the reduce benchmark
    draws them: both lie in the augmentation ideal, so they are not LCP."""
    n, ring = A.group.n, A.ring
    gens = []
    for h in (1, rng.randrange(2, n)):
        j = rng.randrange(n)
        a = [ring.zero] * n
        a[j] = ring.one
        a[A.group.table[j][h]] = ring.neg(ring.one)
        gens.append(tuple(a))
    return [GroupCode.from_generators(A, [a]) for a in gens]


@pytest.mark.parametrize(
    "ring, group",
    [
        (ProductRing.from_modulus(6), cyclic(12)),
        (ProductRing([GR42]), cyclic(6)),
        (ProductRing([GR82]), dihedral(4)),
        (ProductRing([ChainRing(3, 2)]), dihedral(5)),
    ],
    ids=["Z6[C12]", "GR(4,2)[C6]", "GR(8,2)[D4]", "Z9[D5]"],
)
def test_non_lcp_check_builds_no_element_rows(ring, group):
    """Closure, the LCP check, the sum, the dual and the intersection keep
    every form's rows in the engine's form: no ring-element row is built
    until a key or a report reads it."""
    A = GroupAlgebra(ring, group)
    C, D = reduce_style_pair(A, random.Random(1))
    assert not lcp_check(C, D).is_lcp
    made = [C, D, code_sum(C, D), code_dual(C), code_intersect(C, D)]
    forms = [P for X in made for P in X.components]
    assert all("rows" not in vars(P) for P in forms)
    assert C.key and all("rows" in vars(P) for P in C.components)
