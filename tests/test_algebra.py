"""Group algebra arithmetic and the component-splitting isomorphism."""

import random

import pytest

from lcpcodes.algebra import GroupAlgebra, component_rows, from_component_rows
from lcpcodes.errors import ValidationError
from lcpcodes.groups import cyclic, symmetric
from lcpcodes.rings import ChainRing, ProductRing

from oracles import naive_product

F2 = ProductRing([ChainRing(2, 1, 1)])
A_F2C3 = GroupAlgebra(F2, cyclic(3))
A_Z6C2 = GroupAlgebra(ProductRing.from_modulus(6), cyclic(2))
A_Z6C3 = GroupAlgebra(ProductRing.from_modulus(6), cyclic(3))
A_Z12C2 = GroupAlgebra(ProductRing.from_modulus(12), cyclic(2))
A_F4F3C2 = GroupAlgebra(ProductRing([ChainRing(2, 1, 2), ChainRing(3, 1, 1)]), cyclic(2))


def ints(algebra, *values):
    """Element of an integer-like algebra from integer coefficients."""
    return tuple(algebra.ring.project(v) for v in values)


def random_element(algebra, rng):
    coeffs = []
    for _ in range(algebra.group.n):
        coeffs.append(
            tuple(
                tuple(rng.randrange(cr.pe) for _ in range(cr.r))
                for cr in algebra.ring.components
            )
        )
    return tuple(coeffs)


@pytest.mark.parametrize("algebra", [A_Z6C3, A_F4F3C2], ids=["Z6[C3]", "(F4xF3)[C2]"])
def test_component_rows_invert_and_match_the_crt_maps(algebra):
    """Row j of an element holds the coefficients' parts in component j; the
    two layout helpers are inverse, and agree with crt_project and crt_lift
    on every element."""
    s, seen = algebra.ring.s, 0
    for a in algebra.elements():
        rows = component_rows(a)
        assert rows == tuple(tuple(c[j] for c in a) for j in range(s))
        assert from_component_rows(rows) == a
        assert component_rows(from_component_rows(rows)) == rows
        parts = tuple(tuple((x,) for x in row) for row in rows)
        assert algebra.crt_project(a) == parts
        assert algebra.crt_lift(parts) == a
        seen += 1
    assert s == 2 and seen == algebra.size


def test_add_and_scale_examples():
    a = ints(A_Z6C2, 3, 4)
    b = ints(A_Z6C2, 3, 2)
    assert A_Z6C2.add(a, b) == A_Z6C2.zero()
    assert A_Z6C2.scale(A_Z6C2.ring.project(0), a) == A_Z6C2.zero()
    assert A_Z6C2.scale(A_Z6C2.ring.project(5), ints(A_Z6C2, 1, 1)) == ints(A_Z6C2, 5, 5)


def test_mul_examples_against_forward_convolution():
    a = ints(A_F2C3, 1, 1, 0)
    b = ints(A_F2C3, 1, 1, 1)
    assert A_F2C3.mul(a, b) == A_F2C3.zero()
    assert A_F2C3.mul(a, b) == naive_product(F2, A_F2C3.group, a, b)

    a6 = ints(A_Z6C3, 1, 1, 0)
    b6 = ints(A_Z6C3, 1, 1, 1)
    prod = A_Z6C3.mul(a6, b6)
    assert prod == ints(A_Z6C3, 2, 2, 2)
    assert prod == naive_product(A_Z6C3.ring, A_Z6C3.group, a6, b6)


def test_mul_identity_law():
    rng = random.Random(7)
    for _ in range(25):
        a = random_element(A_Z6C3, rng)
        assert A_Z6C3.mul(A_Z6C3.one(), a) == a
        assert A_Z6C3.mul(a, A_Z6C3.one()) == a


def test_mul_matches_oracle_on_random_pairs():
    rng = random.Random(11)
    for algebra in (A_Z6C3, A_Z12C2):
        for _ in range(50):
            a = random_element(algebra, rng)
            b = random_element(algebra, rng)
            assert algebra.mul(a, b) == naive_product(algebra.ring, algebra.group, a, b)


def test_crt_project_example():
    a = ints(A_Z6C2, 3, 4)
    p2, p3 = A_Z6C2.crt_project(a)
    assert p2 == (((1,),), ((0,),))  # the element "1" over F2[C2]
    assert p3 == (((0,),), ((1,),))  # the element "g" over F3[C2]
    assert A_Z6C2.crt_project(A_Z6C2.zero()) == (
        A_Z6C2.components[0].zero(),
        A_Z6C2.components[1].zero(),
    )
    assert A_Z6C2.crt_lift((p2, p3)) == a


def test_crt_lift_validation():
    a = ints(A_Z6C2, 3, 4)
    parts = A_Z6C2.crt_project(a)
    with pytest.raises(ValidationError):
        A_Z6C2.crt_lift(parts[:1])
    with pytest.raises(ValidationError):
        A_Z6C2.crt_lift((parts[0][:1], parts[1]))


A_F2C2 = GroupAlgebra(F2, cyclic(2))


@pytest.mark.parametrize(
    "algebra, parts",
    [
        (A_F2C2, [(1, 2)]),
        (A_F2C2, [5]),
        (A_F2C2, [(((1,), (0,)), ((0,),))]),  # a coefficient of two components
        (A_Z6C2, [(1, 2), (1, 2)]),
        (A_Z6C2, [(((1,),), ((0,),)), (1, 2)]),
    ],
    ids=["Z2-ints", "Z2-int-part", "Z2-two-parts", "Z6-ints", "Z6-second-ints"],
)
def test_crt_lift_refuses_parts_of_bare_ints(algebra, parts):
    """A part must list n coefficients of its component's algebra, each a
    1-tuple holding a ring element; bare ints are a ValidationError, not a
    TypeError."""
    with pytest.raises(ValidationError):
        algebra.crt_lift(parts)


def test_crt_lift_checks_every_component():
    """Parts holding coefficients outside their component ring are refused
    over a product ring as over a chain ring: 7 and 9 are not residues of
    Z2 and Z3."""
    with pytest.raises(ValidationError):
        A_Z6C2.crt_lift(((((7,),), ((0,),)), (((9,),), ((1,),))))
    with pytest.raises(ValidationError):
        A_F2C3.crt_lift(((((7,),), ((0,),), ((0,),)),))


def test_split_is_ring_homomorphism():
    rng = random.Random(13)
    for algebra in (A_Z6C3, A_Z12C2):
        comps = algebra.components
        for _ in range(60):
            a = random_element(algebra, rng)
            b = random_element(algebra, rng)
            pa, pb = algebra.crt_project(a), algebra.crt_project(b)
            sum_parts = algebra.crt_project(algebra.add(a, b))
            prod_parts = algebra.crt_project(algebra.mul(a, b))
            for j, comp in enumerate(comps):
                assert sum_parts[j] == comp.add(pa[j], pb[j])
                assert prod_parts[j] == comp.mul(pa[j], pb[j])
            assert algebra.crt_lift(pa) == a


def test_associativity_distributivity_exhaustive_f2c2():
    A = GroupAlgebra(F2, cyclic(2))
    elems = [e for e in A.elements()]
    assert len(elems) == 4
    for a in elems:
        for b in elems:
            for c in elems:
                assert A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c))
                assert A.mul(a, A.add(b, c)) == A.add(A.mul(a, b), A.mul(a, c))


def test_associativity_distributivity_random_z6c3():
    rng = random.Random(17)
    for _ in range(100):
        a, b, c = (random_element(A_Z6C3, rng) for _ in range(3))
        assert A_Z6C3.mul(A_Z6C3.mul(a, b), c) == A_Z6C3.mul(a, A_Z6C3.mul(b, c))
        assert A_Z6C3.mul(a, A_Z6C3.add(b, c)) == A_Z6C3.add(
            A_Z6C3.mul(a, b), A_Z6C3.mul(a, c)
        )


def test_commutativity_exhaustive_when_abelian():
    elems = list(A_F2C3.elements())
    assert len(elems) == 8
    for a in elems:
        for b in elems:
            assert A_F2C3.mul(a, b) == A_F2C3.mul(b, a)


def test_noncommutative_witness_over_s3():
    A = GroupAlgebra(F2, symmetric(3))
    found = None
    for i in range(A.group.n):
        for j in range(A.group.n):
            a, b = A.basis(i), A.basis(j)
            if A.mul(a, b) != A.mul(b, a):
                found = (i, j)
                break
        if found:
            break
    assert found is not None


def test_algebra_size_and_equality():
    assert A_F2C3.size == 8
    assert A_Z6C3.size == 216
    assert A_F2C3 == GroupAlgebra(F2, cyclic(3))
    assert A_F2C3 != A_Z6C3


def test_format_element():
    a = ints(A_Z6C2, 3, 4)
    assert A_Z6C2.format_element(a) == "3 + 4*g"
    assert A_Z6C2.format_element(A_Z6C2.zero()) == "0"
    assert A_Z6C2.format_element(A_Z6C2.one()) == "1"


F4C2 = GroupAlgebra(ProductRing([ChainRing(2, 1, 2)]), cyclic(2))


@pytest.mark.parametrize(
    "algebra, element, error, message",
    [
        (A_Z6C2, (((1,), (0,)),), ValidationError, "element has 1 coefficients, group order is 2"),
        (A_Z6C2, (((1,), (0,)),) * 3, ValidationError, "element has 3 coefficients, group order is 2"),
        (A_Z6C2, (((1,),), ((0,), (1,))), ValidationError, "element ((1,),) has arity 1, ring has 2 components"),
        (A_Z6C2, (((1, 0), (0,)), ((0,), (1,))), ValidationError, "element (1, 0) has arity 2, ring F2 needs 1"),
        (F4C2, (((0, 1),), ((1,),)), ValidationError, "element (1,) has arity 1, ring F4 needs 2"),
        (A_Z6C2, (((2,), (0,)), ((0,), (1,))), ValidationError, "coefficient 2 of (2,) outside [0, 2)"),
        # the first bad coefficient in group order, not in component order
        (A_Z6C2, (((0,), (3,)), ((2,), (0,))), ValidationError, "coefficient 3 of (3,) outside [0, 3)"),
        (A_Z6C2, (((1.0,), (0,)), ((0,), (1,))), ValidationError, "coefficient 1.0 of (1.0,) outside [0, 2)"),
        (F4C2, (((0, "x"),), ((1, 1),)), ValidationError, "coefficient 'x' of (0, 'x') outside [0, 2)"),
        (F4C2, ((5,), ((1, 1),)), ValidationError, "element 5 of F4 must be a coefficient tuple"),
        (A_Z6C2, (None, ((0,), (1,))), ValidationError, "element None of F2 x F3 must be a tuple of component parts"),
        (A_Z6C2, (((1,), (0,)), 7), ValidationError, "element 7 of F2 x F3 must be a tuple of component parts"),
        (A_Z6C2, None, ValidationError, "element None must be a tuple of coefficients"),
    ],
)
def test_check_messages(algebra, element, error, message):
    """Every refusal of check names the first bad coefficient, in group
    order, with the message the entry-by-entry check gives."""
    with pytest.raises(error) as info:
        algebra.check(element)
    assert str(info.value) == message


def test_check_returns_canonical_tuples():
    """Lists become tuples; bools pass as ints, as ChainRing.check lets them."""
    assert A_Z6C2.check([[[1], [2]], ((0,), (1,))]) == (((1,), (2,)), ((0,), (1,)))
    assert A_Z6C2.check((((True,), (0,)), ((0,), (2,)))) == (((True,), (0,)), ((0,), (2,)))
    a = random_element(A_Z12C2, random.Random(5))
    assert A_Z12C2.check(a) == a
