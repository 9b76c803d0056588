"""Group-code construction, lattice operations, duality, LCP, DSM."""

import random

import pytest

from lcpcodes import linalg
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import (
    DsmSplitter,
    GroupCode,
    code_crt_combine,
    code_dual,
    code_involute,
    code_intersect,
    code_sum,
    enumerate_ideals,
    lcp_check,
    min_distance,
    weight_enumerator,
)
from lcpcodes.equivalence import check_dual_equivalence
from lcpcodes.errors import CapExceededError, NotLcpError, ValidationError
from lcpcodes.groups import cyclic, symmetric
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import all_ideal_subsets, brute_dual, brute_ideal, code_word_set

F2 = ProductRing([ChainRing(2, 1, 1)])
A_F2C2 = GroupAlgebra(F2, cyclic(2))
A_F2C3 = GroupAlgebra(F2, cyclic(3))
A_Z6C2 = GroupAlgebra(ProductRing.from_modulus(6), cyclic(2))
A_Z6C3 = GroupAlgebra(ProductRing.from_modulus(6), cyclic(3))


def ints(algebra, *values):
    return tuple(algebra.ring.project(v) for v in values)


def flat(word):
    """Single-component codeword as a tuple of bare integers (r = 1 only)."""
    return tuple(x[0][0] for x in word)


@pytest.fixture(scope="module")
def running_pair():
    C = GroupCode.from_generators(A_F2C3, [ints(A_F2C3, 1, 1, 0)])
    D = GroupCode.from_generators(A_F2C3, [ints(A_F2C3, 1, 1, 1)])
    return C, D


def test_from_generators_examples(running_pair):
    C, D = running_pair
    assert C.cardinality() == 4
    assert {flat(w) for w in C.codewords()} == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
    assert code_word_set(C) == brute_ideal(A_F2C3, C.generators)

    full = GroupCode.from_generators(A_F2C3, [A_F2C3.one()])
    assert full.cardinality() == full.algebra.size == 8

    zero = GroupCode.from_generators(A_F2C3, [])
    assert zero.is_zero and zero.cardinality() == 1


def test_code_is_two_sided(running_pair):
    C, D = running_pair
    assert C.is_two_sided() and D.is_two_sided()


def test_code_sum_examples(running_pair):
    C, D = running_pair
    total = code_sum(C, D)
    assert total.cardinality() == total.algebra.size
    assert code_word_set(total) == {
        A_F2C3.add(c, d) for c in code_word_set(C) for d in code_word_set(D)
    }
    zero = GroupCode.from_generators(A_F2C3, [])
    assert code_sum(C, zero) == C
    assert code_sum(C, C) == C


def test_code_intersect_examples(running_pair):
    C, D = running_pair
    inter = code_intersect(C, D)
    assert inter.is_zero
    assert code_word_set(inter) == code_word_set(C) & code_word_set(D)
    assert code_intersect(C, C) == C
    full = GroupCode.from_generators(A_F2C3, [A_F2C3.one()])
    assert code_intersect(C, full) == C


def test_code_dual_examples(running_pair):
    C, D = running_pair
    Dd = code_dual(D)
    assert Dd.cardinality() == 4
    assert code_word_set(Dd) == brute_dual(A_F2C3, code_word_set(D))
    # the even-weight code
    assert {flat(w) for w in Dd.codewords()} == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
    full = GroupCode.from_generators(A_F2C3, [A_F2C3.one()])
    zero = GroupCode.from_generators(A_F2C3, [])
    assert code_dual(full) == zero
    assert code_dual(zero) == full


def test_dual_involution_and_size(running_pair):
    C, D = running_pair
    for X in (C, D):
        assert code_dual(code_dual(X)) == X
        assert X.cardinality() * code_dual(X).cardinality() == A_F2C3.size


def _z6c2_pair():
    comp_f2, comp_f3 = A_Z6C2.components
    full_f2 = GroupCode.from_generators(comp_f2, [comp_f2.one()])
    zero_f2 = GroupCode.from_generators(comp_f2, [])
    one_plus_g = tuple(((1,),) for _ in range(2))
    one_minus_g = (((1,),), ((2,),))
    c_f3 = GroupCode.from_generators(comp_f3, [one_plus_g])
    d_f3 = GroupCode.from_generators(comp_f3, [one_minus_g])
    C = code_crt_combine([full_f2, c_f3], algebra=A_Z6C2)
    D = code_crt_combine([zero_f2, d_f3], algebra=A_Z6C2)
    return C, D


def test_crt_combine_cardinality_example():
    C, _ = _z6c2_pair()
    assert C.cardinality() == 12
    # brute force through the component sets
    comp_sets = [code_word_set(p) for p in C.crt_project()]
    lifted = {
        C.algebra.crt_lift(pair)
        for pair in __import__("itertools").product(*comp_sets)
    }
    assert code_word_set(C) == lifted

    zero = GroupCode.from_generators(A_Z6C2, [])
    assert zero.cardinality() == 1
    full = GroupCode.from_generators(A_Z6C2, [A_Z6C2.one()])
    assert full.cardinality() == 36


def test_crt_project_combine_identity(running_pair):
    C, _ = running_pair
    for X in (C, _z6c2_pair()[0], GroupCode.from_generators(A_Z6C2, [])):
        parts = X.crt_project()
        back = code_crt_combine(parts, algebra=X.algebra)
        assert back == X
        for comp_algebra, part in zip(X.algebra.components, parts):
            assert part.algebra == comp_algebra


def test_crt_combine_validation():
    comp_f2, comp_f3 = A_Z6C2.components
    full_f2 = GroupCode.from_generators(comp_f2, [comp_f2.one()])
    with pytest.raises(ValidationError):
        code_crt_combine([full_f2], algebra=A_Z6C2)
    other = GroupCode.from_generators(A_F2C3, [A_F2C3.one()])
    with pytest.raises(ValidationError):
        code_crt_combine([full_f2, other], algebra=A_Z6C2)
    full_f3 = GroupCode.from_generators(comp_f3, [comp_f3.one()])
    for parts in ([], [full_f3, full_f2], [full_f2, full_f3, full_f3]):
        with pytest.raises(ValidationError):
            code_crt_combine(parts, algebra=A_Z6C2)
    combined = code_crt_combine([full_f2, full_f3], algebra=A_Z6C2)
    assert combined.cardinality() == combined.algebra.size


def test_lcp_check_examples(running_pair):
    C, D = running_pair
    rep = lcp_check(C, D)
    assert rep.is_lcp and rep.intersection_size == 1 and rep.sum_is_full
    assert rep.component_verdicts == (True,)

    rep_cc = lcp_check(C, C)
    assert not rep_cc.is_lcp and rep_cc.intersection_size == 4

    full = GroupCode.from_generators(A_F2C3, [A_F2C3.one()])
    zero = GroupCode.from_generators(A_F2C3, [])
    assert lcp_check(full, zero).is_lcp


def test_lcp_check_one_component_meets_trivially():
    """Z6[C3] = F2[C3] x F3[C3].  Over F2, <sum g> and <1 + g> meet in 0 and
    fill F2[C3]; over F3, <sum g> = <(1 - g)^2> lies inside <1 - g>, so the
    pair meets in 3 words there and its sum is not full."""
    C = GroupCode.from_generators(A_Z6C3, [ints(A_Z6C3, 1, 5, 3)])  # (sum g, 1 - g)
    D = GroupCode.from_generators(A_Z6C3, [ints(A_Z6C3, 1, 1, 4)])  # (1 + g, sum g)
    rep = lcp_check(C, D)
    assert rep.intersection_size == 3
    assert rep.component_verdicts == (True, False)
    assert not rep.is_lcp and not rep.sum_is_full
    assert [X.cardinality() for X in code_intersect(C, D).components] == [1, 3]
    assert len(code_word_set(C) & code_word_set(D)) == 3
    with pytest.raises(NotLcpError):
        DsmSplitter(C, D)


def test_lcp_check_decides_without_walking(monkeypatch):
    """lcp_check reads code sizes only.  On Z6[C35], where 35 is a unit of
    both fields, <g - 1> and <sum g> are complementary; |C| = 6^34 is far
    above the enumeration cap, and no word is walked or listed."""
    A = GroupAlgebra(ProductRing.from_modulus(6), cyclic(35))
    C = GroupCode.from_generators(A, [ints(A, 5, 1, *[0] * 33)])
    D = GroupCode.from_generators(A, [ints(A, *[1] * 35)])
    walks = count_calls(monkeypatch, linalg._nonzero_flags)
    listings = count_calls(monkeypatch, linalg.enumerate_codewords)
    rep = lcp_check(C, D)
    assert C.cardinality() == 6**34 and D.cardinality() == 6
    assert rep.is_lcp and rep.component_verdicts == (True, True)
    assert rep.intersection_size == 1 and rep.sum_is_full
    assert walks == listings == []


def test_from_generators_checks_its_generators():
    """The public constructor refuses a coefficient outside its ring (2 over
    F2), a coefficient that is not a tuple (None) and an element of the
    wrong length, each with a ValidationError."""
    zero = A_F2C3.ring.zero
    with pytest.raises(ValidationError, match="coefficient 2 of"):
        GroupCode.from_generators(A_F2C3, [(((2,),), zero, zero)])
    with pytest.raises(ValidationError, match="element None of F2 must be a tuple"):
        GroupCode.from_generators(A_F2C3, [(None, zero, zero)])
    with pytest.raises(ValidationError, match="group order is 3"):
        GroupCode.from_generators(A_F2C3, [A_F2C2.one()])


def test_from_components_checks_its_forms():
    """The forms must be one per component, each over that component's ring
    and of length |G|: Z6[C3] needs two, the first over F2 and of length 3."""
    forms = GroupCode.from_generators(A_Z6C3, [A_Z6C3.one()]).components
    assert GroupCode.from_components(A_Z6C3, forms).cardinality() == A_Z6C3.size
    with pytest.raises(ValidationError, match="need 2 component forms, got 1"):
        GroupCode.from_components(A_Z6C3, forms[:1])
    with pytest.raises(ValidationError, match="does not match the algebra"):
        GroupCode.from_components(A_Z6C3, forms[::-1])  # rings swapped
    short = GroupCode.from_generators(A_Z6C2, [A_Z6C2.one()]).components
    with pytest.raises(ValidationError, match="does not match the algebra"):
        GroupCode.from_components(A_Z6C3, short)  # length 2


def test_ideal_enumeration_checks_no_element_again(monkeypatch):
    """The elements ``enumerate_ideals`` closes come canonical from
    ``algebra.elements()``, so no closure checks them again."""
    checked = []
    real = GroupAlgebra.check
    monkeypatch.setattr(GroupAlgebra, "check", lambda self, a: checked.append(a) or real(self, a))
    ideals = enumerate_ideals(GroupAlgebra(F2, cyclic(3)))
    assert len(ideals) == 4 and checked == []


def test_lcp_check_mismatched_algebras(running_pair):
    C, _ = running_pair
    other = GroupCode.from_generators(A_F2C2, [A_F2C2.one()])
    with pytest.raises(ValidationError):
        lcp_check(C, other)


def test_min_distance_examples(running_pair):
    C, D = running_pair
    assert min_distance(C) == 2
    assert weight_enumerator(C) == (1, 0, 3, 0)
    assert min_distance(D) == 3
    full = GroupCode.from_generators(A_F2C2, [A_F2C2.one()])
    assert min_distance(full) == 1
    zero = GroupCode.from_generators(A_F2C3, [])
    assert zero.is_zero
    assert min_distance(zero) == 4  # n + 1 convention for the zero code
    with pytest.raises(CapExceededError):
        min_distance(GroupCode.from_generators(A_F2C3, [A_F2C3.one()]), max_enum=4)


def test_security_parameter_examples(running_pair):
    C, D = running_pair
    assert check_dual_equivalence(C, D).d_c == 2
    full = GroupCode.from_generators(A_F2C3, [A_F2C3.one()])
    zero = GroupCode.from_generators(A_F2C3, [])
    assert check_dual_equivalence(full, zero).d_c == 1
    with pytest.raises(NotLcpError):
        check_dual_equivalence(C, C)


def test_security_parameter_z6c2_pair():
    C, D = _z6c2_pair()
    rep = lcp_check(C, D)
    assert rep.is_lcp
    got = check_dual_equivalence(C, D).d_c
    # brute-force both distances from the enumerated codewords
    zero = C.algebra.ring.zero

    def brute_d(code):
        weights = [
            sum(1 for x in w if x != zero)
            for w in code_word_set(code)
            if any(x != zero for x in w)
        ]
        return min(weights) if weights else C.algebra.group.n + 1

    dc = brute_d(C)
    dd = brute_d(code_dual(D))
    assert dc == dd == got


def test_dsm_split_examples(running_pair):
    C, D = running_pair
    z = ints(A_F2C3, 1, 0, 0)
    c, d = DsmSplitter(C, D).split(z)
    assert flat(c) == (0, 1, 1) and flat(d) == (1, 1, 1)
    # unique by brute force over C x D
    combos = [
        (cw, dw)
        for cw in code_word_set(C)
        for dw in code_word_set(D)
        if A_F2C3.add(cw, dw) == z
    ]
    assert combos == [(c, d)]

    z0 = A_F2C3.zero()
    assert DsmSplitter(C, D).split(z0) == (z0, z0)
    member = ints(A_F2C3, 0, 1, 1)
    assert DsmSplitter(C, D).split(member) == (member, z0)


def test_dsm_split_requires_lcp(running_pair):
    C, _ = running_pair
    with pytest.raises(NotLcpError):
        DsmSplitter(C, C).split(A_F2C3.zero())


def test_dsm_splitter_covers_whole_algebra(running_pair):
    C, D = running_pair
    split = DsmSplitter(C, D)
    for z in A_F2C3.elements():
        c, d = split.split(z)
        assert A_F2C3.add(c, d) == z
        assert C.contains(c) and D.contains(d)


def test_enumerate_ideals_examples():
    ideals_c2 = enumerate_ideals(A_F2C2)
    assert [I.cardinality() for I in ideals_c2] == [1, 2, 4]
    oracle_c2 = {frozenset(S) for S in all_ideal_subsets(A_F2C2)}
    assert {frozenset(code_word_set(I)) for I in ideals_c2} == oracle_c2

    ideals_c3 = enumerate_ideals(A_F2C3)
    assert [I.cardinality() for I in ideals_c3] == [1, 2, 4, 8]
    oracle_c3 = {frozenset(S) for S in all_ideal_subsets(A_F2C3)}
    assert {frozenset(code_word_set(I)) for I in ideals_c3} == oracle_c3


def test_enumerate_ideals_contains_zero_and_full():
    for algebra in (A_F2C2, A_Z6C2):
        ideals = enumerate_ideals(algebra)
        assert any(I.is_zero for I in ideals)
        assert any(I.cardinality() == I.algebra.size for I in ideals)


def test_enumerate_ideals_cap():
    with pytest.raises(CapExceededError):
        enumerate_ideals(A_Z6C3, max_size=100)


def test_operations_preserve_two_sidedness():
    ideals = enumerate_ideals(A_Z6C2)
    for C in ideals:
        assert code_dual(C).is_two_sided()
    for C in ideals[:4]:
        for D in ideals[:4]:
            assert code_sum(C, D).is_two_sided()
            assert code_intersect(C, D).is_two_sided()


def test_contains_and_generators(running_pair):
    C, D = running_pair
    for w in C.codewords():
        assert C.contains(w)
    assert not C.contains(ints(A_F2C3, 1, 0, 0))
    for g in C.generators:
        assert C.contains(g)


INTERCHANGE_ALGEBRAS = {
    "Z6[C3]": A_Z6C3,
    "Z4[C4]": GroupAlgebra(ProductRing([ChainRing(2, 2)]), cyclic(4)),
    "F4[C3]": GroupAlgebra(ProductRing([ChainRing(2, 1, 2)]), cyclic(3)),
    "GR(4,2)[C3]": GroupAlgebra(ProductRing([ChainRing(2, 2, 2)]), cyclic(3)),
    "F3[S3]": GroupAlgebra(ProductRing([ChainRing(3)]), symmetric(3)),
    "Z6[S3]": GroupAlgebra(ProductRing.from_modulus(6), symmetric(3)),
}


@pytest.mark.parametrize("name", sorted(INTERCHANGE_ALGEBRAS))
def test_equal_codes_are_interchangeable(name):
    """A code is its algebra and its component forms: a code closed from one
    element and the code built from its forms agree on every query, the
    generators among them, whatever the closure was given."""
    A = INTERCHANGE_ALGEBRAS[name]
    rng = random.Random(f"interchange {name}")
    elements = A.ring.elements()
    for _ in range(20):
        a = tuple(rng.choice(elements) for _ in range(A.group.n))
        C = GroupCode.from_generators(A, [a])
        D = GroupCode.from_components(A, C.components)
        assert C == D and hash(C) == hash(D)
        assert C.generators == D.generators
        assert C.key == D.key
        assert weight_enumerator(C) == weight_enumerator(D)
        assert code_dual(C) == code_dual(D)
        assert code_involute(C) == code_involute(D)
