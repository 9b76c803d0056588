"""Permutation-equivalence verification and search."""

import gc
import itertools
import random

import pytest

from lcpcodes import linalg
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import (
    GroupCode,
    code_dual,
    code_involute,
    enumerate_ideals,
    lcp_check,
    min_distance,
    weight_enumerator,
)
from lcpcodes.equivalence import (
    STATUS_FOUND,
    STATUS_NOT_EQUIVALENT,
    apply_permutation,
    check_dual_equivalence,
    find_permutation,
    identity_permutation,
    verify_permutation,
    _search_lex_least,
)
from lcpcodes.errors import NotLcpError, ValidationError
from lcpcodes.groups import cyclic
from lcpcodes.linalg import RingMatrix, enumerate_codewords, pivot_reduce
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import brute_span, code_words, scanned_lex_least_search

F2 = ProductRing([ChainRing(2, 1, 1)])
A_F2C3 = GroupAlgebra(F2, cyclic(3))


def ints(algebra, *values):
    return tuple(algebra.ring.project(v) for v in values)


@pytest.fixture(scope="module")
def running_pair():
    C = GroupCode.from_generators(A_F2C3, [ints(A_F2C3, 1, 1, 0)])
    D = GroupCode.from_generators(A_F2C3, [ints(A_F2C3, 1, 1, 1)])
    return C, D


def test_apply_permutation_convention():
    assert apply_permutation((2, 0, 1), ("a", "b", "c")) == ("b", "c", "a")


def test_verify_identity_on_same_code(running_pair):
    C, _ = running_pair
    assert verify_permutation(C, C, identity_permutation(3))


def test_verify_running_pair_dual(running_pair):
    C, D = running_pair
    Dd = code_dual(D)
    # both are the even-weight code, so the identity works
    assert verify_permutation(Dd, C, identity_permutation(3))


def test_verify_rejects_cardinality_mismatch(running_pair):
    C, D = running_pair
    for perm in itertools.permutations(range(3)):
        assert not verify_permutation(C, D, perm)


def test_verify_validates_permutation(running_pair):
    C, _ = running_pair
    with pytest.raises(ValidationError):
        verify_permutation(C, C, (0, 0, 1))


def test_search_finds_transposition_on_single_coordinate_spans():
    # span {(0,0), (1,0)} vs its coordinate swap: only the transposition works
    Z2 = ChainRing(2, 1, 1)
    w1 = sorted(brute_span(Z2, (((1,), (0,)),), 2))
    w2 = sorted(brute_span(Z2, (((0,), (1,)),), 2))
    perm = _search_lex_least(w1, w2, 2)
    assert perm == (1, 0)
    # brute force over both permutations agrees
    valid = [
        p
        for p in itertools.permutations(range(2))
        if {apply_permutation(p, w) for w in w1} == set(w2)
    ]
    assert valid == [(1, 0)]


def test_find_permutation_identity_first(running_pair):
    C, _ = running_pair
    res = find_permutation(C, C)
    assert res.status == STATUS_FOUND
    assert res.permutation == (0, 1, 2)


def test_find_permutation_running_pair(running_pair):
    C, D = running_pair
    res = find_permutation(code_dual(D), C)
    assert res.status == STATUS_FOUND
    assert verify_permutation(code_dual(D), C, res.permutation)


def test_find_permutation_not_equivalent(running_pair):
    C, D = running_pair
    res = find_permutation(C, D)
    assert res.status == STATUS_NOT_EQUIVALENT
    assert res.permutation is None


def _random_span(ring, n, rng):
    m = rng.randint(1, 2)
    rows = tuple(
        tuple(tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(n))
        for _ in range(m)
    )
    return sorted(brute_span(ring, rows, n))


@pytest.mark.parametrize("seed", [404])
def test_search_complete_at_desk_scale(seed):
    """Verdict and lexicographic minimality match brute force over all n!."""
    rng = random.Random(seed)
    rings = [ChainRing(2, 1, 1), ChainRing(3, 1, 1), ChainRing(2, 2, 1)]
    for trial in range(40):
        ring = rings[trial % 3]
        n = rng.randint(2, 5)
        w1 = _random_span(ring, n, rng)
        if trial % 2 == 0:
            shuffle = list(range(n))
            rng.shuffle(shuffle)
            w2 = sorted(apply_permutation(tuple(shuffle), w) for w in w1)
        else:
            w2 = _random_span(ring, n, rng)
        got = _search_lex_least(w1, w2, n)
        set2 = set(w2)
        brute = next(
            (
                p
                for p in itertools.permutations(range(n))
                if len(w1) == len(w2)
                and {apply_permutation(p, w) for w in w1} == set2
            ),
            None,
        )
        assert got == brute


@pytest.mark.parametrize("ring", [ChainRing(2), ChainRing(3), ChainRing(2, 2), ChainRing(2, 1, 2)], ids=repr)
def test_search_matches_the_scanning_search_on_random_pairs(ring):
    """Random spans of equal size, half of them coordinate shuffles of the
    other and half drawn on their own (mostly not equivalent)."""
    rng = random.Random(repr(ring))
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 7)
        w1 = _random_span(ring, n, rng)
        if rng.random() < 0.5:
            shuffle = list(range(n))
            rng.shuffle(shuffle)
            w2 = [apply_permutation(tuple(shuffle), w) for w in w1]
            rng.shuffle(w2)
        else:
            w2 = _random_span(ring, n, rng)
            if len(w2) != len(w1):
                continue
        got = _search_lex_least(w1, w2, n)
        assert got == scanned_lex_least_search(w1, w2, n)
        outcomes.add(got is None)
    assert outcomes == {False, True}


def test_check_dual_equivalence_running_pair(running_pair):
    C, D = running_pair
    res = check_dual_equivalence(C, D)
    assert res.status == STATUS_FOUND
    assert res.d_c == res.d_d_dual == 2
    assert "component 0: found" in res.block_note
    assert "common permutation: found" in res.block_note


def test_check_dual_equivalence_trivial_pair():
    full = GroupCode.from_generators(A_F2C3, [A_F2C3.one()])
    zero = GroupCode.from_generators(A_F2C3, [])
    res = check_dual_equivalence(full, zero)
    assert res.status == STATUS_FOUND
    assert res.permutation == (0, 1, 2)
    assert res.d_c == res.d_d_dual == 1


def test_check_dual_equivalence_requires_lcp(running_pair):
    C, _ = running_pair
    with pytest.raises(NotLcpError):
        check_dual_equivalence(C, C)


def test_distance_equality_across_z6c2_corpus():
    algebra = GroupAlgebra(ProductRing.from_modulus(6), cyclic(2))
    ideals = enumerate_ideals(algebra)
    pairs = 0
    for C in ideals:
        for D in ideals:
            if not lcp_check(C, D).is_lcp:
                continue
            pairs += 1
            res = check_dual_equivalence(C, D)
            assert res.d_c == res.d_d_dual
            if res.status == STATUS_FOUND:
                # permutation equivalence preserves the weight enumerator
                assert weight_enumerator(C) == weight_enumerator(code_dual(D))
    assert pairs > 0


def test_found_results_verify(running_pair):
    C, D = running_pair
    Dd = code_dual(D)
    res = find_permutation(Dd, C)
    assert res.status == STATUS_FOUND
    assert verify_permutation(Dd, C, res.permutation)


def test_nontrivial_permutations_over_f2c7():
    """Length-7 binary cyclic codes force genuinely non-identity permutations."""
    algebra = GroupAlgebra(F2, cyclic(7))
    ideals = enumerate_ideals(algebra)
    assert sorted(I.cardinality() for I in ideals) == [1, 2, 8, 8, 16, 16, 64, 128]
    seen_nontrivial = False
    for C in ideals:
        for D in ideals:
            if not lcp_check(C, D).is_lcp:
                continue
            res = check_dual_equivalence(C, D)
            assert res.status == STATUS_FOUND
            assert res.d_c == res.d_d_dual
            assert verify_permutation(code_dual(D), C, res.permutation)
            if res.permutation != identity_permutation(7):
                seen_nontrivial = True
            # the [7,4] code has distance 3, its size-8 complement partner 4
            if C.cardinality() == 16:
                assert res.d_c == 3
            if C.cardinality() == 8:
                assert res.d_c == 4
    assert seen_nontrivial


def test_distance_equality_over_nonabelian_f2s3():
    from lcpcodes.groups import symmetric

    algebra = GroupAlgebra(F2, symmetric(3))
    ideals = enumerate_ideals(algebra)
    pair_distances = set()
    for C in ideals:
        for D in ideals:
            if not lcp_check(C, D).is_lcp:
                continue
            res = check_dual_equivalence(C, D)
            assert res.status == STATUS_FOUND
            assert res.d_c == res.d_d_dual
            pair_distances.add((C.cardinality(), res.d_c))
    assert (4, 3) in pair_distances and (16, 2) in pair_distances


def test_dual_check_walks_one_weight_enumerator(monkeypatch):
    """For an LCP pair, D^perp = iota(C), so C^perp = iota(D) and the
    distances take one weight walk, of the smaller side, also for a D that
    comes without its dual: here D rebuilt from its component forms.  C is
    the [7, 4] Hamming code (16 words), so D (8 words) is walked."""
    algebra = GroupAlgebra(F2, cyclic(7))
    C = GroupCode.from_generators(algebra, [ints(algebra, 1, 1, 0, 1, 0, 0, 0)])
    D = GroupCode.from_components(algebra, code_dual(code_involute(C)).components)
    walks = count_calls(monkeypatch, linalg._nonzero_flags)
    res = check_dual_equivalence(C, D)
    assert res.status == STATUS_FOUND and res.d_c == res.d_d_dual == 3
    assert walks == [D.components[0]]


def test_search_leaves_no_reference_cycle():
    """The search frees its word lists and tables by reference counting
    alone: with the cyclic collector paused, as ``cli.main`` runs commands,
    a collection right after a search finds nothing."""
    algebra = GroupAlgebra(F2, cyclic(7))
    C1, C2 = [I for I in enumerate_ideals(algebra) if I.cardinality() == 16]
    w1 = list(code_words(C1))
    w2 = sorted(apply_permutation((1, 0, 2, 3, 4, 5, 6), w) for w in w1)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        res = find_permutation(C1, C2)
        assert res.status == STATUS_FOUND and res.permutation != identity_permutation(7)
        assert gc.collect() == 0
        perm = _search_lex_least(w1, w2, 7)
        assert {apply_permutation(perm, w) for w in w1} == set(w2)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
