"""Ideal enumeration and the LCP pair search against the paths they replaced.

``enumerate_ideals`` (one closure per unit-and-translate orbit, per CRT
component, sums by worklist) must give the same ideals in the same order as
the principal-ideal fixed point in ``oracles.py``; ``search-lcp`` (one check
of each ideal C against its only candidate complement iota(C)^perp, where
iota is the coordinate map g -> g^-1) the same pair list as the full scan;
and ``check_dual_equivalence`` (one enumeration per code) the same result as
the report built the long way.
"""

import json

import pytest

from lcpcodes import cli
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_dual, code_involute, enumerate_ideals, lcp_check
from lcpcodes.equivalence import check_dual_equivalence, verify_permutation
from lcpcodes.errors import CapExceededError, ValidationError
from lcpcodes.groups import cyclic, direct_product
from lcpcodes.rings import ChainRing, ProductRing

from oracles import (
    all_ideal_subsets,
    code_word_set,
    dual_equivalence_reference,
    full_scan_lcp_pairs,
    principal_closure_ideals,
)

SEARCH_CORPUS = {
    "F2[C6]": ([{"p": 2}], {"family": "cyclic", "n": 6}),
    "F3[C4]": ([{"p": 3}], {"family": "cyclic", "n": 4}),
    "Z4[C3]": ([{"p": 2, "e": 2}], {"family": "cyclic", "n": 3}),
    "F4[C3]": ([{"p": 2, "r": 2}], {"family": "cyclic", "n": 3}),
    "GR(4,2)[C3]": ([{"p": 2, "e": 2, "r": 2}], {"family": "cyclic", "n": 3}),
    "Z6[C3]": (6, {"family": "cyclic", "n": 3}),
    "Z10[C3]": (10, {"family": "cyclic", "n": 3}),
    "Z12[C2]": (12, {"family": "cyclic", "n": 2}),
    "F2[S3]": ([{"p": 2}], {"family": "symmetric", "m": 3}),
    "F3[S3]": ([{"p": 3}], {"family": "symmetric", "m": 3}),
    "F2[D4]": ([{"p": 2}], {"family": "dihedral", "n": 4}),
}


@pytest.fixture(scope="module", params=sorted(SEARCH_CORPUS))
def searched(request, tmp_path_factory):
    """(config path, algebra, old ideal list, old LCP pair indices)."""
    ring, group = SEARCH_CORPUS[request.param]
    path = tmp_path_factory.mktemp("search") / "algebra.json"
    path.write_text(json.dumps({"ring": ring, "group": group, "codes": {}}), encoding="utf-8")
    algebra = cli.load_config(str(path)).algebra
    ideals = principal_closure_ideals(algebra)
    return str(path), algebra, ideals, full_scan_lcp_pairs(ideals)


def test_enumerate_ideals_matches_principal_closure(searched):
    _, algebra, old, _ = searched
    assert [I.key for I in enumerate_ideals(algebra)] == [I.key for I in old]


def test_search_lcp_report_matches_full_scan(searched, capsys):
    path, _, ideals, pairs = searched
    code = cli.main(["--config", path, "--json", "search-lcp"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [I["cardinality"] for I in report["ideals"]] == [I.cardinality() for I in ideals]
    expected = []
    for i, j in pairs:
        eq = dual_equivalence_reference(ideals[i], ideals[j])
        expected.append(
            {
                "c": i,
                "d": j,
                "c_cardinality": ideals[i].cardinality(),
                "d_cardinality": ideals[j].cardinality(),
                "d_c": eq.d_c,
                "d_d_dual": eq.d_d_dual,
                "security_parameter": min(eq.d_c, eq.d_d_dual),
                "equivalence_status": eq.status,
                "permutation": list(eq.permutation) if eq.permutation else None,
            }
        )
    assert report["lcp_pairs"] == expected


def test_check_dual_equivalence_matches_reference(searched):
    _, _, ideals, pairs = searched
    assert pairs
    for i, j in pairs:
        C, D = ideals[i], ideals[j]
        assert check_dual_equivalence(C, D) == dual_equivalence_reference(C, D)


def test_involute_maps_every_codeword_through_the_inverses(searched):
    _, algebra, ideals, _ = searched
    n, inv = algebra.group.n, algebra.group.inv
    for C in ideals:
        image = {tuple(w[inv[m]] for m in range(n)) for w in code_word_set(C)}
        assert code_word_set(code_involute(C)) == image


def test_full_scan_partner_is_the_dual_of_the_involute(searched):
    """C has a partner in the full scan exactly when (C, iota(C)^perp) is
    LCP, and then the partner is iota(C)^perp, whose dual iota(C) is carried
    onto C by g -> g^-1."""
    _, algebra, ideals, pairs = searched
    partner = dict(pairs)
    assert len(partner) == len(pairs)
    for i, C in enumerate(ideals):
        D = code_dual(code_involute(C))
        is_lcp = lcp_check(C, D, fill_security=False).is_lcp
        assert (i in partner) == is_lcp
        if is_lcp:
            assert ideals[partner[i]] == D
            assert code_dual(D) == code_involute(C)
            assert verify_permutation(code_dual(D), C, algebra.group.inv)


def test_complement_is_not_always_the_plain_dual():
    """Over F4[C3], g -> g^-1 swaps the ideals of x - w and x - w^2, so half
    of the complements differ from C^perp."""
    ring, group = SEARCH_CORPUS["F4[C3]"]
    A = GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, "."))
    ideals = enumerate_ideals(A)
    complements = [code_dual(code_involute(C)) for C in ideals]
    assert len(ideals) == 8
    assert sum(D != code_dual(C) for C, D in zip(ideals, complements)) == 4


def test_corpus_covers_chain_and_product_rings():
    assert {cli.parse_ring(ring).s for ring, _ in SEARCH_CORPUS.values()} == {1, 2}


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (CapExceededError, ValidationError) as exc:
        return type(exc), str(exc)


def test_check_dual_equivalence_errors_match_reference():
    """Cap errors and the length limit surface as before: over Z6[C3] with a
    cap of 2 words, and at length 17, past the permutation search's limit."""
    A = GroupAlgebra(ProductRing.from_modulus(6), cyclic(3))
    ideals = enumerate_ideals(A)
    for i, j in full_scan_lcp_pairs(ideals):
        C, D = ideals[i], ideals[j]
        got = outcome(check_dual_equivalence, C, D, max_enum=2)
        assert got == outcome(dual_equivalence_reference, C, D, max_enum=2)
    A17 = GroupAlgebra(ProductRing([ChainRing(2)]), cyclic(17))
    one = ((1,),)
    small = GroupCode.from_generators(A17, ((one,) * 17,))
    big = GroupCode.from_generators(A17, ((one, one) + (((0,),),) * 15,))
    for C, D, cap in ((small, big, 1 << 20), (big, small, 4)):
        got = outcome(check_dual_equivalence, C, D, max_enum=cap)
        assert got == outcome(dual_equivalence_reference, C, D, max_enum=cap)
        assert got[0] is (ValidationError if cap > 4 else CapExceededError)


TINY = {
    "Z6[C1]": (ProductRing.from_modulus(6), cyclic(1)),
    "Z12[C1]": (ProductRing.from_modulus(12), cyclic(1)),
    "F3[C2]": (ProductRing([ChainRing(3)]), cyclic(2)),
    "Z4[C2]": (ProductRing([ChainRing(2, 2)]), cyclic(2)),
    "F4[C2]": (ProductRing([ChainRing(2, 1, 2)]), cyclic(2)),
    "F2[C2xC2]": (ProductRing([ChainRing(2)]), direct_product(cyclic(2), cyclic(2))),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_enumerate_ideals_matches_all_ideal_subsets(name):
    algebra = GroupAlgebra(*TINY[name])
    ideals = enumerate_ideals(algebra)
    words = [frozenset(code_word_set(I)) for I in ideals]
    assert len(set(words)) == len(words)
    assert set(words) == {frozenset(S) for S in all_ideal_subsets(algebra)}
