"""Ideal enumeration and the LCP pair search against the paths they replaced.

``enumerate_ideals`` (one closure per unit-and-translate orbit, per CRT
component, sums of incomparable ideals by worklist) must give the same
ideals in the same order as the principal-ideal fixed point in
``oracles.py``; ``search-lcp`` (one check of each ideal C against its only
candidate complement iota(C)^perp, where iota is the coordinate map
g -> g^-1) the same pair list as the full scan;
``check_dual_equivalence`` (each search walks each component of each side
once) the same result as the report built the long way; ``find_permutation``
(tagged component words) the same result as the search over product words;
and the lex-least search (prefix ids per DFS level) the same permutation as
the search that projects every word at each node.  ``lcp_check`` and ``DsmSplitter`` read each component's intersection
size off the sum, |C meet D| = |C| |D| / |C + D|; on every ordered pair of
ideals that must equal the Zassenhaus intersection and the brute force.
C and iota(C) share one weight enumerator, whichever is walked first, and
that must equal the brute-force tally of each.  ``DsmSplitter``'s image
solve must give the split that coefficients summed by hand gave
(``oracles.coefficient_split``).
"""

import json
import random
from collections import Counter

import pytest

from lcpcodes import cli
from lcpcodes.algebra import GroupAlgebra, from_component_rows
from lcpcodes import linalg
from lcpcodes import codes
from lcpcodes.codes import (
    DsmSplitter,
    GroupCode,
    code_dual,
    code_intersect,
    code_involute,
    code_sum,
    enumerate_ideals,
    lcp_check,
    min_distance,
    weight_enumerator,
)
from lcpcodes.equivalence import (
    STATUS_FOUND,
    _search_lex_least,
    check_dual_equivalence,
    find_permutation,
    verify_permutation,
)
from lcpcodes.errors import CapExceededError, NotLcpError, ValidationError
from lcpcodes.groups import cyclic, direct_product
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import (
    all_ideal_subsets,
    code_word_set,
    coefficient_split,
    dual_equivalence_reference,
    full_scan_lcp_pairs,
    listed_permutation_search,
    principal_closure_ideals,
    scanned_lex_least_search,
    summed_worklist_ideals,
    tallied_weights,
)

SEARCH_CORPUS = {
    "F2[C6]": ([{"p": 2}], {"family": "cyclic", "n": 6}),
    "F3[C4]": ([{"p": 3}], {"family": "cyclic", "n": 4}),
    "Z4[C3]": ([{"p": 2, "e": 2}], {"family": "cyclic", "n": 3}),
    "Z4[C4]": ([{"p": 2, "e": 2}], {"family": "cyclic", "n": 4}),  # 7 of 23 ideals not principal
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


# Sums the worklist makes when it skips nested pairs; summing every pair
# made 351, 253, 1081 and 6.
SUM_BOUNDS = {
    "GR(4,2)[C3]": (ProductRing([ChainRing(2, 2, 2)]), cyclic(3), 162),
    "Z4[C4]": (ProductRing([ChainRing(2, 2)]), cyclic(4), 81),
    "Z4[C2xC2]": (ProductRing([ChainRing(2, 2)]), direct_product(cyclic(2), cyclic(2)), 525),
    "F3[C7]": (ProductRing([ChainRing(3)]), cyclic(7), 1),
}
# F3[C7] takes the gcd path, which lists divisors with no walk and no sum;
# its worklist is checked with that path refused.  GR(4,2)[C3] and F3[C7]
# are separable (p does not divide |G|), where the ideals are listed from
# the block idempotents with no walk and no sum, so every algebra here is
# walked with that route refused too.
HOWELL_ONLY = {"F3[C7]"}


@pytest.mark.parametrize("name", sorted(SUM_BOUNDS))
def test_enumerate_ideals_sums_only_incomparable_ideals(name, monkeypatch):
    """A sum of two ideals one of which contains the other is the larger
    one, already found, so the worklist does not make it.  It finds the
    ideals in the order the worklist that sums every pair finds them, and
    sums exactly the pairs of that order where neither ideal contains the
    other (by word sets)."""
    ring, group, bound = SUM_BOUNDS[name]
    algebra = GroupAlgebra(ring, group)
    order = summed_worklist_ideals(algebra)
    summed = []

    def counted(X, Y):
        summed.append((X.key, Y.key))
        return code_sum(X, Y)

    monkeypatch.setattr(codes, "code_sum", counted)
    monkeypatch.setattr(codes, "_separable", lambda algebra, ring: False)
    if name in HOWELL_ONLY:
        monkeypatch.setattr(codes, "_gcd_path", lambda algebra, ring: False)
    found = codes._chain_ideals(algebra)
    monkeypatch.undo()
    assert [(P.key(),) for P in found] == [X.key for X in order]
    words = [code_word_set(X) for X in order]
    incomparable = [
        (X.key, Y.key)
        for i, (X, wx) in enumerate(zip(order, words))
        for Y, wy in zip(order[:i], words[:i])
        if not (wx <= wy or wy <= wx)
    ]
    assert summed == incomparable
    assert len(summed) <= bound


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


def test_involute_shares_the_weight_enumerator(searched):
    """g -> g^-1 permutes coordinates, so C and iota(C) have equal weight
    enumerators.  Each code takes its own from its own walk: computed from C
    first or from iota(C) first, both equal the brute-force tallies, also
    for the CRT parts.  The cap still holds on an enumerator already
    cached: |iota(C)| = |C|."""
    _, algebra, ideals, _ = searched
    for ideal in ideals:
        for c_first in (True, False):
            C = GroupCode.from_components(algebra, ideal.components)  # nothing cached
            iC = code_involute(C)
            pair = (C, iC) if c_first else (iC, C)  # walked in this order
            assert [weight_enumerator(X) for X in pair] == [tallied_weights(X) for X in pair]
            assert weight_enumerator(C) == weight_enumerator(iC)
            for X in pair:
                parts = X.crt_project()
                assert [weight_enumerator(Y) for Y in parts] == [tallied_weights(Y) for Y in parts]
            if C.cardinality() > 1:
                with pytest.raises(CapExceededError):
                    min_distance(pair[1], C.cardinality() - 1)


def test_check_dual_equivalence_walks_each_component_of_c_once(monkeypatch):
    """Over Z6[C4], for each LCP pair (C, iota(C)^perp) as search-lcp forms
    it, the distances take one weight walk of each component of C and no
    other: d(D^perp) = d(C), since D^perp = iota(C), so neither iota(C) nor
    a CRT part is walked for its weights."""
    A = GroupAlgebra(ProductRing.from_modulus(6), cyclic(4))
    walked = []
    real = codes._nonzero_flags

    def counted(P, *rest):
        walked.append(P)
        return real(P, *rest)

    monkeypatch.setattr(codes, "_nonzero_flags", counted)
    results = []
    for C in enumerate_ideals(A):
        D = code_dual(code_involute(C))
        if lcp_check(C, D).is_lcp:
            results.append((C, D, check_dual_equivalence(C, D, _assume_lcp=True)))
    monkeypatch.undo()
    assert len(results) == 16
    assert 0 < len(walked) <= len(results) * A.ring.s
    for C, D, got in results:
        fresh = [GroupCode.from_components(A, X.components) for X in (C, D)]
        assert got == dual_equivalence_reference(*fresh)


def test_full_scan_partner_is_the_dual_of_the_involute(searched):
    """C has a partner in the full scan exactly when (C, iota(C)^perp) is
    LCP, and then the partner is iota(C)^perp, whose dual iota(C) is carried
    onto C by g -> g^-1."""
    _, algebra, ideals, pairs = searched
    partner = dict(pairs)
    assert len(partner) == len(pairs)
    for i, C in enumerate(ideals):
        D = code_dual(code_involute(C))
        is_lcp = lcp_check(C, D).is_lcp
        assert (i in partner) == is_lcp
        if is_lcp:
            assert ideals[partner[i]] == D
            assert code_dual(D) == code_involute(C)
            assert verify_permutation(code_dual(D), C, algebra.group.inv)


def test_intersection_sizes_from_the_sum(searched):
    """Per component and in all, on every ordered pair of ideals, the sizes
    lcp_check reports equal code_intersect and the brute-force word sets."""
    _, algebra, ideals, _ = searched
    n, comps = algebra.group.n, algebra.ring.components
    words = [code_word_set(I) for I in ideals]
    parts = [[code_word_set(X) for X in I.crt_project()] for I in ideals]
    for C, wc, pc in zip(ideals, words, parts):
        for D, wd, pd in zip(ideals, words, parts):
            rep = lcp_check(C, D)
            S, M = code_sum(C, D), code_intersect(C, D)
            closed = [
                P.cardinality() * Q.cardinality() // T.cardinality()
                for P, Q, T in zip(C.components, D.components, S.components)
            ]
            assert closed == [X.cardinality() for X in M.components]
            assert closed == [len(a & b) for a, b in zip(pc, pd)]
            assert rep.intersection_size == M.cardinality() == len(wc & wd)
            assert rep.sum_is_full == (S.cardinality() == algebra.size)
            assert rep.component_verdicts == tuple(
                X.cardinality() == 1 and T.cardinality() == cr.size**n
                for X, T, cr in zip(M.components, S.components, comps)
            )
            assert rep.is_lcp == (len(wc & wd) == 1 and S.cardinality() == algebra.size)


def test_dsm_splitter_decides_as_lcp_check(searched):
    """DsmSplitter decides from its own reduction as lcp_check does: it
    refuses every non-LCP pair, and splits every element along an LCP pair
    into parts that add up and lie in the codes."""
    _, algebra, ideals, _ = searched
    sample = list(algebra.elements())[:: max(1, algebra.size // 40)]
    for C in ideals:
        for D in ideals:
            rep = lcp_check(C, D)
            try:
                splitter = DsmSplitter(C, D)
            except NotLcpError:
                assert not rep.is_lcp
            else:
                assert rep.is_lcp
                for z in sample:
                    c, d = splitter.split(z)
                    assert algebra.add(c, d) == z and C.contains(c) and D.contains(d)


def test_dsm_split_matches_the_coefficient_split(searched):
    """The image solve gives the split that coefficients on the stacked
    rows of C and D, summed by hand over C's rows, gave: on every LCP pair,
    at random elements."""
    _, algebra, ideals, pairs = searched
    rng = random.Random(f"split{algebra!r}")
    elements = list(algebra.elements())
    for i, j in pairs:
        C, D = ideals[i], ideals[j]
        splitter = DsmSplitter(C, D)
        for z in rng.sample(elements, min(8, len(elements))):
            assert splitter.split(z) == coefficient_split(C, D, z)


def test_dsm_splitter_needs_one_algebra():
    A = GroupAlgebra(ProductRing.from_modulus(6), cyclic(3))
    B = GroupAlgebra(ProductRing.from_modulus(6), cyclic(2))
    with pytest.raises(ValidationError):
        DsmSplitter(enumerate_ideals(A)[-1], enumerate_ideals(B)[0])


def test_check_dual_equivalence_lists_each_component_once(monkeypatch):
    """Over F4 x F3, g -> g^-1 moves ideals of F4[C3], so D^perp = iota(C)
    differs from C and the searches need words.  The component searches and
    the common search read one walk per component, of C_j or of D_j,
    whichever is smaller, and the same words moved by g -> g^-1 for the
    other side.  So a check walks at most s forms, each a component of C or
    of D and none twice, and takes no kernel once D = iota(C)^perp is
    built; the report is the one built the long way."""
    A = GroupAlgebra(ProductRing([ChainRing(2, 1, 2), ChainRing(3)]), cyclic(3))
    searched_pairs = 0
    for C in enumerate_ideals(A):
        Dd = code_involute(C)
        D = code_dual(Dd)
        if not lcp_check(C, D).is_lcp:
            continue
        with monkeypatch.context() as m:
            walks = count_calls(m, linalg.enumerate_codewords)
            kernels = count_calls(m, linalg.kernel)
            got = check_dual_equivalence(C, D)
        assert len(walks) <= A.ring.s and kernels == []
        forms = {P.key() for P in C.components + D.components}
        assert all(P.key() in forms for P in walks)
        assert max(Counter(P.key() for P in walks).values(), default=0) <= 1
        assert got == dual_equivalence_reference(C, D)
        searched_pairs += C != Dd
    assert searched_pairs


# F4 x F3 and Z4 x Z3: over F4[C3], g -> g^-1 moves ideals.
PRODUCT_SEARCH_ALGEBRAS = {
    "F4xF3[C3]": ProductRing([ChainRing(2, 1, 2), ChainRing(3)]),
    "Z12[C3]": ProductRing.from_modulus(12),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_SEARCH_ALGEBRAS))
def test_component_word_search_matches_the_product_word_search(monkeypatch, name):
    """``find_permutation`` reads tagged component words (sum_j |C_j| of
    them), never a product codeword: on every ordered pair of equal-size
    ideals it gives what the lex-least search over the prod_j |C_j| product
    words gives, and calls neither ``GroupCode.codewords`` nor
    ``from_component_rows``."""
    A = GroupAlgebra(PRODUCT_SEARCH_ALGEBRAS[name], cyclic(3))
    ideals = enumerate_ideals(A)
    listings = []
    monkeypatch.setattr(GroupCode, "codewords", lambda *args: listings.append(args))
    rebuilt = count_calls(monkeypatch, from_component_rows)
    searched = 0
    for C1 in ideals:
        for C2 in ideals:
            if C1.cardinality() == C2.cardinality():
                assert find_permutation(C1, C2) == listed_permutation_search(C1, C2)
                searched += C1 != C2
    assert searched
    assert listings == [] and rebuilt == []


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
    """Cap errors surface as before: over Z6[C3] with a cap of 2 words, and
    at length 17.  Past the permutation search's limit a pair within the cap
    reports g -> g^-1 as found, with no search."""
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
        if cap > 4:
            assert got.status == STATUS_FOUND and got.permutation == A17.group.inv
            assert "no search run" in got.block_note
        else:
            assert got[0] is CapExceededError


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


def test_lex_least_search_matches_the_scanning_search(searched):
    """Every ordered pair of equal-size ideals: found or not, both searches
    give the same answer."""
    _, algebra, ideals, _ = searched
    n = algebra.group.n
    words = [list(C.codewords()) for C in ideals]
    for words1 in words:
        for words2 in words:
            if len(words1) == len(words2):
                assert _search_lex_least(words1, words2, n) == scanned_lex_least_search(words1, words2, n)
