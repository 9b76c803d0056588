"""The packed codeword walk against the recursion and the tally it replaced.

``enumerate_codewords`` must yield the words of ``oracles.recursive_codewords``
in the same order, and ``weight_enumerator`` (support masks per CRT
component, joined by OR) must equal ``oracles.tallied_weights`` on every
ideal and its dual of small algebras, on wide coefficient fields and on
products of two or three components, also of different field widths.  ``find_permutation``, which compares
weight enumerators before it builds words and answers a code compared with
itself by the identity, must agree with the search over word lists.
"""

import random
from collections import Counter

import pytest

from lcpcodes import cli, equivalence, linalg
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_dual, enumerate_ideals, lcp_check, weight_enumerator
from lcpcodes.equivalence import (
    STATUS_EXHAUSTED,
    EquivalenceResult,
    check_dual_equivalence,
    find_permutation,
)
from lcpcodes.errors import CapExceededError, NotLcpError, ValidationError
from lcpcodes.groups import cyclic, dihedral, symmetric
from lcpcodes.linalg import RingMatrix, enumerate_codewords, pivot_reduce, support_counts
from lcpcodes.rings import ChainRing, ProductRing

from oracles import listed_permutation_search, recursive_codewords, tallied_weights


def chain(p, e=1, r=1):
    return ProductRing([ChainRing(p, e, r)])


WEIGHT_CORPUS = {
    "Z6[C3]": (ProductRing.from_modulus(6), cyclic(3)),
    "Z8[C3]": (chain(2, 3), cyclic(3)),
    "Z9[C3]": (chain(3, 2), cyclic(3)),
    "GR(4,2)[C3]": (chain(2, 2, 2), cyclic(3)),
    "Z10[C3]": (ProductRing.from_modulus(10), cyclic(3)),
    "Z12[C2]": (ProductRing.from_modulus(12), cyclic(2)),
    "F4[C4]": (chain(2, 1, 2), cyclic(4)),
    "F9[C2]": (chain(3, 1, 2), cyclic(2)),
    "F5[C4]": (chain(5), cyclic(4)),
    "F7[C3]": (chain(7), cyclic(3)),
    "F2[S3]": (chain(2), symmetric(3)),
    "F3[S3]": (chain(3), symmetric(3)),
    "F2[D4]": (chain(2), dihedral(4)),
}


@pytest.fixture(scope="module", params=sorted(WEIGHT_CORPUS))
def corpus(request):
    """(algebra, every ideal followed by every dual)."""
    algebra = GroupAlgebra(*WEIGHT_CORPUS[request.param])
    ideals = enumerate_ideals(algebra)
    return algebra, ideals + [code_dual(C) for C in ideals]


def test_codewords_match_the_recursion_in_order(corpus):
    _, codes = corpus
    for C in codes:
        for P in C.components:
            assert list(enumerate_codewords(P)) == list(recursive_codewords(P))


def test_weight_enumerator_matches_the_tally(corpus):
    _, codes = corpus
    for C in codes:
        fresh = GroupCode.from_components(C.algebra, C.components)  # no cached weights
        assert weight_enumerator(fresh) == tallied_weights(C)


def test_support_counts_match_the_supports_of_the_words(corpus):
    _, codes = corpus
    for C in codes:
        for P in C.components:
            zero = P.ring.zero
            expected = Counter(
                sum(1 << i for i, x in enumerate(w) if x != zero) for w in recursive_codewords(P)
            )
            assert support_counts(P) == expected


def generated(algebra, coefficient_at_identity):
    n = algebra.group.n
    zero = algebra.ring.zero
    return GroupCode.from_generators(algebra, [(coefficient_at_identity,) + (zero,) * (n - 1)])


@pytest.mark.parametrize("t", [39, 35])
def test_wide_field_component(t):
    """Z_{2^40}: 42-bit fields, so a packed word spans several machine words."""
    algebra = GroupAlgebra(chain(2, 40), cyclic(2))
    C = generated(algebra, ((1 << t,),))
    assert C.cardinality() == 1 << (2 * (40 - t))
    (P,) = C.components
    assert list(enumerate_codewords(P)) == list(recursive_codewords(P))
    assert weight_enumerator(C) == tallied_weights(C)
    Cd = code_dual(C)
    assert Cd.cardinality() > 1 << 20  # its dual is past the cap, so only the cap is tested
    with pytest.raises(CapExceededError, match="exceeds the enumeration cap"):
        weight_enumerator(Cd)


@pytest.mark.parametrize("modulus, n", [(30, 2), (6, 4), (15, 3)])
def test_or_join_of_several_components(modulus, n):
    """s = 2 and s = 3: a coordinate is nonzero when any component is."""
    algebra = GroupAlgebra(ProductRing.from_modulus(modulus), cyclic(n))
    codes = enumerate_ideals(algebra)
    assert algebra.ring.s >= 2
    for C in codes + [code_dual(C) for C in codes]:
        assert weight_enumerator(C) == tallied_weights(C)


MIXED_WIDTHS = {
    "Z24[C2]": (ProductRing.from_modulus(24), cyclic(2)),  # Z8 x F3: widths 5 and 4
    "F4xF3[C2]": (ProductRing([ChainRing(2, 1, 2), ChainRing(3)]), cyclic(2)),  # r = 2 next to r = 1
    "GR(4,2)xF3[C1]": (ProductRing([ChainRing(2, 2, 2), ChainRing(3)]), cyclic(1)),
    "Z8xGR(3,2)[C2]": (ProductRing([ChainRing(2, 3), ChainRing(3, 1, 2)]), cyclic(2)),
}


@pytest.mark.parametrize("name", sorted(MIXED_WIDTHS))
def test_components_of_different_widths(name):
    """Each component is walked at the widest component's field width, so
    the flags of fields and coefficient blocks of different sizes line up."""
    algebra = GroupAlgebra(*MIXED_WIDTHS[name])
    widths = {linalg._field_width(cr) for cr in algebra.ring.components}
    degrees = {cr.r for cr in algebra.ring.components}
    assert len(widths) > 1 or len(degrees) > 1
    codes = enumerate_ideals(algebra, max_size=algebra.size)  # Z8 x GR(3,2)[C2] has 5184 elements
    for C in codes + [code_dual(C) for C in codes]:
        fresh = GroupCode.from_components(algebra, C.components)  # no cached weights
        assert weight_enumerator(fresh) == tallied_weights(C)


RANDOM_RINGS = [
    ChainRing(2),
    ChainRing(3),
    ChainRing(2, 2),
    ChainRing(2, 3),
    ChainRing(3, 2),
    ChainRing(2, 1, 2),
    ChainRing(2, 2, 2),
    ChainRing(7, 1, 3),
    ChainRing(2, 40),
]


@pytest.mark.parametrize("ring", RANDOM_RINGS, ids=repr)
def test_random_spans_match_the_recursion(ring):
    rng = random.Random(repr(ring))
    checked = 0
    while checked < 25:
        n = rng.randint(1, 8)
        rows = [
            tuple(tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(n))
            for _ in range(rng.randint(0, 4))
        ]
        P = pivot_reduce(RingMatrix(ring, rows, n))
        if P.cardinality() > 5000:
            continue
        words = list(recursive_codewords(P))
        assert list(enumerate_codewords(P)) == words
        zero = ring.zero
        assert support_counts(P) == Counter(
            sum(1 << i for i, x in enumerate(w) if x != zero) for w in words
        )
        checked += 1


@pytest.mark.parametrize(
    "ring, n, rows",
    [
        (ChainRing(2), 14, 12),  # 4096 words: two rows lead a 1024-word table
        (ChainRing(2, 12), 2, 1),  # one row with 4096 multiples is the whole table
        (ChainRing(3), 9, 7),  # 2187 words: the table stops short of 1024
    ],
    ids=["F2-12-rows", "Z4096-one-row", "F3-7-rows"],
)
def test_walks_past_one_table(ring, n, rows, monkeypatch):
    rng = random.Random(n)
    mat = [tuple(tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(n)) for _ in range(rows)]
    P = pivot_reduce(RingMatrix(ring, mat, n))
    assert P.cardinality() > 1024
    words = list(recursive_codewords(P))
    assert list(enumerate_codewords(P)) == words
    zero = ring.zero
    supports = Counter(sum(1 << i for i, x in enumerate(w) if x != zero) for w in words)
    assert support_counts(P) == supports
    monkeypatch.setattr(linalg, "_FLUSH", 16)  # convert keys to masks many times mid-walk
    assert support_counts(P) == supports


def test_cap_applies_to_cached_weights():
    algebra = GroupAlgebra(chain(2), cyclic(3))
    C = GroupCode.from_generators(algebra, [algebra.one()])
    assert weight_enumerator(C) == (1, 3, 3, 1)
    with pytest.raises(CapExceededError, match="code of size 8 exceeds the enumeration cap 7"):
        weight_enumerator(C, max_enum=7)


def test_support_counts_cap_matches_enumeration():
    P = pivot_reduce(RingMatrix(ChainRing(2), [((1,), (1,), (0,)), ((0,), (1,), (1,))], 3))
    for fn in (enumerate_codewords, support_counts):
        with pytest.raises(CapExceededError, match="span of size 4 exceeds the enumeration cap 3"):
            list(fn(P, 3))


# -- find_permutation ----------------------------------------------------------


def test_permutation_search_matches_the_listed_search(corpus):
    """Every ordered pair of equal-size codes, among them every code with
    itself (so every pair with D^perp = C): the identity answer and the
    enumerator comparison give what the lex-least search over the words
    gives."""
    _, codes = corpus
    distinct = list({C.key: C for C in codes}.values())
    for C1 in distinct:
        for C2 in distinct:
            if C1.cardinality() == C2.cardinality():
                assert find_permutation(C1, C2) == listed_permutation_search(C1, C2)
    sizes = sorted({C.cardinality() for C in distinct})
    cap = sizes[len(sizes) // 2]
    for C1 in distinct:
        for C2 in distinct:
            assert find_permutation(C1, C2, cap) == listed_permutation_search(C1, C2, cap)


def test_self_equivalence_keeps_the_error_order():
    algebra = GroupAlgebra(chain(2), cyclic(3))
    full = generated(algebra, ((1,),))
    same = GroupCode.from_generators(algebra, [algebra.one()])
    capped = find_permutation(full, same, max_enum=7)
    assert capped == EquivalenceResult(
        STATUS_EXHAUSTED, None, None, None,
        "enumeration cap hit: code of size 8 exceeds the enumeration cap 7",
    )
    long = GroupAlgebra(chain(2), cyclic(17))
    big = generated(long, ((1,),))
    with pytest.raises(ValidationError, match="n <= 16"):
        find_permutation(big, big, max_enum=1)


# -- the LCP check runs once per reported pair --------------------------------


def test_cli_checks_each_pair_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "pair.json"
    path.write_text(
        '{"ring": [{"p": 2}], "group": {"family": "cyclic", "n": 3},'
        ' "codes": {"C": [[[0, 1], [1, 1]]], "D": [[[0, 1], [1, 1], [2, 1]]]}}',
        encoding="utf-8",
    )
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lcp_check(*args, **kwargs)

    monkeypatch.setattr(equivalence, "lcp_check", counted)
    assert cli.main(["--config", str(path), "--json", "lcp", "C", "D"]) == 0
    assert cli.main(["--config", str(path), "--json", "search-lcp"]) == 0
    capsys.readouterr()
    assert calls == []


def test_lcp_builds_the_dual_once(tmp_path, capsys, monkeypatch):
    """On an LCP pair the security parameter and the equivalence report share
    one D^perp: one kernel, and one weight walk for each of C and D^perp."""
    path = tmp_path / "pair.json"
    path.write_text(
        '{"ring": [{"p": 2}], "group": {"family": "cyclic", "n": 3},'
        ' "codes": {"C": [[[0, 1], [1, 1]]], "D": [[[0, 1], [1, 1], [2, 1]]]}}',
        encoding="utf-8",
    )
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr("lcpcodes.codes.kernel", counted("kernel", linalg.kernel))
    monkeypatch.setattr("lcpcodes.codes._nonzero_flags", counted("walk", linalg._nonzero_flags))
    assert cli.main(["--config", str(path), "--json", "lcp", "C", "D"]) == 0
    capsys.readouterr()
    assert calls == {"kernel": 1, "walk": 2}


def test_direct_call_still_checks_the_pair():
    algebra = GroupAlgebra(chain(2), cyclic(3))
    full = GroupCode.from_generators(algebra, [algebra.one()])
    with pytest.raises(NotLcpError):
        check_dual_equivalence(full, full)
    zero = GroupCode.from_generators(algebra, [])
    assert check_dual_equivalence(full, zero, _assume_lcp=True) == check_dual_equivalence(full, zero)
