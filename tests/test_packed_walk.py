"""The packed codeword walk against the recursion and the tally it replaced.

The walk has one walk row x^k * row for each power k < r of x and each
pivot row, and adds one multiple of each walk row per word.
``enumerate_codewords`` must yield the words of ``oracles.recursive_codewords``
in the same order, also when the walk runs at a field width wider than the
ring's own.  The guard bits that ``_nonzero_flags`` yields for each word
must be exactly the word's support, at the ring's own width and a wider
one: the OR join of CRT components relies on that bit layout.  When
p^e = 2 a field is one bit and the walk adds with XOR, which is the sum mod 2
at any width, so an F2 component walked at a product ring's wider width
gives the same words and flags.
``weight_enumerator`` (support flags per CRT component, joined by OR) must
equal ``oracles.tallied_weights`` on every ideal and its dual of small
algebras, on wide coefficient fields and on products of two or three
components, also of different field widths.  ``find_permutation``, which
compares weight enumerators before it builds words and answers a code
compared with itself by the identity, must agree with the search over word
lists.  A ``dsm`` mask drawn with index digits d is, per component, the
word ``enumerate_codewords`` yields at the index d names.
"""

import gc
import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest

from lcpcodes import cli, equivalence, linalg
from lcpcodes.algebra import GroupAlgebra, component_rows
from lcpcodes.codes import (
    GroupCode,
    code_dual,
    code_involute,
    enumerate_ideals,
    lcp_check,
    weight_enumerator,
)
from lcpcodes.equivalence import (
    STATUS_EXHAUSTED,
    EquivalenceResult,
    check_dual_equivalence,
    find_permutation,
)
from lcpcodes.errors import CapExceededError, NotLcpError, ValidationError
from lcpcodes.groups import cyclic, dihedral, symmetric
from lcpcodes.linalg import PivotForm, RingMatrix, enumerate_codewords, pivot_reduce
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import listed_permutation_search, recursive_code_words, recursive_codewords, tallied_weights
from test_fast_paths import CORPORA
from test_ideal_search import SEARCH_CORPUS


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
    "F8[C3]": (chain(2, 1, 3), cyclic(3)),
    "F16[C3]": (chain(2, 1, 4), cyclic(3)),
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


class _Draws:
    """A stand-in for ``cli.Lcg`` that returns given indices in turn."""

    def __init__(self, indices):
        self.indices = iter(indices)
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return next(self.indices)


def test_mask_is_the_enumerated_word_at_its_index(corpus):
    """The mask drawn with indices d_j (one per pivot row, row 0 first) is,
    per component, the word ``enumerate_codewords`` yields at the
    mixed-radix index d names, row 0 the most significant digit: a seed
    picks the same word the enumeration order gives it."""
    _, codes = corpus
    rng = random.Random(11)
    for C in codes:
        radices = [
            [P.ring.q ** (P.ring.e - t) for t in P.pivot_vals] for P in C.components
        ]
        for _ in range(3):
            digits = [[rng.randrange(b) for b in bases] for bases in radices]
            draws = _Draws([d for ds in digits for d in ds])
            mask = cli._sample_mask(C, draws)
            assert draws.bounds == [b for bases in radices for b in bases]
            for P, bases, ds, row in zip(C.components, radices, digits, component_rows(mask)):
                index = 0
                for b, d in zip(bases, ds):
                    index = index * b + d
                assert row == next(itertools.islice(enumerate_codewords(P), index, None))


def test_weight_enumerator_matches_the_tally(corpus):
    _, codes = corpus
    for C in codes:
        fresh = GroupCode.from_components(C.algebra, C.components)  # no cached weights
        assert weight_enumerator(fresh) == tallied_weights(C)


def widths(ring):
    """The ring's own field width, and a wider one."""
    return linalg._field_width(ring), linalg._field_width(ring) + 3


def assert_flags_are_supports(P, words):
    """The walk's flags, at both widths, are the guard bits i*W + W-1 of the
    nonzero coordinates i of each word, in the enumeration order."""
    zero = P.ring.zero
    for w in widths(P.ring):
        W, _ = linalg._layout(P.ring, P.ncols, w)
        expected = [sum(1 << (i * W + W - 1) for i, x in enumerate(v) if x != zero) for v in words]
        walked = linalg._nonzero_flags(P, linalg.DEFAULT_ENUM_CAP, w)
        assert [f for flags in walked for f in flags] == expected


def test_support_counts_match_the_supports_of_the_words(corpus):
    _, codes = corpus
    for C in codes:
        for P in C.components:
            assert_flags_are_supports(P, list(recursive_codewords(P)))


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
    "F2xF4[C3]": (ProductRing([ChainRing(2), ChainRing(2, 1, 2)]), cyclic(3)),  # both one-bit fields
    "F2xF3[C4]": (ProductRing([ChainRing(2), ChainRing(3)]), cyclic(4)),  # XOR at width 4
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
    ChainRing(2, 1, 3),
    ChainRing(2, 1, 4),
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
        assert_flags_are_supports(P, words)
        checked += 1


@pytest.mark.parametrize("ring", RANDOM_RINGS + [ChainRing(3, 2, 2), ChainRing(2, 3, 3)], ids=repr)
def test_packed_multiples_match_ring_products(ring):
    """The walk's multiples c * row, sums of packed multiples of the walk rows
    x^k * row, give the words of the recursion (which multiplies in the
    ring) in its order, at the ring's own field width and wider."""
    rng = random.Random(repr(ring))
    checked = 0
    while checked < 20:
        n = rng.randint(1, 6)
        scales = [ring.p ** rng.randrange(ring.e) for _ in range(rng.randint(0, 3))]  # small spans of Z_{2^40}
        rows = [
            tuple(tuple(rng.randrange(ring.pe) * g % ring.pe for _ in range(ring.r)) for _ in range(n))
            for g in scales
        ]
        P = pivot_reduce(RingMatrix(ring, rows, n))
        if P.cardinality() > 5000:
            continue
        checked += 1
        words = list(recursive_codewords(P))
        for w in widths(ring):
            field = (1 << w) - 1
            decoded = [
                tuple(tuple((x >> ((k * n + i) * w)) & field for k in range(ring.r)) for i in range(n))
                for block in linalg._packed_blocks(P, linalg.DEFAULT_ENUM_CAP, w)
                for x in block
            ]
            assert decoded == words


def test_field_width_is_one_bit_exactly_when_p_e_is_two():
    """So the random spans above walk F2, F4, F8 and F16 with XOR at widths
    1 and 4, the width at which an F2 component of F2 x F3 is walked."""
    for ring in RANDOM_RINGS + [ChainRing(3, 1, 2), ChainRing(5), ChainRing(3, 2, 2), ChainRing(2, 3, 3)]:
        assert (linalg._field_width(ring) == 1) == (ring.pe == 2)
        if ring.pe == 2:
            assert widths(ring) == (1, 4)


def test_binary_golay_weight_enumerator():
    """The cyclic [23, 12, 7] Golay code <x^11 + x^10 + x^6 + x^5 + x^4 +
    x^2 + 1> in F2[C23] and its dual, its [23, 11, 8] even-weight subcode,
    have the closed-form weight enumerators."""
    algebra = GroupAlgebra(chain(2), cyclic(23))
    one, zero = algebra.ring.one, algebra.ring.zero
    g = tuple(one if i in (0, 2, 4, 5, 6, 10, 11) else zero for i in range(23))
    C = GroupCode.from_generators(algebra, [g])
    expected = dict.fromkeys(range(24), 0)
    expected.update({0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1})
    assert weight_enumerator(C) == tuple(expected.values())
    dual = dict.fromkeys(range(24), 0)
    dual.update({0: 1, 8: 506, 12: 1288, 16: 253})
    assert weight_enumerator(code_dual(C)) == tuple(dual.values())


@pytest.mark.parametrize(
    "ring, n, rows",
    [
        (ChainRing(2), 14, 12),  # 4096 words: two rows lead a 1024-word table
        (ChainRing(2, 12), 2, 1),  # one row with 4096 multiples is the whole table
        (ChainRing(3), 9, 7),  # 2187 words: the table stops short of 1024
    ],
    ids=["F2-12-rows", "Z4096-one-row", "F3-7-rows"],
)
def test_walks_past_one_table(ring, n, rows):
    rng = random.Random(n)
    mat = [tuple(tuple(rng.randrange(ring.pe) for _ in range(ring.r)) for _ in range(n)) for _ in range(rows)]
    P = pivot_reduce(RingMatrix(ring, mat, n))
    assert P.cardinality() > 1024
    words = list(recursive_codewords(P))
    assert list(enumerate_codewords(P)) == words
    assert_flags_are_supports(P, words)


def test_cap_applies_to_cached_weights():
    algebra = GroupAlgebra(chain(2), cyclic(3))
    C = GroupCode.from_generators(algebra, [algebra.one()])
    assert weight_enumerator(C) == (1, 3, 3, 1)
    with pytest.raises(CapExceededError, match="code of size 8 exceeds the enumeration cap 7"):
        weight_enumerator(C, max_enum=7)


def test_cap_applies_to_every_listing():
    """Every listing checks its cap with the walk's message, also after a
    listing of the same form or code at a larger cap."""
    P = pivot_reduce(RingMatrix(ChainRing(2), [((1,), (1,), (0,)), ((0,), (1,), (1,))], 3))
    assert len(list(enumerate_codewords(P, 4))) == 4
    with pytest.raises(CapExceededError, match="span of size 4 exceeds the enumeration cap 3"):
        list(enumerate_codewords(P, 3))
    algebra = GroupAlgebra(chain(2), cyclic(3))
    C = GroupCode.from_generators(algebra, [algebra.one()])
    assert len(list(C.codewords(8))) == 8
    with pytest.raises(CapExceededError, match="code of size 8 exceeds the enumeration cap 7"):
        list(C.codewords(7))


def test_count_calls_sees_name_level_imports(monkeypatch):
    """``codes`` and ``equivalence`` import the walks by name, so a wrapper
    set on ``linalg`` alone counts none of a search's walks; ``count_calls``
    counts each of them.  The [7, 3] simplex codes <(1 + x)(1 + x + x^3)>
    and <(1 + x)(1 + x^2 + x^3)> are the smaller sides, so the search lists
    the codes themselves."""
    algebra = GroupAlgebra(chain(2), cyclic(7))
    C1, C2 = (GroupCode.from_generators(algebra, [tuple(map(algebra.ring.project, a))]) for a in (
        (1, 1, 1, 0, 1, 0, 0), (1, 0, 1, 1, 1, 0, 0)))
    assert C1.cardinality() == C2.cardinality() == 8
    missed = []
    with monkeypatch.context() as m:
        m.setattr(linalg, "enumerate_codewords", lambda *args: missed.append(args[0]))
        assert find_permutation(C1, C2).status == "found"
    assert missed == []
    flags = count_calls(monkeypatch, linalg._nonzero_flags)
    listings = count_calls(monkeypatch, linalg.enumerate_codewords)
    C1, C2 = (GroupCode.from_components(algebra, C.components) for C in (C1, C2))
    assert find_permutation(C1, C2).status == "found"
    assert flags == listings == [C1.components[0], C2.components[0]]


def test_each_form_is_listed_once(monkeypatch):
    """Each listing of a code over a product ring walks each component form
    once, and nothing is kept: a second listing walks them again and gives
    the same words."""
    algebra = GroupAlgebra(ProductRing.from_modulus(6), cyclic(3))
    C = GroupCode.from_generators(algebra, [algebra.one()])
    walks = count_calls(monkeypatch, linalg.enumerate_codewords)
    assert list(C.codewords()) == recursive_code_words(C)
    assert walks == list(C.components)
    assert list(C.codewords()) == recursive_code_words(C)
    assert walks == 2 * list(C.components)


def test_a_listing_keeps_nothing():
    """Listing F2[C16] (2^16 words) leaves well under 1 MiB allocated once
    the loop ends; a form kept its listed span, 59 MiB here."""
    assert not hasattr(PivotForm, "codewords") and not hasattr(PivotForm, "_listing")
    algebra = GroupAlgebra(chain(2), cyclic(16))
    C = GroupCode.from_generators(algebra, [algebra.one()])
    assert C.components[0].rows  # built on first use, before the count starts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in C.codewords()) == 1 << 16
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20


def test_direct_search_after_the_dual_check_walks_each_component_once(monkeypatch):
    """On the F4 x F3 pairs of ``test_check_dual_equivalence_lists_each_
    component_once``, a direct common search after ``check_dual_
    equivalence`` walks one side of each component of each code once, as
    the check's own common search did, and gives the common result: the
    smaller of Dd_j and Dd_j^perp, and the same side of C_j."""
    A = GroupAlgebra(ProductRing([ChainRing(2, 1, 2), ChainRing(3)]), cyclic(3))
    searched_pairs = 0
    for C in enumerate_ideals(A):
        D = code_dual(code_involute(C))
        if not lcp_check(C, D).is_lcp:
            continue
        got = check_dual_equivalence(C, D)
        Dd = code_dual(D)
        duals = [P.cardinality() ** 2 > P.ring.size**3 for P in Dd.components]
        sides = [
            Pd if dual else P
            for X in (Dd, C)
            for P, Pd, dual in zip(X.components, code_dual(X).components, duals)
        ]
        with monkeypatch.context() as m:
            walks = count_calls(m, linalg.enumerate_codewords)
            direct = find_permutation(Dd, C)
        assert walks == ([] if C == Dd else sides)
        assert (direct.status, direct.permutation) == (got.status, got.permutation)
        searched_pairs += C != Dd
    assert searched_pairs


def test_support_counts_cap_matches_enumeration():
    P = pivot_reduce(RingMatrix(ChainRing(2), [((1,), (1,), (0,)), ((0,), (1,), (1,))], 3))
    for fn in (enumerate_codewords, linalg._nonzero_flags):
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


F4XF2 = GroupAlgebra(ProductRing([ChainRing(2, 1, 2), ChainRing(2)]), cyclic(3))


def side_corpus() -> dict:
    """{algebra: name}: the algebras of the other suites' ideal corpora that
    the weight corpus above lacks, and F4 x F2, a product of two rings of one
    prime whose components can choose different sides."""
    out = dict.fromkeys(GroupAlgebra(*args) for args in WEIGHT_CORPUS.values())
    for name, (ring, group) in SEARCH_CORPUS.items():
        out.setdefault(GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, "")), name)
    for name, args in CORPORA.items():
        out.setdefault(GroupAlgebra(*args), name)
    out[F4XF2] = "F4xF2[C3]"
    return {A: name for A, name in out.items() if name is not None}


@pytest.mark.parametrize("algebra", [pytest.param(A, id=name) for A, name in side_corpus().items()])
def test_smaller_side_search_matches_the_listed_search(algebra):
    """``find_permutation`` reads each component from the smaller of C1_j and
    C1_j^perp, and C2_j from the same side; on every ordered pair of
    equal-size ideals it gives what the search over the codes' own words
    gives, as on the weight corpus above.  Over F4 x F2 some found pairs
    mix the two sides."""
    n = algebra.group.n
    ideals = enumerate_ideals(algebra)
    mixed = 0
    for C1 in ideals:
        for C2 in ideals:
            if C1.cardinality() == C2.cardinality():
                got = find_permutation(C1, C2)
                assert got == listed_permutation_search(C1, C2)
                duals = {P.cardinality() ** 2 > P.ring.size**n for P in C1.components}
                mixed += got.status == "found" and C1 != C2 and len(duals) == 2
    assert mixed or algebra != F4XF2


def test_self_equivalence_keeps_the_error_order():
    algebra = GroupAlgebra(chain(2), cyclic(3))
    full = generated(algebra, ((1,),))
    same = GroupCode.from_generators(algebra, [algebra.one()])
    capped = find_permutation(full, same, max_enum=7)
    assert capped == EquivalenceResult(
        STATUS_EXHAUSTED, None, None, None,
        "enumeration cap hit: code of size 8 exceeds the enumeration cap 7 (--max-enum)",
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


def _count_lcp_reductions(path, monkeypatch):
    """Kernels and weight walks made by the `lcp` command on the config."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr("lcpcodes.codes.kernel", counted("kernel", linalg.kernel))
    monkeypatch.setattr("lcpcodes.codes._nonzero_flags", counted("walk", linalg._nonzero_flags))
    assert cli.main(["--config", str(path), "--json", "lcp", "C", "D"]) == 0
    return calls


def test_lcp_builds_the_dual_once(tmp_path, capsys, monkeypatch):
    """On an LCP pair the security parameter and the equivalence report share
    one D^perp: one kernel, and one weight walk, of C, which serves D^perp
    too: D^perp = iota(C) for an LCP pair, checked on the keys.  The pair
    <x - 1>, <1 + x + x^2> is over Z4, which the Howell engine reduces (a
    prime field with a cyclic group takes no kernel)."""
    path = tmp_path / "pair.json"
    path.write_text(
        '{"ring": [{"p": 2, "e": 2}], "group": {"family": "cyclic", "n": 3},'
        ' "codes": {"C": [[[0, 3], [1, 1]]], "D": [[[0, 1], [1, 1], [2, 1]]]}}',
        encoding="utf-8",
    )
    calls = _count_lcp_reductions(path, monkeypatch)
    capsys.readouterr()
    assert calls == {"kernel": 1, "walk": 1}


def test_lcp_walks_each_component_of_c_once_over_a_product_ring(tmp_path, capsys, monkeypatch):
    """Over Z6 = F2 x F3 the one walk of C is one walk per CRT component,
    and d(D^perp) is read off it.  Both components are prime fields with a
    cyclic group, so the duals take no kernel."""
    path = tmp_path / "pair.json"
    path.write_text(
        '{"ring": 6, "group": {"family": "cyclic", "n": 5},'
        ' "codes": {"C": [[[0, 1], [1, -1]]], "D": [[[0, 1], [1, 1], [2, 1], [3, 1], [4, 1]]]}}',
        encoding="utf-8",
    )
    calls = _count_lcp_reductions(path, monkeypatch)
    report = json.loads(capsys.readouterr().out)
    assert report["d_c"] == report["d_d_dual"] == 2
    assert calls == {"walk": 2}


def test_direct_call_still_checks_the_pair():
    algebra = GroupAlgebra(chain(2), cyclic(3))
    full = GroupCode.from_generators(algebra, [algebra.one()])
    with pytest.raises(NotLcpError):
        check_dual_equivalence(full, full)
    zero = GroupCode.from_generators(algebra, [])
    assert check_dual_equivalence(full, zero, _assume_lcp=True) == check_dual_equivalence(full, zero)
