"""Ideals of separable components, listed from their block idempotents.

A CRT component R_j[G] = GR(p^e, r)[G] with p not dividing |G| is the
direct product of its blocks R_j[G] e_i, one per primitive central
idempotent e_i, and its two-sided ideals are the R_j[G] * sum_i
gamma^(a_i) e_i, one per exponent vector a in {0..e}^b.  So it has
(e + 1)^b ideals, and 2^b LCP pairs (C = R[G] e, D = R[G] (1 - e) for the
central idempotents e), where b is the number of orbits of the conjugacy
classes under g -> g^q, q = p^r (Witt-Berman).  ``codes._chain_ideals``
lists such a component that way (``codes._separable``), with no walk of
R_j[G] and no sum.  These tests hold that listing to the walk it replaced
(forced by refusing the route), the idempotents to a brute-force search of
the algebra, and the counts to the theorem.
"""

import json
from math import prod

import pytest

from lcpcodes import cli, codes
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_sum, enumerate_ideals
from lcpcodes.groups import cyclic, dihedral, direct_product, symmetric
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import class_power_orbit_count, primitive_central_idempotents
from test_ideal_search import SEARCH_CORPUS


def chain(p, e=1, r=1):
    return ProductRing([ChainRing(p, e, r)])


# Separable algebras beside those of SEARCH_CORPUS: the five separable
# algebras of the benchmark's ``search`` workload, two nonabelian groups
# (F3[D4] is small enough for the brute force), a ring with two lifting
# steps, an abelian group not cyclic in index order, and a product ring
# with a separable Z9 part beside a modular Z4 part.
EXTRA = {
    "GR(4,2)[C3]": (chain(2, 2, 2), cyclic(3)),
    "Z4[C5]": (chain(2, 2), cyclic(5)),
    "F4[C5]": (chain(2, 1, 2), cyclic(5)),
    "Z4[C3]": (chain(2, 2), cyclic(3)),
    "F4[C3]": (chain(2, 1, 2), cyclic(3)),
    "F5[S3]": (chain(5), symmetric(3)),
    "F3[D4]": (chain(3), dihedral(4)),
    "Z9[C4]": (chain(3, 2), cyclic(4)),
    "Z36[C2]": (ProductRing.from_modulus(36), cyclic(2)),
    "Z8[C3]": (chain(2, 3), cyclic(3)),
    "F3[C2xC2]": (chain(3), direct_product(cyclic(2), cyclic(2))),
    "Z4[C7]": (chain(2, 2), cyclic(7)),
}


def _algebras():
    out = {}
    for name, (ring, group) in SEARCH_CORPUS.items():
        algebra = GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, None))
        if any(codes._separable(A, A.ring.components[0]) for A in algebra.components):
            out[name] = algebra
    for name, (ring, group) in EXTRA.items():
        out[name] = GroupAlgebra(ring, group)
    return out


ALGEBRAS = _algebras()


def separable_components(algebra):
    return [A for A in algebra.components if codes._separable(A, A.ring.components[0])]


def blocks_of(A):
    """(e, b) of a separable chain-ring algebra, b by Witt-Berman."""
    (cr,) = A.ring.components
    return cr.e, class_power_orbit_count(A.group, cr.q)


def ideal_sets(A, *, gcd=True, blocks=True):
    """The component forms of ``codes._chain_ideals`` on A, as a set, with
    the gcd path or the block route refused as asked."""
    with pytest.MonkeyPatch.context() as mp:
        if not gcd:
            mp.setattr(codes, "_gcd_path", lambda algebra, ring: False)
        if not blocks:
            mp.setattr(codes, "_separable", lambda algebra, ring: False)
        ideals = codes._chain_ideals(A)
    found = {X.components for X in ideals}
    assert len(found) == len(ideals)
    return found


def test_corpus_holds_the_named_algebras():
    assert {"F3[C4]", "Z4[C3]", "F4[C3]", "GR(4,2)[C3]", "Z6[C3]", "Z10[C3]", "Z12[C2]"} <= set(ALGEBRAS)
    assert all(separable_components(A) for A in ALGEBRAS.values())


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_block_listing_matches_the_walk(name):
    """Every separable component lists the walk's ideals, also with the gcd
    path refused (so a prime field is listed by blocks too), and the whole
    algebra sorts to the same ``enumerate_ideals`` keys as the walk."""
    algebra = ALGEBRAS[name]
    for A in separable_components(algebra):
        walked = ideal_sets(A, gcd=False, blocks=False)
        assert ideal_sets(A, gcd=False) == walked
        assert ideal_sets(A) == walked
        e, b = blocks_of(A)
        assert len(walked) == (e + 1) ** b
    listed = enumerate_ideals(algebra, max_size=algebra.size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_separable", lambda algebra, ring: False)
        walked = enumerate_ideals(algebra, max_size=algebra.size)
    assert [X.key for X in listed] == [X.key for X in walked]


BRUTE_LIMIT = 1 << 13


def _brute_cases():
    """{name: component}, each separable component up to BRUTE_LIMIT once."""
    seen = {}
    for name, algebra in ALGEBRAS.items():
        for A in separable_components(algebra):
            if A.size <= BRUTE_LIMIT and A not in seen.values():
                seen[f"{name}:{A.ring!r}"] = A
    return seen


BRUTE = _brute_cases()


@pytest.mark.parametrize("name", sorted(BRUTE))
def test_block_idempotents_are_the_primitive_central_idempotents(name):
    """Against every element of R_j[G] squared and commuted with G; their
    number is the Witt-Berman count."""
    A = BRUTE[name]
    found = codes._block_idempotents(A)
    assert len(found) == blocks_of(A)[1]
    assert len(set(found)) == len(found)
    assert set(found) == primitive_central_idempotents(A)


def test_brute_force_covers_every_kind_of_component():
    """Prime fields, r > 1, e > 1, both, a nonabelian group."""
    shapes = {(A.ring.components[0].e > 1, A.ring.components[0].r > 1) for A in BRUTE.values()}
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}
    assert not all(A.group.is_abelian() for A in BRUTE.values())


def test_block_idempotents_on_a_nonabelian_group():
    """F5[S3] = F5 + F5 + M2(F5): three blocks, of dimensions 1, 1 and 4,
    found through the kernel of z -> z^5 - z on the class sums."""
    A = GroupAlgebra(chain(5), symmetric(3))
    found = codes._block_idempotents(A)
    ideals = [GroupCode.from_generators(A, (x,)) for x in found]
    assert sorted(X.cardinality() for X in ideals) == [5, 5, 5**4]


# Algebras whose every component is separable, for the counts; F7[S3]
# (7^6 elements) is past any walk of this suite, and Z15[C2] = F3 x F5 takes
# the gcd path in both parts.
THEOREM = {
    name: algebra
    for name, algebra in ALGEBRAS.items()
    if len(separable_components(algebra)) == algebra.ring.s
}
THEOREM["F7[S3]"] = GroupAlgebra(chain(7), symmetric(3))
THEOREM["Z15[C2]"] = GroupAlgebra(ProductRing.from_modulus(15), cyclic(2))


@pytest.mark.parametrize("name", sorted(THEOREM))
def test_search_lcp_counts_follow_the_blocks(name, tmp_path, capsys):
    """``search-lcp`` reports prod_j (e_j + 1)^b_j ideals and prod_j 2^b_j
    LCP pairs."""
    algebra = THEOREM[name]
    shapes = [blocks_of(A) for A in algebra.components]
    ring = [{"p": cr.p, "e": cr.e, "r": cr.r} for cr in algebra.ring.components]
    rows = [" ".join(map(str, row)) for row in algebra.group.table]
    (tmp_path / "group.txt").write_text("\n".join([str(algebra.group.n)] + rows), encoding="utf-8")
    path = tmp_path / "algebra.json"
    doc = {"ring": ring, "group": {"table": "group.txt"}, "codes": {}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--config", str(path), "--json", "--max-ideals", str(algebra.size), "search-lcp"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ideal_count"] == prod((e + 1) ** b for e, b in shapes)
    assert report["lcp_pair_count"] == prod(2**b for _, b in shapes)


@pytest.mark.parametrize("name", ["GR(4,2)[C3]", "F5[S3]", "Z9[C4]", "Z36[C2]"])
def test_block_route_walks_nothing_and_sums_nothing(name, monkeypatch):
    """A separable component off the gcd path takes no element walk, no
    sum, and at most one closure per exponent vector."""
    algebra = ALGEBRAS[name]
    walks = count_calls(monkeypatch, GroupAlgebra.elements)
    sums = count_calls(monkeypatch, code_sum)
    closures = count_calls(monkeypatch, GroupCode.from_generators.__func__)
    for A in separable_components(algebra):
        if codes._gcd_path(A, A.ring.components[0]):
            continue
        del walks[:], sums[:], closures[:]
        ideals = codes._chain_ideals(A)
        e, b = blocks_of(A)
        assert walks == sums == []
        assert len(closures) <= (e + 1) ** b == len(ideals)
