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
the algebra, their span to the kernel of z -> z^q - z on the class sums
that the orbit sums replaced, their lift x^(p^(e-1)) to the Newton steps it
replaced, and the counts to the theorem.
"""

import json
from math import prod

import pytest

from lcpcodes import cli, codes, linalg
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_sum, enumerate_ideals
from lcpcodes.errors import ValidationError
from lcpcodes.groups import cyclic, dihedral, direct_product, group_from_table, symmetric
from lcpcodes.linalg import RingMatrix, pivot_reduce
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import (
    class_power_orbit_count,
    conjugacy_classes,
    frobenius_fixed_space,
    naive_product,
    newton_lifted_idempotents,
    power_map,
    primitive_central_idempotents,
)
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
    found = set(ideals)
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
    split from the orbit sums of its three classes, each its own orbit
    under K -> K^5."""
    A = GroupAlgebra(chain(5), symmetric(3))
    found = codes._block_idempotents(A)
    ideals = [GroupCode.from_generators(A, (x,)) for x in found]
    assert sorted(X.cardinality() for X in ideals) == [5, 5, 5**4]


def test_block_idempotents_take_no_kernel(monkeypatch):
    """The fixed space of z -> z^q is read off the orbit sums, also over a
    nonabelian group: F5[S3] makes no ``linalg.kernel`` call."""
    kernels = count_calls(monkeypatch, linalg.kernel)
    codes._block_idempotents(GroupAlgebra(chain(5), symmetric(3)))
    assert kernels == []


@pytest.mark.parametrize(
    "ring, group, p, n",
    [
        (chain(2), cyclic(4), 2, 4),
        (chain(2), symmetric(3), 2, 6),
        (chain(3), symmetric(3), 3, 6),
        (chain(2, 2), cyclic(2), 2, 2),
    ],
    ids=["F2[C4]", "F2[S3]", "F3[S3]", "Z4[C2]"],
)
def test_block_idempotents_refuse_a_modular_component(ring, group, p, n):
    """With p dividing |G|, K -> K^q need not permute the classes (on F2[C4]
    g -> g^2 sends the four onto two), so an orbit would never close: the
    split is refused before it starts, naming p and |G|."""
    with pytest.raises(ValidationError, match=rf"^block idempotents need p = {p} not dividing \|G\| = {n}$"):
        codes._block_idempotents(GroupAlgebra(ring, group))


# Separable chain-ring algebras with e >= 2, for the lift: the first six
# are past the brute force (|R[G]| > BRUTE_LIMIT), the rest within it.
LIFTS = {
    "Z16[C5]": (chain(2, 4), cyclic(5)),
    "Z27[C4]": (chain(3, 3), cyclic(4)),
    "GR(8,2)[C3]": (chain(2, 3, 2), cyclic(3)),
    "Z25[S3]": (chain(5, 2), symmetric(3)),
    "Z49[D3]": (chain(7, 2), dihedral(3)),
    "Z25[C3]": (chain(5, 2), cyclic(3)),
    "Z4[C3]": (chain(2, 2), cyclic(3)),
    "Z8[C3]": (chain(2, 3), cyclic(3)),
    "Z9[C2]": (chain(3, 2), cyclic(2)),
    "GR(4,2)[C3]": (chain(2, 2, 2), cyclic(3)),
}


@pytest.mark.parametrize("name", list(LIFTS))
def test_power_lift_matches_the_newton_lift(name):
    """Each residue block idempotent x lifts to GR(p^e, r) as
    x^(p^(e-1)): the same elements, in the same order, as Newton steps
    x <- 3x^2 - 2x^3 run until x^2 = x."""
    A = GroupAlgebra(*LIFTS[name])
    assert A.ring.components[0].e >= 2
    assert codes._block_idempotents(A) == newton_lifted_idempotents(A)


def test_lift_cases_reach_past_the_brute_force():
    past = [name for name, case in LIFTS.items() if GroupAlgebra(*case).size > BRUTE_LIMIT]
    assert past == list(LIFTS)[:6]


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


def c7_by_c3():
    """C7 x| C3 with b a b^-1 = a^2, a^i b^j at index i + 7j.  Its classes
    are {1}, those of a, a^-1, b and b^-1; g -> g^5 swaps the last two
    pairs, as 5 is not a square mod 7 and b^5 = b^-1."""

    def op(x, y):
        return (x % 7 + 2 ** (x // 7) * (y % 7)) % 7 + 7 * ((x // 7 + y // 7) % 3)

    return group_from_table([[op(x, y) for y in range(21)] for x in range(21)])


def _fixed_space_cases():
    """{name: component}, each separable component of the algebras above
    once, three nonabelian groups whose classes K -> K^q fixes, and one
    whose classes it moves."""
    seen = {}
    for name, algebra in list(ALGEBRAS.items()) + list(THEOREM.items()):
        for A in separable_components(algebra):
            if A not in seen.values():
                seen[f"{name}:{A.ring!r}"] = A
    seen["F5[D4]"] = GroupAlgebra(chain(5), dihedral(4))
    seen["F5[S4]"] = GroupAlgebra(chain(5), symmetric(4))
    seen["F7[S4]"] = GroupAlgebra(chain(7), symmetric(4))
    seen["F5[C7:C3]"] = GroupAlgebra(chain(5), c7_by_c3())
    return seen


FIXED = _fixed_space_cases()


@pytest.mark.parametrize("name", sorted(FIXED))
def test_orbit_sums_span_the_fixed_space(name):
    """(sum K)^q = sum K^q for every class K, by q - 1 forward convolutions
    over F_q; so the sums of the orbits of the classes under K -> K^q span
    the kernel of z -> z^q - z on the class sums (the route they replaced),
    and so do the residues of the block idempotents."""
    A = FIXED[name]
    field, fixed = frobenius_fixed_space(A)
    group, q = A.group, field.q
    n, power = group.n, power_map(group, q)

    def indicator(elements):
        return tuple(field.one if g in elements else field.zero for g in range(n))

    classes = conjugacy_classes(group)
    image = {K: frozenset(power[g] for g in K) for K in classes}
    assert set(image.values()) == classes
    for K in classes:
        x = z = indicator(K)
        for _ in range(q - 1):
            x = naive_product(field, group, x, z)
        assert x == indicator(image[K])
    orbits = set()
    for K in classes:
        orbit, L = set(K), image[K]
        while L != K:
            orbit |= L
            L = image[L]
        orbits.add(frozenset(orbit))
    assert len(orbits) == class_power_orbit_count(group, q)

    def span(rows):
        return pivot_reduce(RingMatrix(field, tuple(rows), n))

    assert span(map(indicator, orbits)) == fixed
    assert fixed.cardinality() == q ** len(orbits)
    blocks = codes._block_idempotents(A)
    assert span(tuple(tuple(c % field.p for c in x[g][0]) for g in range(n)) for x in blocks) == fixed


def test_block_idempotents_where_frobenius_moves_classes():
    """F5[C7 x| C3] has five classes in three orbits under K -> K^5, so
    three blocks: F5, F25 and M3(F25), of 5, 5^2 and 5^18 elements."""
    A = FIXED["F5[C7:C3]"]
    assert len(conjugacy_classes(A.group)) == 5
    assert class_power_orbit_count(A.group, 5) == 3
    ideals = [GroupCode.from_generators(A, (x,)) for x in codes._block_idempotents(A)]
    assert sorted(X.cardinality() for X in ideals) == [5, 5**2, 5**18]
