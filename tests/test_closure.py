"""The conjugate-at-a-time ideal closure against the one-reduction closure.

``GroupCode.from_generators`` adds the distinct conjugates h^-1 a h one at a
time and skips each one already in the left ideal spanned so far.
``oracles.conjugate_closure_forms`` reduces the left translates of every
distinct conjugate at once, as the library did before.  Howell forms are
canonical, so the two must give equal pivot forms: on every ``search-lcp``
test algebra, on the dihedral rings of the ``reduce`` benchmark with
generators that have many conjugates, on a ring of the tuple kit and a
product ring, and on generator sets that are empty, zero, central or
nested.  The generic elements of groups up to order 256 close in a few
reductions; their ``pivot_reduce`` calls are counted, not timed.
"""

import random

import pytest

from lcpcodes import cli, codes
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode
from lcpcodes.groups import dihedral, symmetric
from lcpcodes.rings import ChainRing, ProductRing

from oracles import conjugate_closure_forms
from test_ideal_search import SEARCH_CORPUS

# Algebras up to this size have every element closed; larger ones a sample.
EXHAUSTIVE = 1024


def _same_as_oracle(algebra, gens):
    code = GroupCode.from_generators(algebra, gens)
    assert code.components == conjugate_closure_forms(algebra, gens)
    return code


def _element(algebra, terms):
    """sum of c * g_i over the (index, integer c) terms."""
    R = algebra.ring
    out = list(algebra.zero())
    for i, c in terms:
        for _ in range(abs(c)):
            out[i] = (R.sub if c < 0 else R.add)(out[i], R.one)
    return tuple(out)


def _random_element(algebra, rng):
    return tuple(
        tuple(tuple(rng.randrange(cr.pe) for _ in range(cr.r)) for cr in algebra.ring.components)
        for _ in range(algebra.group.n)
    )


@pytest.mark.parametrize("name", sorted(SEARCH_CORPUS))
def test_closure_matches_oracle_on_the_search_corpus(name):
    ring, group = SEARCH_CORPUS[name]
    algebra = GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, None))
    elements = list(algebra.elements())
    rng = random.Random(name)
    if len(elements) > EXHAUSTIVE:
        elements = rng.sample(elements, 300)
    for a in elements:
        _same_as_oracle(algebra, (a,))
    for _ in range(40):
        _same_as_oracle(algebra, tuple(rng.sample(elements, rng.randint(2, 3))))


# the rings of the dihedral ``reduce`` slots, on D_22 and D_25 (orders 44, 50)
REDUCE_RINGS = {
    "Z6": ProductRing.from_modulus(6),
    "Z9": ProductRing.from_modulus(9),
    "Z10": ProductRing.from_modulus(10),
    "GR(4,2)": ProductRing([ChainRing(2, 2, 2)]),
}


@pytest.mark.parametrize("m", [22, 25])
@pytest.mark.parametrize("ring", sorted(REDUCE_RINGS))
def test_closure_matches_oracle_on_reduce_dihedral_rings(ring, m):
    """Generators c (1 - r^k) and c (1 - r^k s): the reflection r^k s has m/2
    conjugates in D_m for even m and m for odd m, so the second kind has that
    many distinct conjugates."""
    R = REDUCE_RINGS[ring]
    algebra = GroupAlgebra(R, dihedral(m))
    group = algebra.group
    units = [c for c in R.elements() if R.is_unit(c)]
    rng = random.Random(f"{ring}{m}")
    for k in (1, 3, 7):
        c = rng.choice(units)
        rotation = algebra.scale(c, _element(algebra, [(0, 1), (k, -1)]))
        reflection = algebra.scale(c, _element(algebra, [(0, 1), (k + m, -1)]))
        conjugates = {conj(tuple(reflection)) for conj in group.conjugations}
        assert len(conjugates) == (m // 2 if m % 2 == 0 else m)
        for gens in ((rotation,), (reflection,), (rotation, reflection)):
            _same_as_oracle(algebra, gens)


@pytest.mark.parametrize(
    "ring",
    [
        ProductRing([ChainRing(5, 1, 2)]),  # F25: the tuple kit
        ProductRing([ChainRing(2, 1, 2), ChainRing(3, 2)]),  # F4 x Z9
        ProductRing.from_modulus(12),  # Z4 x F3
    ],
    ids=repr,
)
def test_closure_matches_oracle_on_tuple_and_product_rings(ring):
    rng = random.Random(repr(ring))
    for group in (symmetric(3), dihedral(5)):
        algebra = GroupAlgebra(ring, group)
        for _ in range(6):
            _same_as_oracle(algebra, (_random_element(algebra, rng),))
        a, b = _random_element(algebra, rng), _random_element(algebra, rng)
        _same_as_oracle(algebra, (a, b))


def test_closure_of_empty_zero_central_and_nested_generators():
    algebra = GroupAlgebra(ProductRing.from_modulus(6), symmetric(3))
    n = algebra.group.n
    rng = random.Random(6)
    zero = algebra.zero()
    assert _same_as_oracle(algebra, ()).is_zero
    assert _same_as_oracle(algebra, (zero,)).is_zero
    assert _same_as_oracle(algebra, (zero, zero)).is_zero
    assert _same_as_oracle(algebra, (algebra.one(),)).cardinality() == algebra.size
    # central: the sum of the group and the sums of the conjugacy classes
    # of S3, (123), (132) at indices 3, 4 and the transpositions at 1, 2, 5
    total = _element(algebra, [(i, 1) for i in range(n)])
    classes = [_element(algebra, [(3, 1), (4, 1)]), _element(algebra, [(1, 2), (2, 2), (5, 2)])]
    for z in [total] + classes:
        assert all(conj(z) == z for conj in algebra.group.conjugations)
        _same_as_oracle(algebra, (z,))
    # nested: b = x a y lies in <a>, so <a, b> = <a>, in either order
    for _ in range(10):
        a, x, y = (_random_element(algebra, rng) for _ in range(3))
        b = algebra.mul(algebra.mul(x, a), y)
        closed = _same_as_oracle(algebra, (a,))
        assert _same_as_oracle(algebra, (a, b)) == closed
        assert _same_as_oracle(algebra, (b, a)) == closed
        assert _same_as_oracle(algebra, (b,)).components == GroupCode.from_generators(
            algebra, (b, zero)
        ).components


# Seed-1 random elements of the non-abelian groups up to order 256: the
# pivot_reduce calls one closure made when this closure landed (1, 3, 4, 1
# and 2), plus one.  Each reduction takes at most rank + n <= 2n rows; the
# one-reduction closure took up to n^2 rows and 1.2-27 s on these.
ENVELOPE = {
    "F2[D64]": (ProductRing([ChainRing(2)]), dihedral(64), 2),
    "F2[S5]": (ProductRing([ChainRing(2)]), symmetric(5), 4),
    "Z6[S5]": (ProductRing.from_modulus(6), symmetric(5), 5),
    "Z_(2^64-59)[D32]": (ProductRing([ChainRing(2**64 - 59)]), dihedral(32), 2),
    "F2[D128]": (ProductRing([ChainRing(2)]), dihedral(128), 3),
}


@pytest.mark.parametrize("name", list(ENVELOPE))
def test_envelope_closures_take_few_reductions(name, monkeypatch):
    ring, group, most = ENVELOPE[name]
    algebra = GroupAlgebra(ring, group)
    a = _random_element(algebra, random.Random(1))
    rows = []  # rows in, per pivot_reduce call
    real = codes.pivot_reduce
    monkeypatch.setattr(codes, "pivot_reduce", lambda M, **kw: rows.append(len(M.rows)) or real(M, **kw))
    C = GroupCode.from_generators(algebra, (a,))
    assert 1 <= len(rows) <= most
    assert max(rows) <= 2 * group.n
    monkeypatch.undo()
    assert C.is_two_sided()
    assert C.contains(a)
