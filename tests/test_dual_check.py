"""D = iota(C)^perp checked by sizes and inner products, with no kernel.

``check_dual_equivalence`` proves that the partner D of an LCP pair is
iota(C)^perp (iota: g -> g^-1) by ``equivalence._is_dual``: per CRT
component |iota(C_j)| |D_j| = |R_j|^n, and every pivot row of D_j is
orthogonal to every pivot row of iota(C_j).  Over a Frobenius ring
|X^perp| = |R|^n / |X|, so that is D_j = iota(C_j)^perp.  These tests hold
the check to the dual it replaced, ``code_dual(code_involute(C)) == D``, on
every ordered pair of ideals whose sizes multiply to |R[G]|, over int,
table and tuple scalars, and check that a wrong partner raises.
"""

import re

import pytest

from lcpcodes import cli
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import code_dual, code_involute, enumerate_ideals
from lcpcodes.equivalence import _is_dual, check_dual_equivalence
from lcpcodes.groups import cyclic
from lcpcodes.linalg import _scalars
from lcpcodes.rings import ChainRing, ProductRing

from test_ideal_search import SEARCH_CORPUS


def _algebras():
    out = {
        name: GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, None))
        for name, (ring, group) in SEARCH_CORPUS.items()
    }
    out["F4xF3[C3]"] = GroupAlgebra(ProductRing([ChainRing(2, 1, 2), ChainRing(3)]), cyclic(3))
    out["GR(4,2)[C3]"] = GroupAlgebra(ProductRing([ChainRing(2, 2, 2)]), cyclic(3))
    out["GR(9,2)[C2]"] = GroupAlgebra(ProductRing([ChainRing(3, 2, 2)]), cyclic(2))
    return out


ALGEBRAS = _algebras()


def test_the_algebras_cover_every_scalar_kit():
    kits = {type(_scalars(cr)).__name__ for A in ALGEBRAS.values() for cr in A.ring.components}
    assert kits == {"_IntScalars", "_TableScalars", "_TupleScalars"}


def test_inner_products_agree_with_the_dual():
    """On every ordered pair (C, D) with |C| |D| = |R[G]|, D = iota(C)^perp
    by inner products exactly when it is by the kernel.  Each algebra has
    pairs that pass, and some have pairs of the right sizes that fail."""
    verdicts = []
    for A in ALGEBRAS.values():
        ideals = enumerate_ideals(A, max_size=A.size)
        found = []
        for C in ideals:
            Dd = code_involute(C)
            for D in ideals:
                if C.cardinality() * D.cardinality() == A.size:
                    verdict = _is_dual(Dd, D)
                    assert verdict == (code_dual(Dd) == D)
                    found.append(verdict)
        assert True in found
        verdicts += found
    assert False in verdicts


def test_a_wrong_partner_of_the_same_size_raises():
    """For every LCP pair (C, D), each other listed ideal of D's size put
    in D's place fails the check, and ``check_dual_equivalence`` raises."""
    swapped = 0
    for A in ALGEBRAS.values():
        ideals = enumerate_ideals(A, max_size=A.size)
        for C in ideals:
            if C._complement is None:
                continue
            D = code_dual(code_involute(C))
            assert check_dual_equivalence(C, D, _assume_lcp=True).status == "found"
            for E in ideals:
                if E != D and E.cardinality() == D.cardinality():
                    with pytest.raises(AssertionError, match=re.escape("LCP pair with iota(C)^perp != D")):
                        check_dual_equivalence(C, E, _assume_lcp=True)
                    swapped += 1
    assert swapped == 84  # over 94 LCP pairs
