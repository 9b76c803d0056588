"""Blocks of modular components, and the per-block walk they allow.

A CRT component R_j[G] = GR(p^e, r)[G] with p dividing |G| is still the
direct product of its blocks R_j[G] e_i, one per primitive central
idempotent e_i; only the blocks are no longer semisimple.  Over F_q the
e_i span the fixed space of z -> z^q on the center, for every group.
``codes._block_idempotents`` reads that space off the orbits of the
p-regular elements under g -> g^q when G is abelian, and off the kernel
of z -> z^q - z on the class sums otherwise.  ``codes._chain_ideals`` then
walks each block on its own and lists one ideal per choice of an ideal of
each block, where the whole walk visited all |R_j|^n elements.  These
tests hold the idempotents to the brute force, to the algebra's axioms
where the brute force cannot reach, and their number to the Nakayama
conjecture; the ideal sets to the worklist over every element; the
complements to the componentwise verdict; and the walk to the block sizes.
"""

import os
import pathlib
import resource
import subprocess
import sys

import pytest

from lcpcodes import cli, codes, linalg
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_dual, code_involute, code_sum
from lcpcodes.groups import cyclic, dihedral, direct_product, symmetric
from lcpcodes.linalg import RingMatrix, pivot_reduce
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import (
    conjugacy_classes,
    frobenius_fixed_space,
    naive_product,
    primitive_central_idempotents,
    summed_worklist_ideals,
    symmetric_group_block_count,
)
from test_ideal_search import SEARCH_CORPUS
from test_lcp_pairs import _search_lcp


def chain(p, e=1, r=1):
    return ProductRing([ChainRing(p, e, r)])


def _modular_components():
    """{name: chain-ring algebra}: every modular component of SEARCH_CORPUS,
    the three walked 2^12 algebras and a few more, abelian or not, one
    block or several, e = 1 or 2, r = 1 or 2."""
    out = {}
    for name, (ring, group) in SEARCH_CORPUS.items():
        algebra = GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, None))
        for A in algebra.components:
            if not codes._separable(A, A.ring.components[0]):
                out[f"{name}:{A.ring!r}"] = A
    out.update(
        {
            "F2[D6]": GroupAlgebra(chain(2), dihedral(6)),
            "Z4[C6]": GroupAlgebra(chain(2, 2), cyclic(6)),
            "F4[C6]": GroupAlgebra(chain(2, 1, 2), cyclic(6)),
            "F2[C12]": GroupAlgebra(chain(2), cyclic(12)),
            "F2[C4]": GroupAlgebra(chain(2), cyclic(4)),
            "F3[C6]": GroupAlgebra(chain(3), cyclic(6)),
            "F2[C2xC3]": GroupAlgebra(chain(2), direct_product(cyclic(2), cyclic(3))),
            "Z4[S3]": GroupAlgebra(chain(2, 2), symmetric(3)),
            "F2[D3]": GroupAlgebra(chain(2), dihedral(3)),
        }
    )
    return out


MODULAR = _modular_components()
BRUTE_LIMIT = 1 << 13


def test_the_cases_cover_every_kind_of_modular_component():
    assert {"F2[S3]:F2", "F3[S3]:F3", "Z4[C4]:Z4", "F2[D4]:F2", "Z12[C2]:Z4", "F2[C6]:F2"} <= set(MODULAR)
    blocks = {name: len(codes._block_idempotents(A)) for name, A in MODULAR.items()}
    kinds = {(A.group.is_abelian(), blocks[name] > 1) for name, A in MODULAR.items()}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert all(A.size <= BRUTE_LIMIT for A in MODULAR.values())


@pytest.mark.parametrize("name", sorted(MODULAR))
def test_modular_block_idempotents_are_the_primitive_central_idempotents(name):
    """Against every element of R_j[G] squared and commuted with G."""
    A = MODULAR[name]
    found = codes._block_idempotents(A)
    assert len(set(found)) == len(found)
    assert set(found) == primitive_central_idempotents(A)


@pytest.mark.parametrize("name", sorted(MODULAR))
def test_modular_residues_span_the_fixed_space(name):
    """The residues of the block idempotents span the kernel of
    z -> z^q - z on the class sums (``oracles.frobenius_fixed_space``),
    also where the library took no kernel (an abelian group)."""
    A = MODULAR[name]
    field, fixed = frobenius_fixed_space(A)
    n = A.group.n
    residues = [tuple(tuple(c % field.p for c in x[g][0]) for g in range(n)) for x in codes._block_idempotents(A)]
    assert pivot_reduce(RingMatrix(field, tuple(residues), n)) == fixed


# Past the brute force: |R[G]| from 2^24 to 3^120.
LARGE = {
    "F3[S4]": (chain(3), symmetric(4)),
    "F2[S4]": (chain(2), symmetric(4)),
    "F2[D15]": (chain(2), dihedral(15)),
    "F3[S5]": (chain(3), symmetric(5)),
}


@pytest.mark.parametrize("name", list(LARGE))
def test_modular_block_idempotents_past_the_brute_force(name):
    """Central (constant on the conjugacy classes), orthogonal and
    idempotent by forward convolution, and summing to 1."""
    ring, group = LARGE[name]
    A = GroupAlgebra(ring, group)
    assert group.n % ring.components[0].p == 0
    found = codes._block_idempotents(A)
    for cls in conjugacy_classes(group):
        assert all(len({x[g] for g in cls}) == 1 for x in found)
    for i, x in enumerate(found):
        assert naive_product(ring, group, x, x) == x != A.zero()
        assert all(naive_product(ring, group, x, y) == A.zero() for y in found[:i])
    total = A.zero()
    for x in found:
        total = A.add(total, x)
    assert total == A.one()


@pytest.mark.parametrize("p, m", [(2, 4), (3, 4), (2, 5), (3, 5)])
def test_block_count_of_symmetric_groups_follows_nakayama(p, m):
    """F_p[S_m] has as many blocks as there are p-cores of the sizes
    m - p w (``oracles.symmetric_group_block_count``)."""
    A = GroupAlgebra(chain(p), symmetric(m))
    assert len(codes._block_idempotents(A)) == symmetric_group_block_count(m, p)


def walked_components():
    """{name: component}: MODULAR's components with more than one block,
    and those of SEARCH_CORPUS."""
    return {
        name: A
        for name, A in MODULAR.items()
        if ":" in name or len(codes._block_idempotents(A)) > 1
    }


WALKED = walked_components()


def listed(A):
    """``codes._chain_ideals`` of A with the gcd path refused, so every
    component here is walked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_gcd_path", lambda algebra, ring: False)
        return codes._chain_ideals(A)


@pytest.mark.parametrize("name", sorted(WALKED))
def test_per_block_ideals_match_the_worklist(name):
    """The ideals listed from the blocks are those the worklist over every
    element of R_j[G] finds, each listed once."""
    A = WALKED[name]
    forms = [P for P, _ in listed(A)]
    assert len(set(forms)) == len(forms)
    assert set(forms) == {X.components[0] for X in summed_worklist_ideals(A)}


@pytest.mark.parametrize("name", sorted(WALKED))
def test_walked_complements_match_the_component_verdict(name):
    """A listed form P has a complement exactly when (P, iota(P)^perp) is
    complementary by ``_component_verdict`` of their sum, and the flipped
    form is iota(P)^perp; there are 2^b of them."""
    A = WALKED[name]
    pairs = listed(A)
    for P, Q in pairs:
        X = GroupCode(A, (P,))
        D = code_dual(code_involute(X))
        total = code_sum(X, D).cardinality()
        assert (Q is not None) == codes._component_verdict(P, D.components[0], total)[1]
        if Q is not None:
            assert Q == D.components[0]
    assert sum(Q is not None for _, Q in pairs) == 2 ** len(codes._block_idempotents(A))


BIG = ("F2[D6]", "Z4[C6]", "F4[C6]")


@pytest.mark.parametrize("name", BIG)
def test_the_walk_visits_only_the_blocks(name, monkeypatch):
    """Each block R_j[G] e_i is walked once, its elements each once, and
    no walk of all of R_j[G] runs: sum_i |R_j[G] e_i| elements, against
    |R_j[G]| = 2^12."""
    A = MODULAR[name]
    walks = []
    real = codes._walked

    def counted(algebra, elements):
        walks.append([])
        return real(algebra, (walks[-1].append(a) or a for a in elements))

    monkeypatch.setattr(codes, "_walked", counted)
    wholes = count_calls(monkeypatch, GroupAlgebra.elements)
    codes._chain_ideals(A)
    monkeypatch.undo()
    sizes = [GroupCode.from_generators(A, (x,)).cardinality() for x in primitive_central_idempotents(A)]
    assert wholes == []
    assert sorted(len(set(walk)) for walk in walks) == sorted(map(len, walks)) == sorted(sizes)
    assert sum(sizes) < A.size == 1 << 12


@pytest.mark.parametrize("name", BIG)
def test_search_lcp_on_the_walked_envelope_takes_no_dual(name, tmp_path, capsys, monkeypatch):
    """``search-lcp`` makes no ``code_dual`` and no ``_component_verdict``;
    its one kernel, over a nonabelian group only, is the fixed space's."""
    A = MODULAR[name]
    blocks = len(codes._block_idempotents(A))
    duals = count_calls(monkeypatch, code_dual)
    verdicts = count_calls(monkeypatch, codes._component_verdict)
    kernels = count_calls(monkeypatch, linalg.kernel)
    report = _search_lcp(A, tmp_path, capsys)
    assert report["lcp_pair_count"] == 2**blocks
    assert duals == verdicts == []
    assert len(kernels) == (not A.group.is_abelian())


_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
_BLOCKS = """
import sys
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import _block_idempotents
from lcpcodes.groups import cyclic, symmetric
from lcpcodes.rings import ChainRing, ProductRing
group = cyclic(4) if sys.argv[1] == "C4" else symmetric(3)
print(len(_block_idempotents(GroupAlgebra(ProductRing([ChainRing(2)]), group))))
"""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("group, blocks", [("C4", 1), ("S3", 2)])
def test_block_idempotents_return_under_a_memory_limit(group, blocks):
    """F2[C4] and F2[S3], on which the orbit loop over all the classes once
    never closed and raised MemoryError, return within 10 s in a process
    of at most 2 GiB of address space."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", _BLOCKS, group],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
        preexec_fn=_limit_memory,
        check=False,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{blocks}\n", "")
