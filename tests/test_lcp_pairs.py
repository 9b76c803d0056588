"""LCP pairs read off the listing of each CRT component.

(C, D) is an LCP pair exactly when C = R[G] e and D = R[G] (1 - e) for a
central idempotent e, so per component the complemented ideals are the sums
of whole blocks.  On the gcd path ``polycodes.divisors`` lists the
<prod f_i^(a_i)>, 0 <= a_i <= p^t, and on the block route
``codes._chain_ideals`` the closures of sum_i gamma^(a_i) e_i, 0 <= a_i <=
e; there a form has a complement when every a_i is an end value, and the
complement flips them.  These tests hold that rule and that complement to
``_component_verdict`` of (P, iota(P)^perp) on every such form, the pairs
``search-lcp`` reports to the full scan of all ordered pairs, and bound
what ``search-lcp`` computes: no ``lcp_check``, no dual or kernel for an
ideal without a complement on those routes, and one test per form of a
walked component.
"""

import json

import pytest

from lcpcodes import cli, codes, linalg
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, code_dual, code_involute, code_sum, enumerate_ideals, lcp_check
from lcpcodes.groups import cyclic, dihedral
from lcpcodes.rings import ChainRing, ProductRing

from counting import count_calls
from oracles import full_scan_lcp_pairs
from test_ideal_search import SEARCH_CORPUS
from test_output_identity import load_perfbench


def _algebras(tmp_path_factory):
    """{name: algebra}: SEARCH_CORPUS, the ``search`` workload's algebras at
    seeds 1 and 7, and F2[C12]."""
    out = {}
    for name, (ring, group) in SEARCH_CORPUS.items():
        out[name] = GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, None))
    gen = load_perfbench("gen")
    for seed in (1, 7):
        jobs, configs = gen.build("search", seed)
        where = tmp_path_factory.mktemp(f"search-{seed}")
        gen.write_configs(configs, str(where))
        for job in jobs:
            out[job["label"].split()[-1]] = cli.load_config(str(where / job["config"])).algebra
    out["F2[C12]"] = GroupAlgebra(ProductRing([ChainRing(2)]), cyclic(12))
    return out


@pytest.fixture(scope="module")
def algebras(tmp_path_factory):
    return _algebras(tmp_path_factory)


def test_the_algebras_cover_both_routes_and_the_workload(algebras):
    assert {"Z6[C4]", "F3[C7]", "F2[C12]"} <= set(algebras)
    routes = {
        "gcd" if codes._gcd_path(A, A.ring.components[0]) else "blocks"
        for algebra in algebras.values()
        for A in algebra.components
        if codes._gcd_path(A, A.ring.components[0]) or codes._separable(A, A.ring.components[0])
    }
    assert routes == {"gcd", "blocks"}


def test_end_exponent_rule_matches_the_component_verdict(algebras):
    """On every form P of every gcd-path and block-route component: P has a
    complement exactly when (P, iota(P)^perp) is complementary by
    ``_component_verdict`` of their sum, and the flipped form is
    iota(P)^perp."""
    checked = 0
    for algebra in algebras.values():
        for A in algebra.components:
            cr = A.ring.components[0]
            if not (codes._gcd_path(A, cr) or codes._separable(A, cr)):
                continue
            for P, Q in codes._chain_ideals(A):
                X = GroupCode(A, (P,))
                (D,) = code_dual(code_involute(X)).components
                total = code_sum(X, GroupCode(A, (D,))).cardinality()
                assert (Q is not None) == codes._component_verdict(P, D, total)[1]
                if Q is not None:
                    assert Q == D
                checked += 1
    assert checked > 200


BIG = {
    "F2[C12]": (ProductRing([ChainRing(2)]), cyclic(12)),
    "F2[D6]": (ProductRing([ChainRing(2)]), dihedral(6)),
    "Z4[C6]": (ProductRing([ChainRing(2, 2)]), cyclic(6)),
    "F4[C6]": (ProductRing([ChainRing(2, 1, 2)]), cyclic(6)),
}


def _search_lcp(algebra, tmp_path, capsys):
    ring = [{"p": cr.p, "e": cr.e, "r": cr.r} for cr in algebra.ring.components]
    rows = [" ".join(map(str, row)) for row in algebra.group.table]
    (tmp_path / "group.txt").write_text("\n".join([str(algebra.group.n)] + rows), encoding="utf-8")
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"ring": ring, "group": {"table": "group.txt"}, "codes": {}}), encoding="utf-8")
    argv = ["--config", str(path), "--json", "--max-ideals", str(algebra.size), "search-lcp"]
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(BIG))
def test_search_lcp_pairs_match_the_full_scan(name, tmp_path, capsys):
    """On the four 2^12-element algebras, the pairs ``search-lcp`` reports
    are those of the scan of every ordered pair of listed ideals."""
    algebra = GroupAlgebra(*BIG[name])
    assert algebra.size == 1 << 12
    report = _search_lcp(algebra, tmp_path, capsys)
    pairs = [(pair["c"], pair["d"]) for pair in report["lcp_pairs"]]
    assert pairs
    assert pairs == full_scan_lcp_pairs(enumerate_ideals(algebra, max_size=algebra.size))


COUNTED = {
    "F5[C4]": (ProductRing([ChainRing(5)]), cyclic(4)),
    "GR(4,2)[C3]": (ProductRing([ChainRing(2, 2, 2)]), cyclic(3)),
    "Z6[C4]": (ProductRing.from_modulus(6), cyclic(4)),
    "Z12[C2]": (ProductRing.from_modulus(12), cyclic(2)),
}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_search_lcp_computes_nothing_for_an_ideal_without_a_complement(name, tmp_path, capsys, monkeypatch):
    """No ``lcp_check``, no ``_component_verdict`` and no dual: a complement
    is read off the listing's exponents, also on Z12[C2]'s walked Z4 part
    (one block, so only 0 and all of Z4[C2] have complements), and each
    reported pair is checked by sizes and inner products.  No kernel runs,
    as the Z4 part's block count comes from the orbit sums of the
    2-regular elements of the abelian C2."""
    algebra = GroupAlgebra(*COUNTED[name])
    checks = count_calls(monkeypatch, lcp_check)
    duals = count_calls(monkeypatch, code_dual)
    kernels = count_calls(monkeypatch, linalg.kernel)
    verdicts = count_calls(monkeypatch, codes._component_verdict)
    report = _search_lcp(algebra, tmp_path, capsys)
    monkeypatch.undo()
    ideals = enumerate_ideals(algebra)
    lcp = [ideals[pair["c"]] for pair in report["lcp_pairs"]]
    assert checks == []
    assert lcp and (len(lcp) < len(ideals) or name == "F5[C4]")  # F5[C4] splits into four fields
    walked = [
        A
        for A in algebra.components
        if not (codes._gcd_path(A, A.ring.components[0]) or codes._separable(A, A.ring.components[0]))
    ]
    assert len(walked) == (name == "Z12[C2]")
    assert verdicts == duals == kernels == []
