"""Weights from the smaller side, held to the brute force.

``weight_enumerator`` walks a partner with the weights of C^perp in C's
place where that is the smaller side, and carries its counts over by the
MacWilliams identity (``codes._macwilliams``).  Here the counts it derives
are held to ``oracles.tallied_weights``, the tally of a code's own words,
for both sides of every ideal of the corpora and of every LCP pair that a
``search-lcp`` job of the workloads lists; the transform is held to
``perfbench/check.py::macwilliams``; and its guard must refuse vectors that
are no weight enumerator.  On the ``lcp`` pairs of F2[C31] and Z6[C35],
whose C is far past the enumeration cap, the distance walks D alone and no
kernel runs.
"""

import json
from fractions import Fraction

import pytest

from lcpcodes import cli, linalg
from lcpcodes.algebra import GroupAlgebra
from lcpcodes.codes import GroupCode, _macwilliams, code_dual, enumerate_ideals, weight_enumerator

from counting import count_calls
from oracles import tallied_weights
from test_fast_paths import CORPORA
from test_ideal_search import SEARCH_CORPUS
from test_output_identity import LCP_PAIRS, SEEDS, WORKLOADS, load_perfbench
from test_packed_walk import WEIGHT_CORPUS
from test_report_checker import run_json


def corpus_algebras() -> dict:
    """{name: algebra} over the weight, search and fast-path corpora."""
    out = {name: GroupAlgebra(*args) for name, args in {**CORPORA, **WEIGHT_CORPUS}.items()}
    for name, (ring, group) in SEARCH_CORPUS.items():
        out[name] = GroupAlgebra(cli.parse_ring(ring), cli.parse_group(group, ""))
    return out


def fresh(X):
    """X with nothing cached."""
    return GroupCode.from_components(X.algebra, X.components)


def derived_both_ways(C, D):
    """Assert that the counts of C taken with D as partner, and of D taken
    with C as partner, equal the tallies of their own words, on fresh codes,
    so each side is walked or transformed here; return how many of the two
    were transformed."""
    for X, Y in ((C, D), (D, C)):
        assert weight_enumerator(fresh(X), _partner=fresh(Y)) == tallied_weights(X)
    return C.dual_is_smaller() + D.dual_is_smaller()


@pytest.mark.parametrize("name", sorted(corpus_algebras()))
def test_both_sides_of_every_ideal_match_the_tallies(name):
    """C with C^perp as partner, and C^perp with C: the larger of the two is
    the transform of the other's walk."""
    algebra = corpus_algebras()[name]
    transformed = sum(derived_both_ways(C, code_dual(C)) for C in enumerate_ideals(algebra))
    assert transformed


@pytest.fixture(scope="module")
def search_pairs(tmp_path_factory):
    """{algebra label: [(C, D)]}: every pair that a search-lcp job of the
    workloads lists, the job run once per distinct config."""
    gen = load_perfbench("gen")
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            jobs, configs = gen.build(workload, seed)
            where = tmp_path_factory.mktemp(f"{workload}-{seed}")
            gen.write_configs(configs, str(where))
            for job in jobs:
                if job["argv"] != ["search-lcp"] or job["label"] in out:
                    continue
                code, stdout = run_json(job, where)
                assert code == 0
                ideals = enumerate_ideals(cli.load_config(str(where / job["config"])).algebra)
                out[job["label"]] = [(ideals[p["c"]], ideals[p["d"]]) for p in json.loads(stdout)["lcp_pairs"]]
    return out


def test_every_search_lcp_pair_matches_the_tallies(search_pairs):
    """Both sides of every listed pair, among them rings with r > 1 and
    product rings."""
    assert search_pairs
    transformed = sum(derived_both_ways(C, D) for pairs in search_pairs.values() for C, D in pairs)
    assert transformed
    rings = {C.algebra.ring for pairs in search_pairs.values() for C, _ in pairs}
    assert any(ring.s > 1 for ring in rings)
    assert any(cr.r > 1 for ring in rings for cr in ring.components)


def test_transform_matches_the_checker(search_pairs):
    """The library's recurrence against the checker's triple sum, on D's
    counts for every listed pair whose C is the larger side."""
    check = load_perfbench("check")
    seen = 0
    for pairs in search_pairs.values():
        for C, D in pairs:
            if not C.dual_is_smaller():
                continue
            walked = weight_enumerator(fresh(D))
            q, n = C.algebra.ring.size, C.algebra.group.n
            expect = check.macwilliams(walked, q, n)
            assert all(isinstance(x, Fraction) and x.denominator == 1 for x in expect)
            assert _macwilliams(walked, q, C.cardinality()) == tuple(int(x) for x in expect)
            seen += 1
    assert seen


@pytest.mark.parametrize(
    "weights, q, size",
    [
        ((1, 1, 1, 0), 2, 3),  # counts (3, 3, 1, 1) / 3: not integers
        ((1, 0, 3), 2, 1),  # counts (1, -1, 1): negative
        ((2, 0, 0, 0), 2, 4),  # counts (1, 3, 3, 1): they sum to 8, not 4
    ],
)
def test_the_guard_refuses_a_vector_that_is_no_weight_enumerator(weights, q, size):
    with pytest.raises(AssertionError, match="no weight enumerator"):
        _macwilliams(weights, q, size)


@pytest.mark.parametrize("name, d, words", [("F2[C31]", 3, 32), ("Z6[C35]", 2, 6)])
def test_gap_lcp_walks_only_d_and_takes_no_kernel(tmp_path, capsys, monkeypatch, name, d, words):
    """``lcp C D`` walks D's forms (32 and 6 words) for the distance, and no
    ``linalg.kernel`` call runs: both rings are prime fields over a cyclic
    group, so the involute and its dual come from generator polynomials."""
    _, doc = LCP_PAIRS[name]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = cli.load_config(str(path))
    C, D = (cli._get_code(cfg, x) for x in ("C", "D"))
    assert C.cardinality() > linalg.DEFAULT_ENUM_CAP
    walks = count_calls(monkeypatch, linalg._nonzero_flags)
    kernels = count_calls(monkeypatch, linalg.kernel)
    assert cli.main(["--config", str(path), "--json", "lcp", "C", "D"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d_c"] == report["d_d_dual"] == d
    assert walks == list(D.components)
    assert D.cardinality() == words
    assert kernels == []
