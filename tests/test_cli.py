"""Command-line behavior: reports, exit codes, determinism, JSON round trips."""

import gc
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from lcpcodes import cli, codes, equivalence

from oracles import code_generators

RUNNING_CONFIG = {
    "ring": [{"p": 2, "e": 1, "r": 1}],
    "group": {"family": "cyclic", "n": 3},
    "codes": {
        "C": [[[0, 1], [1, 1]]],
        "D": [[[0, 1], [1, 1], [2, 1]]],
        "Z": [],
    },
    "seed": 0,
}

Z6_CONFIG = {
    "ring": 6,
    "group": {"family": "cyclic", "n": 2},
    "codes": {
        "C": [[[0, 3]], [[0, 1], [1, 1]]],
        "E": [[[0, 2], [1, 2]]],
    },
    "seed": 0,
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "running.json"
    path.write_text(json.dumps(RUNNING_CONFIG), encoding="utf-8")
    return str(path)


@pytest.fixture
def z6_path(tmp_path):
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(Z6_CONFIG), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_info(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "info")
    assert code == 0
    assert report["algebra_size"] == 8
    assert report["ring"]["s"] == 1
    assert report["group"]["order"] == 3


def test_info_z6(capsys, z6_path):
    code, report, _ = run_json(capsys, "--config", z6_path, "--json", "info")
    assert code == 0
    assert report["algebra_size"] == 36
    assert report["ring"]["s"] == 2


def test_code_and_dual(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "code", "C")
    assert code == 0
    assert report["cardinality"] == 4
    assert report["two_sided"] is True
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "dual", "D")
    assert code == 0
    assert report["cardinality"] == 4


def test_dual_of_zero_code_is_full_algebra(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "code", "Z")
    assert code == 0 and report["cardinality"] == 1
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "dual", "Z")
    assert code == 0
    assert report["cardinality"] == 8


def test_zero_code_mindist_flag(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "mindist", "Z")
    assert code == 0
    assert report["zero_code"] is True
    assert report["min_distance"] == 4  # n + 1 convention


def test_mindist(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "mindist", "C")
    assert code == 0
    assert report["min_distance"] == 2
    assert report["weight_enumerator"] == [1, 0, 3, 0]
    assert report["zero_code"] is False


def test_lcp_true_exit_zero(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "lcp", "C", "D")
    assert code == 0
    assert report["is_lcp"] is True
    assert report["security_parameter"] == 2
    assert report["d_c"] == report["d_d_dual"] == 2
    assert report["equivalence"]["status"] == "found"
    assert report["equivalence"]["permutation"] == [0, 1, 2]


def test_lcp_with_a_wrong_involute_exits_four(capsys, monkeypatch, cfg_path):
    """D^perp = iota(C) holds for every LCP pair of two-sided ideals, and
    gives d(D^perp) = d(C); an involute that broke it is a fault of the
    program, reported with exit 4, never as a verdict.  Here iota(C) is
    replaced by C^perp = D, whose dual is C, not D."""
    monkeypatch.setattr(equivalence, "code_involute", codes.code_dual)
    code, out, err = run(capsys, "--config", cfg_path, "lcp", "C", "D")
    assert (code, out) == (4, "")
    assert err == "internal error: AssertionError: LCP pair with iota(C)^perp != D; D^perp must be iota(C)\n"


def test_lcp_false_exit_one(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "lcp", "C", "C")
    assert code == 1
    assert report["is_lcp"] is False


def test_dsm_roundtrip_and_membership_failure(capsys, cfg_path):
    code, report, _ = run_json(
        capsys, "--config", cfg_path, "--json", "dsm", "C", "D", "[[1,1],[2,1]]"
    )
    assert code == 0
    assert report["exact_roundtrip"] is True
    assert report["recovered_message"] == report["message"]
    # (1, 0, 0) is not a codeword of C
    code, _, err = run(capsys, "--config", cfg_path, "dsm", "C", "D", "[[0,1]]")
    assert code == 2
    assert "not in code" in err


def test_dsm_seed_reproducible(capsys, cfg_path):
    args = ("--config", cfg_path, "--json", "dsm", "C", "D", "[[1,1],[2,1]]")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_lcp(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "search-lcp")
    assert code == 0
    assert report["ideal_count"] == 4
    assert report["lcp_pair_count"] == 4
    assert report["distance_equality_all_pairs"] is True
    sizes = {(p["c_cardinality"], p["d_cardinality"]) for p in report["lcp_pairs"]}
    assert sizes == {(1, 8), (8, 1), (2, 4), (4, 2)}


def test_search_lcp_f2c2_only_trivial_pairs(capsys, tmp_path):
    cfg = dict(RUNNING_CONFIG)
    cfg["group"] = {"family": "cyclic", "n": 2}
    cfg["codes"] = {}
    path = tmp_path / "f2c2.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, report, _ = run_json(capsys, "--config", str(path), "--json", "search-lcp")
    assert code == 0
    assert report["ideal_count"] == 3
    sizes = {(p["c_cardinality"], p["d_cardinality"]) for p in report["lcp_pairs"]}
    assert sizes == {(1, 4), (4, 1)}


def test_search_lcp_pair_count_is_product_of_component_counts(capsys, z6_path, tmp_path):
    code, report, _ = run_json(capsys, "--config", z6_path, "--json", "search-lcp")
    assert code == 0
    # component counts over F2[C2] and F3[C2]
    f2 = {"ring": [{"p": 2}], "group": {"family": "cyclic", "n": 2}, "codes": {}}
    f3 = {"ring": [{"p": 3}], "group": {"family": "cyclic", "n": 2}, "codes": {}}
    counts = []
    for name, doc in (("f2.json", f2), ("f3.json", f3)):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        _, comp_report, _ = run_json(capsys, "--config", str(p), "--json", "search-lcp")
        counts.append(comp_report["lcp_pair_count"])
    assert report["lcp_pair_count"] == counts[0] * counts[1]


# sha256 of the `search-lcp --json` stdout; every report exits 0.  The first
# four were recorded before the search was rebuilt on orbits, CRT components
# and unique complements, the last two before each ideal's complement was
# read off the duality instead of scanned for.  F2[D6] is one of the
# 2^12-element algebras the search used to take over 10 s on.
C2 = {"family": "cyclic", "n": 2}
GOLDEN_SEARCH = {
    "F2[S3]": (
        {"ring": [{"p": 2}], "group": {"family": "symmetric", "m": 3}},
        "130c5ae51dea8165df59ccb84ec0b7e4e40ea2f2c698b22548b395bd999fecd9",
    ),
    "Z6[C3]": (
        {"ring": 6, "group": {"family": "cyclic", "n": 3}},
        "aacf1f47e7bde08ac322af631fd0be4e0109a3fbdf71b4748cd9ad1fe59920ac",
    ),
    "GR(4,2)[C3]": (
        {"ring": [{"p": 2, "e": 2, "r": 2}], "group": {"family": "cyclic", "n": 3}},
        "a536247f55ed6ae2cdbd82381891086ac6bb2cf5226dc9d1ce8389f0b18152d0",
    ),
    "F2[D6]": (
        {"ring": [{"p": 2}], "group": {"family": "dihedral", "n": 6}},
        "ca70954230999dc23eb2788495a03d5962ccc504006f70d080acc175268a43cd",
    ),
    "F2[C2xC2xC2]": (
        {"ring": [{"p": 2}], "group": {"family": "product", "factors": [C2, C2, C2]}},
        "ced89417631f5eaa9e527aeecbd33e62c2f7644130c4c80b19ba8498568f328b",
    ),
    "Z4[C2xC2]": (
        {"ring": [{"p": 2, "e": 2}], "group": {"family": "product", "factors": [C2, C2]}},
        "b748ff7bac1969b3bad385334bead02e9f8b7637a0b7423d256dcf1215b49b18",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
def test_search_lcp_report_bytes_are_pinned(capsys, tmp_path, name):
    doc, digest = GOLDEN_SEARCH[name]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(dict(doc, codes={})), encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(path), "--json", "search-lcp")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# GR(4,2)[C49], shaped like the benchmark's reduce jobs: C = u x^5 (1 - x)
# and D = u' x^20 (1 - x^7) with u, u' units (a non-LCP pair, D inside C),
# F = <sum of all g>, the complement of C.  The digests of the `--json`
# stdout were recorded with coefficient-tuple scalars, before the engine
# took r > 1 rings on table-indexed ints.
GR42_C49 = {
    "ring": [{"p": 2, "e": 2, "r": 2}],
    "group": {"family": "cyclic", "n": 49},
    "codes": {
        "C": [[[5, [[3, 1]]], [6, [[1, 3]]]]],
        "D": [[[20, [[1, 2]]], [27, [[3, 2]]]]],
        "F": [[[i, [[1, 0]]] for i in range(49)]],
    },
    "seed": 11,
}
GR42_MESSAGE = json.dumps([[3, [[2, 1]]], [4, [[2, 3]]], [10, [[0, 1]]], [11, [[0, 3]]]])
GOLDEN_EXTENSION = {
    "code": (GR42_C49, ["code", "C"], 0, "6fb76bd7db463818aae91255cf097de62d90bd9fbe600f8df01286afd69b6ff5"),
    "dual": (GR42_C49, ["dual", "D"], 0, "db420be731d23b030d5193974e4b83b795b9ba020888504c357c6e032b94ae2e"),
    "crt": (GR42_C49, ["crt", "D"], 0, "d8a5568b5004d50c7a917e3ffd4f73681ec553a0d3a039011a811b133514f9ae"),
    "lcp": (GR42_C49, ["lcp", "C", "D"], 1, "99be1aec76fafd20ade2984e506f8cad938dd12a7ae2aff5230dcf97ebee2045"),
    "dsm": (GR42_C49, ["dsm", "C", "F", GR42_MESSAGE], 0,
            "d49375ca6e7c527ac3661596f3b1af0a06b38f2c6fbf04780c299e204eb72ad4"),
    "search-lcp F4[C5]": (
        {"ring": [{"p": 2, "r": 2}], "group": {"family": "cyclic", "n": 5}, "codes": {}},
        ["search-lcp"], 0, "ca4570ad775b51ef88245fd3e3ba1f17f99dd1a53f881b33be2c60499bbe45b2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXTENSION))
def test_extension_ring_report_bytes_are_pinned(capsys, tmp_path, name):
    doc, argv, exit_code, digest = GOLDEN_EXTENSION[name]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(path), "--json", *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Z6[D22], shaped like the benchmark's dihedral reduce jobs: C = <5 - 5 r^3>
# (-5 is 1 mod 6), over a non-abelian group, so closing C runs through the
# conjugation maps.  The digests of the stdout of `code`, `dual` and `crt`,
# as text and as `--json`, were recorded before the group tables were held
# as byte rows and before reports took the pivot forms' tuples uncopied; the
# goldens above render no pivot row as text.
Z6_D22 = {
    "ring": 6,
    "group": {"family": "dihedral", "n": 22},
    "codes": {"C": [[[0, 5], [3, 1]]]},
    "seed": 0,
}
GOLDEN_Z6_D22 = {
    ("code", "--json"): "a0416d34304438c9311273f2660e9d06a191df09b43b24cfd6cb6086e48bf82b",
    ("code", "text"): "3e444b9cf09189b992223c4941966784f50dda7a2b5c110505f9ceabf18ad919",
    ("dual", "--json"): "446cba45782d23cae796bcb8d70228702fc39a1e2a306f47389e8c87d4caf4ac",
    ("dual", "text"): "12060657d4cbf88d188f29b0b3787e713961d014d9e8e870ce6a5b4697baccb5",
    ("crt", "--json"): "e9f933dba62918c622f289533acbb039b5612165e652041831b541f16e93b680",
    ("crt", "text"): "a6ac4356c9cab425fd13cd56f5605338691277a10919b06412fbdb37884ad229",
}


@pytest.mark.parametrize("cmd, mode", sorted(GOLDEN_Z6_D22))
def test_dihedral_report_bytes_are_pinned(capsys, tmp_path, cmd, mode):
    path = tmp_path / "z6d22.json"
    path.write_text(json.dumps(Z6_D22), encoding="utf-8")
    flags = ["--json"] if mode == "--json" else []
    code, out, _ = run(capsys, "--config", str(path), *flags, cmd, "C")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_Z6_D22[cmd, mode]


# Z6[C_n] LCP pairs whose two components need different permutations:
# C = <a>, D = iota(C)^perp with the generators of
# ``code_dual(code_involute(C))``.  Over Z6[C7], a = 1 + g + g^3 and
# |C| = 16 * 729; over Z6[C11], a has F2 part 1 + g and F3 part
# (g - 1)(g^5 + g^4 + 2g^3 + g^2 + 2), and |C| = 2^10 * 3^5.  The digests of
# the `lcp --json` stdout were recorded when the common search still read
# the prod_j |C_j| product words (15 s and 600 MiB over Z6[C11]).
GOLDEN_Z6_LCP = {
    "Z6[C7]": (7, [[0, 1], [1, 1], [3, 1]], [0, 1, 2, 6, 5, 3, 4],
               "f66d0fb3f5bf0d2d879de3bcaa3e92bc518969fa1fa2db66f6b3184aa9039b4f"),
    "Z6[C11]": (11, [[0, 1], [1, 5], [2, 2], [3, 2], [4, 4], [6, 4]], [0, 1, 2, 5, 9, 6, 4, 8, 10, 7, 3],
                "f88475bc52bcbef64b2dc47ebd61b2aea54793f68039df001a5f62d72c3bce19"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_Z6_LCP))
def test_product_ring_lcp_report_bytes_are_pinned(capsys, tmp_path, name):
    n, a, perm, digest = GOLDEN_Z6_LCP[name]
    doc = {"ring": 6, "group": {"family": "cyclic", "n": n}, "codes": {"C": [a]}, "seed": 0}
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = cli.load_config(str(path))
    D = codes.code_dual(codes.code_involute(cli._get_code(cfg, "C")))
    doc["codes"]["D"] = [
        [[i, [list(part) for part in x]] for i, x in enumerate(g) if x != cfg.algebra.ring.zero]
        for g in code_generators(D)
    ]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(path), "--json", "lcp", "C", "D")
    assert code == 0
    assert json.loads(out)["equivalence"]["permutation"] == perm
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_search_lcp_makes_no_lcp_check(capsys, monkeypatch, tmp_path):
    """No lcp_check: F2[C2xC2xC2] has 47 ideals, of which two have a
    complement, read off the listing; one check per ideal took 47 calls,
    and scanning every same-size candidate took 425."""
    calls = []
    real = cli.lcp_check
    monkeypatch.setattr(cli, "lcp_check", lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(codes, "lcp_check", lambda *a, **k: calls.append(1) or real(*a, **k))
    doc, _ = GOLDEN_SEARCH["F2[C2xC2xC2]"]
    path = tmp_path / "f2c2c2c2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "--config", str(path), "--json", "search-lcp")
    assert code == 0
    assert report["ideal_count"] == 47 and report["lcp_pair_count"] == 2
    assert calls == []


def test_search_lcp_takes_one_dual_per_walked_form_and_pair(capsys, monkeypatch, tmp_path):
    """F2[C2xC2xC2] is walked, as one block: its 47 forms take no test of
    their own, since only 0 and all of F2[G] have complements, and its block
    count comes from the orbit sums of its 2-regular elements (G is
    abelian), with no fixed-space kernel.  check_dual_equivalence checks
    D = iota(C)^perp on each of the two LCP pairs by sizes and inner
    products of pivot rows.  So no kernel runs at all, where one per form
    and one per pair made 49."""
    calls = []
    real = codes.kernel
    monkeypatch.setattr(codes, "kernel", lambda *a, **k: calls.append(1) or real(*a, **k))
    doc, _ = GOLDEN_SEARCH["F2[C2xC2xC2]"]
    path = tmp_path / "f2c2c2c2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "--config", str(path), "--json", "search-lcp")
    assert code == 0
    assert (report["ideal_count"], report["lcp_pair_count"]) == (47, 2)
    assert calls == []


def test_crt(capsys, z6_path):
    code, report, _ = run_json(capsys, "--config", z6_path, "--json", "crt", "C")
    assert code == 0
    assert report["recombine_identity"] is True
    # the size-12 code splits into component sizes 4 * 3
    assert report["cardinality"] == 12
    assert [c["cardinality"] for c in report["components"]] == [4, 3]


def test_unknown_code_exit_two(capsys, cfg_path):
    code, _, err = run(capsys, "--config", cfg_path, "code", "NOPE")
    assert code == 2
    assert "unknown code" in err


@pytest.fixture
def closures(monkeypatch):
    """The generators of every ideal closure, in call order."""
    calls = []
    real = codes.GroupCode.from_generators.__func__

    def counted(cls, algebra, generators, **kwargs):
        calls.append(tuple(generators))
        return real(cls, algebra, generators, **kwargs)

    monkeypatch.setattr(codes.GroupCode, "from_generators", classmethod(counted))
    return calls


def test_codes_are_closed_on_first_use(capsys, cfg_path, closures):
    """A command closes the codes it reads, each once; ``info`` lists every
    name and closes none."""
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "info")
    assert code == 0 and report["codes"] == ["C", "D", "Z"] and closures == []
    assert run_json(capsys, "--config", cfg_path, "--json", "mindist", "Z")[0] == 0
    assert closures == [()]
    closures.clear()
    assert run_json(capsys, "--config", cfg_path, "--json", "lcp", "C", "C")[0] == 1
    assert len(closures) == 1
    closures.clear()
    assert run_json(capsys, "--config", cfg_path, "--json", "lcp", "C", "D")[0] == 0
    assert len(closures) == 2


@pytest.mark.parametrize(
    "bad, word",
    [([[[7, 1]]], "group index 7"), ([[[0, "x"]]], "coefficient"), ("x", "list of generators")],
    ids=["index", "coefficient", "not-a-list"],
)
def test_malformed_unused_code_exit_two(capsys, tmp_path, closures, bad, word):
    """Every generator is parsed and checked with the config, so a malformed
    code exits 2 with its one-line message also when the command does not
    read it."""
    path = tmp_path / "unused.json"
    doc = dict(RUNNING_CONFIG, codes=dict(RUNNING_CONFIG["codes"], B=bad))
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "--config", str(path), "mindist", "C")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and word in err
    assert closures == []


@pytest.mark.parametrize("fault", [MemoryError("no room"), AssertionError("invariant broken")], ids=repr)
def test_internal_fault_exits_four(capsys, monkeypatch, cfg_path, fault):
    """A fault of the program is not a verdict: one line and exit 4, not a
    traceback and exit 1, which means "not LCP"."""

    def broken(cfg, args):
        raise fault

    monkeypatch.setattr(cli, "cmd_code", broken)
    code, out, err = run(capsys, "--config", cfg_path, "--json", "code", "C")
    assert (code, out) == (4, "")
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_interrupt_is_not_an_internal_fault(monkeypatch, cfg_path):
    """Only ``Exception`` is caught: an interrupt, or a per-job time limit
    raised as a ``BaseException``, still propagates."""

    def interrupted(cfg, args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_code", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["--config", cfg_path, "code", "C"])


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start with the cyclic collector on or off, and put it back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_main_restores_the_collector_on_every_exit_code(capsys, cfg_path, z6_path, collector):
    """``main`` pauses the cyclic collector for the command and leaves it as
    it found it, whatever the exit code."""
    for argv, expected in (
        (("--config", cfg_path, "code", "C"), 0),
        (("--config", cfg_path, "lcp", "C", "C"), 1),
        (("--config", cfg_path, "code", "NOPE"), 2),
        (("--config", z6_path, "--max-enum", "2", "mindist", "E"), 3),
    ):
        assert run(capsys, *argv)[0] == expected
        assert gc.isenabled() is collector


def test_main_restores_the_collector_after_an_internal_fault(capsys, monkeypatch, cfg_path, collector):
    def broken(cfg, args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "cmd_code", broken)
    assert run(capsys, "--config", cfg_path, "code", "C")[0] == 4
    assert gc.isenabled() is collector


@pytest.mark.parametrize("argv", [["--help"], ["--no-such-flag", "info"]], ids=["help", "bad-flag"])
def test_main_restores_the_collector_after_argparse_exits(capsys, argv, collector):
    with pytest.raises(SystemExit):
        cli.main(argv)
    capsys.readouterr()
    assert gc.isenabled() is collector


def test_main_restores_the_collector_after_an_interrupt(monkeypatch, cfg_path, collector):
    def interrupted(cfg, args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_code", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["--config", cfg_path, "code", "C"])
    assert gc.isenabled() is collector


def test_commands_run_with_the_collector_paused(capsys, monkeypatch, cfg_path, collector):
    seen = []
    monkeypatch.setattr(cli, "cmd_info", lambda cfg, args: seen.append(gc.isenabled()) or ({"command": "x"}, 0))
    assert run(capsys, "--config", cfg_path, "--json", "info") == (0, '{"command": "x"}\n', "")
    assert seen == [False]
    assert gc.isenabled() is collector


def test_unparseable_config_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(bad), "info")
    assert code == 2
    assert "not valid JSON" in err
    code, _, err = run(capsys, "--config", str(tmp_path / "missing.json"), "info")
    assert code == 2


def run_process(*argv, address_space=None):
    """The CLI in a fresh interpreter, as a user runs it; address_space
    (bytes) caps the interpreter's virtual memory (RLIMIT_AS)."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = None
    if address_space is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run(
        [sys.executable, "-m", "lcpcodes.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit,
    )


@pytest.mark.parametrize("modulus", [2**64 - 59, (2**31 - 1) * (2**31 - 19)], ids=["p64", "p31q31"])
def test_code_over_a_64_bit_modulus(tmp_path, modulus):
    """A 64-bit prime modulus, and a product of two 31-bit primes, factor
    and reduce in a fresh interpreter within seconds."""
    doc = {
        "ring": modulus,
        "group": {"family": "cyclic", "n": 5},
        "codes": {"C": [[[0, 1], [1, modulus - 1]]]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.monotonic()
    proc = run_process("--config", str(path), "--json", "code", "C")
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["cardinality"] == modulus**4


def test_dsm_over_a_61_bit_prime_in_512_mib(tmp_path):
    """A mask coefficient is drawn as an index below p and no list of
    coefficients is built, so dsm over Z_(2^61-1)[C4] round-trips in a
    512 MiB address space."""
    p = 2**61 - 1
    doc = {
        "ring": p,
        "group": {"family": "cyclic", "n": 4},
        "codes": {"C": [[[0, 1], [1, 1], [2, 1], [3, 1]]], "D": [[[0, p - 1], [1, 1]]]},
    }
    path = tmp_path / "p61.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_process(
        "--config", str(path), "--json", "dsm", "C", "D", "[[0,5],[1,5],[2,5],[3,5]]",
        address_space=512 << 20,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["exact_roundtrip"] is True
    assert report["recovered_message"] == report["message"]


def test_unfactorable_modulus_exit_three(capsys, tmp_path):
    """(2^61 - 1)^2 (2^64 - 59) would take Pollard-Brent about 2^30 steps;
    it hits the factoring cap and exits 3 before any work."""
    modulus = (2**61 - 1) ** 2 * (2**64 - 59)
    doc = {"ring": modulus, "group": {"family": "cyclic", "n": 2}, "codes": {}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "--config", str(path), "info")
    assert code == 3 and out == ""
    assert f"factoring modulus {modulus} needs more than the cap" in err


@pytest.mark.parametrize("seed", [True, False])
def test_boolean_seed_exit_two(tmp_path, seed):
    path = tmp_path / "bool_seed.json"
    path.write_text(json.dumps(dict(RUNNING_CONFIG, seed=seed)), encoding="utf-8")
    proc = run_process("--config", str(path), "info")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "seed" in proc.stderr


F4_RING = [{"p": 2, "r": 2}]


@pytest.mark.parametrize(
    "ring, coefficient",
    [(F4_RING, [part]) for part in (["x"], [[1]], [1.5], [True], [0, None])] + [(6, True)],
    ids=repr,
)
def test_non_integer_coefficient_exit_two(tmp_path, ring, coefficient):
    doc = {
        "ring": ring,
        "group": {"family": "cyclic", "n": 3},
        "codes": {"C": [[[0, coefficient]]]},
    }
    path = tmp_path / "bad_coefficient.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_process("--config", str(path), "info")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "coefficient" in proc.stderr


@pytest.mark.parametrize("group", [{"family": "cyclic", "n": 100000}, {"family": "dihedral", "n": 129}], ids=repr)
def test_group_order_limit_exit_two(tmp_path, group):
    """The order is refused before any Cayley table is built."""
    path = tmp_path / "big_group.json"
    path.write_text(json.dumps({"ring": 6, "group": group}), encoding="utf-8")
    start = time.perf_counter()
    proc = run_process("--config", str(path), "info")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "256 limit" in proc.stderr


def test_missing_config_flag_exit_two(capsys):
    code, _, err = run(capsys, "info")
    assert code == 2
    assert "--config" in err


def test_cap_exceeded_exit_three(capsys, z6_path):
    code, _, err = run(capsys, "--config", z6_path, "--max-enum", "2", "mindist", "E")
    assert code == 3
    assert "cap" in err
    code, _, err = run(capsys, "--config", z6_path, "--max-ideals", "4", "search-lcp")
    assert code == 3
    assert "--max-ideals" in err


def test_json_reports_round_trip(capsys, cfg_path, z6_path):
    invocations = [
        ("--config", cfg_path, "--json", "info"),
        ("--config", cfg_path, "--json", "code", "C"),
        ("--config", cfg_path, "--json", "lcp", "C", "D"),
        ("--config", cfg_path, "--json", "dsm", "C", "D", "[[1,1],[2,1]]"),
        ("--config", cfg_path, "--json", "search-lcp"),
        ("--config", z6_path, "--json", "crt", "C"),
    ]
    for args in invocations:
        _, out, _ = run(capsys, *args)
        report = json.loads(out)
        assert json.dumps(report, sort_keys=True) == out.strip()


def test_byte_determinism(capsys, cfg_path, z6_path):
    for args in (
        ("--config", cfg_path, "lcp", "C", "D"),
        ("--config", cfg_path, "search-lcp"),
        ("--config", z6_path, "--json", "search-lcp"),
    ):
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


def test_flags_accepted_after_subcommand(capsys, cfg_path):
    code, report, _ = run_json(capsys, "mindist", "C", "--config", cfg_path, "--json")
    assert code == 0
    assert report["min_distance"] == 2


def test_group_from_table_file(capsys, tmp_path):
    from lcpcodes.groups import dihedral

    G = dihedral(3)
    tbl = tmp_path / "d3.tbl"
    tbl.write_text(
        "\n".join([str(G.n)] + [" ".join(map(str, row)) for row in G.table]) + "\n",
        encoding="utf-8",
    )
    doc = {"ring": [{"p": 2}], "group": {"table": "d3.tbl"}, "codes": {}}
    path = tmp_path / "tbl.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "--config", str(path), "--json", "info")
    assert code == 0
    assert report["group"]["order"] == 6
    assert report["group"]["abelian"] is False


@pytest.mark.parametrize(
    "text, message",
    [("x\n0\n", "bad order line 'x'"), ("2\n0 1\n1\n", "row '1' does not have 2 entries")],
    ids=["order-line", "short-row"],
)
def test_malformed_table_file_exit_two(capsys, tmp_path, text, message):
    (tmp_path / "g.tbl").write_text(text, encoding="utf-8")
    doc = {"ring": [{"p": 2}], "group": {"table": "g.tbl"}, "codes": {}}
    path = tmp_path / "tbl.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "--config", str(path), "info") == (2, "", f"error: {message}\n")


def test_tuple_coefficients_for_extension_components(capsys, tmp_path):
    doc = {
        "ring": [{"p": 2}, {"p": 2, "r": 2}],
        "group": {"family": "cyclic", "n": 2},
        "codes": {"C": [[[0, [1, [0, 1]]]]]},
        "seed": 0,
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "--config", str(path), "--json", "code", "C")
    assert code == 0
    assert report["cardinality"] > 1
    # integer coefficients are rejected over non-coprime components
    doc["codes"] = {"C": [[[0, 1]]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "--config", str(path), "code", "C")
    assert code == 2


def test_lcg_constants():
    rng = cli.Lcg(0)
    first = rng.next_u64()
    assert first == 1442695040888963407
    rng2 = cli.Lcg(0)
    assert rng2.next_u64() == first


def test_seed_override_changes_only_the_mask(capsys, cfg_path):
    args = ("--config", cfg_path, "--json", "dsm", "C", "D", "[[1,1],[2,1]]")
    _, out_default, _ = run(capsys, *args)
    _, out_zero, _ = run(capsys, *args, "--seed", "0")
    assert out_default == out_zero  # config seed is 0
    code, report, _ = run_json(capsys, *args, "--seed", "12345")
    assert code == 0
    assert report["seed"] == 12345
    assert report["exact_roundtrip"] is True
    assert report["message"] == json.loads(out_zero)["message"]


def test_mask_sampling_is_deterministic_and_in_code():
    from lcpcodes.algebra import GroupAlgebra
    from lcpcodes.codes import GroupCode
    from lcpcodes.groups import cyclic
    from lcpcodes.rings import ChainRing, ProductRing

    algebra = GroupAlgebra(ProductRing([ChainRing(2, 1, 1)]), cyclic(3))
    D = GroupCode.from_generators(algebra, [algebra.one()])  # full algebra
    masks = set()
    for seed in range(16):
        m1 = cli._sample_mask(D, cli.Lcg(seed))
        m2 = cli._sample_mask(D, cli.Lcg(seed))
        assert m1 == m2
        assert D.contains(m1)
        masks.add(m1)
    assert len(masks) > 1


def test_mask_draws_reach_above_2_64():
    """Over Z_(p^2), p = 2^64 - 59, the full code's mask is one draw below
    p^2 ~ 2^128; a single 64-bit word would never reach 2^64."""
    from lcpcodes.algebra import GroupAlgebra
    from lcpcodes.codes import GroupCode
    from lcpcodes.groups import cyclic
    from lcpcodes.rings import ChainRing, ProductRing

    p = 2**64 - 59
    algebra = GroupAlgebra(ProductRing([ChainRing(p, 2, 1)]), cyclic(1))
    D = GroupCode.from_generators(algebra, [algebra.one()])
    for seed in (1, 2, 3):
        mask = cli._sample_mask(D, cli.Lcg(seed))
        assert D.contains(mask)
        assert 2**64 <= mask[0][0][0] < p**2  # coordinate 0, component 0, digit 0


def test_mask_draws_are_unbiased_inside_64_bits():
    """p ~ 2^65 / 3: a word mod p would put a third of the draws in
    [p/2, p), not half."""
    p = 12297829382473034447
    rng = cli.Lcg(1)
    high = sum(rng.randrange(p) >= p // 2 for _ in range(30000))
    assert 0.48 < high / 30000 < 0.52


class _Words(cli.Lcg):
    """An ``Lcg`` whose words are given."""

    def __init__(self, words):
        super().__init__()
        self.words = iter(words)

    def next_u64(self):
        return next(self.words)


def test_randrange_redraws_above_the_last_multiple():
    p = 12297829382473034447  # 2^64 // p = 1, so words at or above p are redrawn
    rng = _Words([p, 2**64 - 1, 7, 9])
    assert rng.randrange(p) == 7
    assert next(rng.words) == 9
    assert _Words([5]).randrange(2**64) == 5  # one word, never redrawn
    assert _Words([1, 3]).randrange(2**64 + 1) == (2**64 + 3) % (2**64 + 1)  # first word high


def nested_products(depth):
    """Config text whose group nests ``depth`` two-factor ``product`` groups."""
    group = '{"family": "cyclic", "n": 1}'
    for _ in range(depth):
        group = f'{{"family": "product", "factors": [{group}, {{"family": "cyclic", "n": 1}}]}}'
    return f'{{"ring": 6, "group": {group}}}'


@pytest.mark.parametrize(
    "doc, word",
    [
        (dict(RUNNING_CONFIG, codes=[["C", [[[0, 1]]]]]), "codes"),
        ({"ring": [{"p": 2, "e": "x"}], "group": {"family": "cyclic", "n": 3}}, "'e'"),
        ({"ring": [{"p": "2"}], "group": {"family": "cyclic", "n": 3}}, "'p'"),
        ({"ring": 6, "group": {"family": "cyclic", "n": "3"}}, "'n'"),
        ({"ring": [{"p": 2, "r": 2, "modulus": "ab"}], "group": {"family": "cyclic", "n": 3}}, "modulus"),
        ({"ring": 6, "group": {"family": "cyclic"}}, "'n'"),
        ({"ring": 6, "group": {"family": "symmetric"}}, "'n'"),
        ({"ring": 6, "group": {"table": 5}}, "table"),
        ({"ring": 6, "group": {"family": "product", "factors": {"a": 1}}}, "factors"),
        ({"ring": 6, "group": {"family": "cyclic", "n": 3}, "codes": {"C": [[[True, 1]]]}}, "index"),
        ({"ring": 6, "group": {"table": "missing.tbl"}}, "table"),
        ({"ring": 6, "group": {"table": "c257.tbl"}}, "257"),
        (dict(RUNNING_CONFIG, seed=-1), "seed"),
        (dict(RUNNING_CONFIG, seed=2**64), "seed"),
        ("[" * 100000 + "]" * 100000, "nested too deeply"),  # text: json.dumps would recurse as deep
        (nested_products(600), "nested too deeply"),
    ],
    ids=["codes-list", "e-string", "p-string", "n-string", "modulus-string", "cyclic-no-n",
         "symmetric-no-m", "table-int", "factors-object", "index-bool", "table-missing",
         "table-order", "seed-negative", "seed-2^64", "array-100000-deep", "product-600-deep"],
)
def test_malformed_config_exit_two(tmp_path, doc, word):
    # a valid Cayley table of C_257, one past the group order limit
    rows = (" ".join(str((i + j) % 257) for j in range(257)) for i in range(257))
    (tmp_path / "c257.tbl").write_text("\n".join(["257", *rows]) + "\n", encoding="utf-8")
    path = tmp_path / "malformed.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    proc = run_process("--config", str(path), "info")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and word in proc.stderr


DSM_ARGS = ["dsm", "C", "D", "[[1,1],[2,1]]"]


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--seed", "-1", *DSM_ARGS], "seed -1"),
        (["--seed", str(2**64), *DSM_ARGS], "seed"),
        ([*DSM_ARGS, "--seed", str(2**64 + 1)], "seed"),
        (["--max-enum", "-1", "mindist", "C"], "--max-enum -1"),
        (["mindist", "C", "--max-enum", "-1"], "--max-enum -1"),
        (["--max-ideals", "-5", "search-lcp"], "--max-ideals -5"),
        (["--seed", "abc", "info"], "error: argument --seed: invalid int value: 'abc'"),
        (["--no-such-flag", "info"], "error: unrecognized arguments: --no-such-flag"),
        (["no-such-command"], "error: argument cmd: invalid choice: 'no-such-command'"),
        (["code"], "error: the following arguments are required: name"),
    ],
    ids=[
        "seed-negative", "seed-2^64", "seed-2^64+1", "max-enum", "max-enum-after", "max-ideals",
        "seed-not-int", "unknown-flag", "unknown-command", "missing-name",
    ],
)
def test_malformed_flag_exit_two(cfg_path, argv, word):
    """A seed outside [0, 2^64) or a negative cap is a usage error, not a
    seed reduced mod 2^64 or a cap that every code exceeds; argparse's own
    usage errors print one line too, not its usage block."""
    proc = run_process("--config", cfg_path, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and word in proc.stderr


F4_CYCLIC_3 = {"ring": [{"p": 2, "r": 2}], "group": {"family": "cyclic", "n": 3}}


@pytest.mark.parametrize(
    "doc, argv, word",
    [
        ({"ring": 6, "group": {"table": 5}}, ["info"], "group table path 5 must be a string"),
        ({"ring": 6, "group": {"family": "cyclic"}}, ["info"], "needs an integer 'n'"),
        (dict(F4_CYCLIC_3, codes={"C": [[[0, [[1, 0, 1]]]]]}), ["info"], "too long"),
        (dict(F4_CYCLIC_3, codes={"C": [[[0, [[True]]]]]}), ["info"], "must list integers"),
        (dict(F4_CYCLIC_3, codes={"C": [[[0, ["x"]]]]}), ["info"], "bad coefficient part 'x'"),
        (dict(RUNNING_CONFIG, codes={"C": [5]}), ["info"], "bad element literal 5"),
        ([], ["info"], "config must be an object"),
        (dict(RUNNING_CONFIG, codes=[]), ["info"], "'codes' must map code names"),
        (dict(RUNNING_CONFIG, seed=-1), ["info"], "seed -1 must be an integer"),
        (RUNNING_CONFIG, ["dsm", "C", "D", "[[0,"], "message is not a JSON element literal"),
        (RUNNING_CONFIG, ["--max-enum", "-1", "info"], "--max-enum -1 must be non-negative"),
    ],
    ids=["table-path-int", "cyclic-no-n", "part-too-long", "part-bool", "part-string",
         "element-int", "config-list", "codes-empty-list", "seed-negative", "dsm-message",
         "max-enum-negative"],
)
def test_malformed_input_exits_two_in_process(capsys, tmp_path, doc, argv, word):
    """Each malformed input is refused by its own check, here in this
    process: exit 2, no report, and one error line naming the fault."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "--config", str(path), *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and word in err


def test_flag_bounds_are_inclusive(capsys, cfg_path):
    code, report, _ = run_json(capsys, "--config", cfg_path, "--json", "--seed", str(2**64 - 1), *DSM_ARGS)
    assert code == 0 and report["seed"] == 2**64 - 1
    code, out, err = run(capsys, "--config", cfg_path, "--max-enum", "0", "mindist", "C")
    assert code == 3 and out == "" and "enumeration cap 0" in err


def test_main_builds_one_parser_and_leaks_no_option(capsys, monkeypatch, cfg_path, z6_path):
    """Repeated calls in one process print what fresh interpreters print."""
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    msg = "[[1,1],[2,1]]"
    calls = [
        ("--config", cfg_path, "--json", "--seed", "5", "dsm", "C", "D", msg),
        ("--config", cfg_path, "--json", "dsm", "C", "D", msg),
        ("--config", z6_path, "--max-enum", "2", "mindist", "E"),
        ("--config", z6_path, "--json", "mindist", "E"),
        ("--config", cfg_path, "dsm", "C", "D", msg, "--seed", "9"),
        ("--config", cfg_path, "info"),
        ("--config", z6_path, "--json", "--max-ideals", "4", "search-lcp"),
        ("--config", z6_path, "--json", "crt", "C"),
    ]
    try:
        got = [run(capsys, *argv) for argv in calls]
        # the command runs by its module binding at call time, so a function
        # rebound after the parser was built (as a tracer does) is the one called
        seen = []
        monkeypatch.setattr(cli, "cmd_info", lambda cfg, args: seen.append(1) or ({"command": "x"}, 0))
        assert run(capsys, "--config", cfg_path, "--json", "info") == (0, '{"command": "x"}\n', "")
        assert seen == [1]
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert [json.loads(out)["seed"] for _, out, _ in got[:2]] == [5, 0]
    assert [code for code, _, _ in got] == [0, 0, 3, 0, 0, 0, 3, 0]
    for argv, result in zip(calls, got):
        proc = run_process(*argv)
        assert result == (proc.returncode, proc.stdout, proc.stderr)


# An LCP pair over Z6 = F2 x F3, and one over the chain ring Z4: C = <g - 1>
# and D = <sum of all g> in R[C5] and R[C3]; the dsm message is C's generator.
PAIR_CONFIGS = {
    "Z6[C5]": (6, 5, [[0, 5], [1, 1]]),
    "Z4[C3]": ([{"p": 2, "e": 2}], 3, [[0, 3], [1, 1]]),
}


@pytest.mark.parametrize("name", sorted(PAIR_CONFIGS))
@pytest.mark.parametrize(
    "argv",
    [["code", "C"], ["dual", "C"], ["crt", "C"], ["lcp", "C", "D"], ["dsm", "C", "D", None], ["mindist", "C"],
     ["search-lcp", "--max-ideals", "7776"]],
    ids=lambda argv: argv[0],
)
def test_no_command_leaves_cyclic_garbage(capsys, tmp_path, name, argv):
    """Every cache points from a code to what was derived from it, so
    reference counting frees all of a command's data: after a warm run,
    the collector finds nothing.  The collector stays off from the first
    run to the count, so no automatic pass frees a cycle before it."""
    ring, n, gen = PAIR_CONFIGS[name]
    doc = {"ring": ring, "group": {"family": "cyclic", "n": n},
           "codes": {"C": [gen], "D": [[[i, 1] for i in range(n)]]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--config", str(path)] + [json.dumps(gen) if a is None else a for a in argv]
    was = gc.isenabled()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        gc.collect()
        assert cli.main(argv) == 0
        capsys.readouterr()
        garbage = gc.collect()
    finally:
        if was:
            gc.enable()
    assert garbage == 0
