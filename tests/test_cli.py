"""Command-line behavior: reports, exit codes, determinism, JSON round trips."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from lcpcodes import cli, equivalence

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


def test_search_lcp_checks_each_ideal_once(capsys, monkeypatch, tmp_path):
    """One lcp_check per ideal: F2[C2xC2xC2] has 47 ideals, and scanning
    every same-size candidate took 425 checks."""
    calls = []
    real = cli.lcp_check
    monkeypatch.setattr(cli, "lcp_check", lambda *a, **k: calls.append(1) or real(*a, **k))
    doc, _ = GOLDEN_SEARCH["F2[C2xC2xC2]"]
    path = tmp_path / "f2c2c2c2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "--config", str(path), "--json", "search-lcp")
    assert code == 0
    assert report["ideal_count"] == len(calls) == 47


def test_search_lcp_takes_each_dual_once(capsys, monkeypatch, tmp_path):
    """One code_dual per ideal, for its complement D = iota(C)^perp; the
    comparison of C with D^perp reuses iota(C) instead of dualising D again
    (which would make 49 calls)."""
    calls = []
    real = cli.code_dual
    counted = lambda *a, **k: calls.append(1) or real(*a, **k)  # noqa: E731
    monkeypatch.setattr(cli, "code_dual", counted)
    monkeypatch.setattr(equivalence, "code_dual", counted)
    doc, _ = GOLDEN_SEARCH["F2[C2xC2xC2]"]
    path = tmp_path / "f2c2c2c2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "--config", str(path), "--json", "search-lcp")
    assert code == 0
    assert report["lcp_pair_count"] > 0
    assert report["ideal_count"] == len(calls) == 47


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


def test_unparseable_config_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(bad), "info")
    assert code == 2
    assert "not valid JSON" in err
    code, _, err = run(capsys, "--config", str(tmp_path / "missing.json"), "info")
    assert code == 2


def run_process(*argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "lcpcodes.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
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
    from lcpcodes.codes import code_from_generators
    from lcpcodes.groups import cyclic
    from lcpcodes.rings import ChainRing, ProductRing

    algebra = GroupAlgebra(ProductRing([ChainRing(2, 1, 1)]), cyclic(3))
    D = code_from_generators(algebra, [algebra.one()])  # full algebra
    masks = set()
    for seed in range(16):
        m1 = cli._sample_mask(D, cli.Lcg(seed))
        m2 = cli._sample_mask(D, cli.Lcg(seed))
        assert m1 == m2
        assert D.contains(m1)
        masks.add(m1)
    assert len(masks) > 1


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
    ],
    ids=["codes-list", "e-string", "p-string", "n-string", "modulus-string", "cyclic-no-n",
         "symmetric-no-m", "table-int", "factors-object", "index-bool", "table-missing"],
)
def test_malformed_config_exit_two(tmp_path, doc, word):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_process("--config", str(path), "info")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and word in proc.stderr


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
