"""The dual-equivalence witness of every benchmark report, verified.

For an LCP pair (C, D), D^perp = iota(C), so a report's equivalence status
is ``found`` and its permutation carries D^perp onto C.
``perfbench/check.py::Checker`` reads neither field.  Here every ``lcp``
job whose pair is LCP and every pair of every ``search-lcp`` report of the
``reduce``, ``enumerate`` and ``search`` workloads at seeds 1 and 7 is held
to both, with D^perp from ``code_dual`` and the permutation checked by
``verify_permutation``; one planted wrong permutation must not pass.
"""

import json

import pytest

from lcpcodes import cli
from lcpcodes.codes import code_dual, enumerate_ideals
from lcpcodes.equivalence import STATUS_FOUND, verify_permutation

from test_output_identity import SEEDS, WORKLOADS, load_perfbench
from test_report_checker import run_json


@pytest.fixture(scope="module")
def gen():
    return load_perfbench("gen")


def witnesses(job, directory):
    """[(status, C, D, permutation)] for each LCP pair the job's ``--json``
    report names: the pair of an ``lcp`` report that found it LCP, every
    listed pair of a ``search-lcp`` report."""
    argv = ["--config", str(directory / job["config"])] + job["argv"]
    args = cli._parser().parse_args(argv)
    if args.cmd not in ("lcp", "search-lcp"):
        return []
    _, out = run_json(job, directory)
    report = json.loads(out)
    cfg = cli.load_config(args.config)
    if args.cmd == "lcp":
        if not report["is_lcp"]:
            return []
        eq = report["equivalence"]
        C, D = cli._get_code(cfg, args.name_c), cli._get_code(cfg, args.name_d)
        return [(eq["status"], C, D, eq["permutation"])]
    ideals = enumerate_ideals(cfg.algebra, max_size=args.max_ideals)
    return [
        (pair["equivalence_status"], ideals[pair["c"]], ideals[pair["d"]], pair["permutation"])
        for pair in report["lcp_pairs"]
    ]


def holds(status, C, D, permutation):
    return status == STATUS_FOUND and verify_permutation(code_dual(D), C, permutation)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_reported_witness_carries_the_dual_onto_c(gen, tmp_path, workload, seed):
    jobs, configs = gen.build(workload, seed)
    gen.write_configs(configs, str(tmp_path))
    found = {}
    for job in jobs:
        for witness in witnesses(job, tmp_path):
            assert holds(*witness), job["label"]
            found[job["label"]] = found.get(job["label"], 0) + 1
    lcp_jobs = {job["label"] for job in jobs if job["check"]["kind"] == "lcp" and job["check"]["is_lcp"]}
    assert lcp_jobs <= set(found)
    if workload != "reduce":  # its lcp pairs are not LCP, and it runs no search
        assert found


def test_a_reversed_permutation_fails(gen, tmp_path):
    """The witness of ``lcp F2[C7]`` reversed no longer carries D^perp onto
    C.  (Reversal is no fault for every pair: on F4[C9] it still does.)"""
    jobs, configs = gen.build("enumerate", 1)
    gen.write_configs(configs, str(tmp_path))
    job = next(job for job in jobs if job["label"] == "lcp F2[C7]")
    ((status, C, D, permutation),) = witnesses(job, tmp_path)
    assert holds(status, C, D, permutation)
    assert not holds(status, C, D, permutation[::-1])
