"""The benchmark's report checker, run on every benchmark job in tier-1.

``perfbench/check.py::Checker`` holds each ``--json`` report to facts the
generator knew (closed-form sizes, the message it masked) and to identities
every correct report obeys (Frobenius sizes, MacWilliams, CRT recombination,
the DSM round trip, d(C) = d(D^perp)).  Here every job that
``perfbench/gen.py::build`` makes for the ``reduce``, ``enumerate`` and
``search`` workloads at seeds 1 and 7 runs through ``cli.main`` in job order,
and a fresh checker must pass each report; two planted faults must not pass.
"""

import contextlib
import io
import json

import pytest

from lcpcodes import cli

from test_output_identity import SEEDS, WORKLOADS, load_perfbench


@pytest.fixture(scope="module")
def gen():
    return load_perfbench("gen")


@pytest.fixture(scope="module")
def check():
    return load_perfbench("check")


def run_json(job, directory):
    """(exit code, stdout) of the job's ``--json`` run."""
    argv = ["--config", str(directory / job["config"]), "--json"] + job["argv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_passes_every_report(gen, check, tmp_path, workload, seed):
    jobs, configs = gen.build(workload, seed)
    gen.write_configs(configs, str(tmp_path))
    checker = check.Checker()
    assert jobs
    for job in jobs:
        assert checker.check(job, *run_json(job, tmp_path)) is None, job["label"]


def test_checker_rejects_planted_reports(gen, check, tmp_path):
    """A mindist report with one word moved up one weight, and an lcp
    report whose security parameter is off by one."""
    jobs, configs = gen.build("enumerate", 1)
    gen.write_configs(configs, str(tmp_path))

    def verdict_after(kind, edit):
        job = next(job for job in jobs if job["check"]["kind"] == kind and job["check"].get("is_lcp", True))
        code, out = run_json(job, tmp_path)
        assert check.Checker().check(job, code, out) is None
        report = json.loads(out)
        edit(report)
        return check.Checker().check(job, code, json.dumps(report))

    def move_a_word(report):
        w, d = report["weight_enumerator"], report["min_distance"]
        w[d] -= 1
        w[d + 1] += 1

    def raise_the_parameter(report):
        report["security_parameter"] += 1

    assert verdict_after("mindist", move_a_word) is not None
    assert verdict_after("lcp", raise_the_parameter) is not None
