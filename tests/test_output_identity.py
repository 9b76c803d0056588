"""Output identity: every benchmark job's report is pinned byte for byte.

The runs are every job that ``perfbench/gen.py::build`` makes for the
``reduce``, ``enumerate`` and ``search`` workloads at seeds 1 and 7, each
with and without ``--json``, plus ``search-lcp`` (``--json``) on the four
2^12-element algebras and ``lcp`` on the F2[C15] Hamming pair.  Each run
goes through ``cli.main`` in this process and is hashed as the sha256 of
its stdout, stderr and exit code; ``output_manifest.json`` holds the
digests.  A change meant to alter a report needs a new manifest, written by

    PYTHONPATH=src python tests/test_output_identity.py --write

and the change should say which digests moved.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from lcpcodes import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = pathlib.Path(__file__).resolve().parent / "output_manifest.json"
WORKLOADS = ("reduce", "enumerate", "search")
SEEDS = (1, 7)
MODES = (("json", ["--json"]), ("text", []))
BIG_SEARCH = [("F2", "cyclic", 12), ("F2", "dihedral", 6), ("Z4", "cyclic", 6), ("F4", "cyclic", 6)]
# C = <1 + x + x^4>, the cyclic Hamming [15, 11] code, and D = iota(C)^perp,
# generated by its first pivot row
F2_C15_PAIR = {
    "ring": 2,
    "group": {"family": "cyclic", "n": 15},
    "codes": {
        "C": [[[0, 1], [1, 1], [4, 1]]],
        "D": [[[i, 1] for i in (0, 4, 5, 6, 7, 9, 11, 12)]],
    },
    "seed": 0,
}


def load_gen():
    """``perfbench/gen.py``, which imports its sibling ``polys`` by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


def job_sets(gen, directory):
    """{set name: [(key, label, argv, config doc)]}; the configs are written
    under ``directory``."""
    sets = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            jobs, configs = gen.build(workload, seed)
            where = directory / f"{workload}-{seed}"
            gen.write_configs(configs, str(where))
            sets[f"{workload}:{seed}"] = [
                (
                    f"{workload}:{seed}:{job['id']}:{mode}",
                    job["label"],
                    ["--config", str(where / job["config"])] + flag + job["argv"],
                    configs[job["config"]],
                )
                for job in jobs
                for mode, flag in MODES
            ]
    b = gen.Builder("search", 0)
    for ring, family, n in BIG_SEARCH:
        gen._search_job(b, gen.RINGS[ring], family, n)
    where = directory / "extra"
    gen.write_configs(dict(b.configs, **{"pair.json": F2_C15_PAIR}), str(where))
    extra = [
        (
            f"extra:{job['label']}:json",
            job["label"],
            ["--config", str(where / job["config"]), "--json"] + job["argv"],
            b.configs[job["config"]],
        )
        for job in b.jobs
    ]
    for mode, flag in MODES:
        argv = ["--config", str(where / "pair.json")] + flag + ["lcp", "C", "D"]
        extra.append((f"extra:lcp F2[C15]:{mode}", "lcp F2[C15] Hamming pair", argv, F2_C15_PAIR))
    sets["extra"] = extra
    return sets


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    blob = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    return job_sets(load_gen(), tmp_path_factory.mktemp("jobs"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [f"{w}:{s}" for w in WORKLOADS for s in SEEDS] + ["extra"])
def test_reports_match_the_manifest(sets, manifest, name):
    runs = sets[name]
    assert runs
    for key, label, argv, doc in runs:
        assert key in manifest, f"{key} ({label}) has no digest in {MANIFEST.name}"
        assert digest(argv) == manifest[key], (
            f"report of {key} ({label}) changed\n  argv: {json.dumps(argv[2:])}\n  config: {json.dumps(doc)}"
        )
    prefix = name + ":"
    assert len([k for k in manifest if k.startswith(prefix)]) == len(runs)


def test_a_one_byte_report_change_is_seen(sets, manifest, monkeypatch):
    key, _, argv, _ = next(run for run in sets["reduce:1"] if run[0].endswith(":text"))
    render = cli.render_report
    monkeypatch.setattr(cli, "render_report", lambda report, cfg: render(report, cfg) + " ")
    assert digest(argv) != manifest[key]


if __name__ == "__main__":  # write the manifest
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_output_identity.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        all_runs = [run for runs in job_sets(load_gen(), pathlib.Path(tmp)).values() for run in runs]
        digests = {key: digest(argv) for key, _, argv, _ in all_runs}
    MANIFEST.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {MANIFEST}")
