"""Output identity: every benchmark job's report is pinned byte for byte.

The runs are every job that ``perfbench/gen.py::build`` makes for the
``reduce``, ``enumerate`` and ``search`` workloads at seeds 1 and 7, each
with and without ``--json``, plus ``search-lcp`` (``--json``) on the four
2^12-element algebras, ``lcp`` on the F2[C15] Hamming pair, the F2[C17]
pair and the F2[C23] Golay pair (both past the search's length limit, so
g -> g^-1 is the reported witness), ``lcp`` on the F2[C31], Z4[C15] and
Z6[C35] pairs and ``mindist`` of the F2[C31] Hamming code (C past the
enumeration cap, its distance taken from the smaller side), and the
``PATH_RUNS`` of the command paths no benchmark job reaches.  Every subcommand has a run.  Each run
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


def pair_config(n, c, d):
    """F2[C_n] with C and D each generated by the sum of the group elements
    indexed in c and d."""
    return {
        "ring": 2,
        "group": {"family": "cyclic", "n": n},
        "codes": {"C": [[[i, 1] for i in c]], "D": [[[i, 1] for i in d]]},
        "seed": 0,
    }


def rows_config(ring, n, c, d):
    """Z_ring[C_n] with C and D generated by rows given as digit strings,
    digit i the coefficient of group element i."""
    def literal(row):
        return [[i, int(a)] for i, a in enumerate(row) if a != "0"]

    codes = {"C": [literal(row) for row in c], "D": [literal(row) for row in d]}
    return {"ring": ring, "group": {"family": "cyclic", "n": n}, "codes": codes, "seed": 0}


# LCP pairs (C, D = iota(C)^perp), the first three with D generated by its
# first pivot row, the last three (C far past the enumeration cap, D within
# it) by all its pivot rows: {name: (label, config)}
LCP_PAIRS = {
    "F2[C15]": ("lcp F2[C15] Hamming pair", pair_config(15, (0, 1, 4), (0, 4, 5, 6, 7, 9, 11, 12))),
    "F2[C17]": ("lcp F2[C17] <1 + x>, <sum of G>", pair_config(17, (0, 1), range(17))),
    "F2[C23]": ("lcp F2[C23] Golay pair", pair_config(23, (0, 2, 4, 5, 6, 10, 11), (0, 11, 13, 16, 19, 20, 21, 22))),
    "F2[C31]": ("lcp F2[C31] Hamming pair", rows_config(2, 31, ["1010010000000000000000000000000"], [
        "1000010101110110001111100110100", "0100001010111011000111110011010", "0010000101011101100011111001101",
        "0001010111011000111110011010010", "0000101011101100011111001101001"])),
    "Z4[C15]": ("lcp Z4[C15] <1 + 3x + 2x^2 + x^4>", rows_config(4, 15, ["132010000000000"], [
        "100033132103120", "010003313210312", "001022111123231", "000113123013203"])),
    "Z6[C35]": ("lcp Z6[C35] <g - 1>, <sum of G>", rows_config(6, 35, ["5" + "1" + "0" * 33], ["3" * 35, "4" * 35])),
}

# mindist of C of an LCP pair, whose dual is walked in its place: {pair name: label}
MINDIST_RUNS = {"F2[C31]": "mindist F2[C31] Hamming code"}


# S3 with its identity at index 2, which the table loader moves to index 0
S3_TABLE = "6\n2 3 0 1 5 4\n4 2 1 5 0 3\n0 1 2 3 4 5\n5 0 3 4 2 1\n1 5 4 2 3 0\n3 4 5 0 1 2\n"

# Runs of the command paths no benchmark job reaches, each as text and as
# --json: ``info`` on a modulus that Pollard-Brent splits (1009 * 1013, both
# past trial division); ``code``, ``lcp`` and ``crt`` over a ``product`` group,
# with C = <sum of G> and D the augmentation ideal; ``code`` and
# ``search-lcp`` over ``S3_TABLE`` read from its file; GR(9,2)[C4] and
# F27[C2], rings past the Howell engine's table size, where it works on
# coefficient tuples; and ``search-lcp`` on Z12[C2], a product ring whose
# Z4 part is walked, and on F2[D4], walked and nonabelian.
# {name: (config, [command argv])}
PATH_RUNS = {
    "Z1022117[C3]": (
        {"ring": 1009 * 1013, "group": {"family": "cyclic", "n": 3}, "codes": {"C": [[[0, 1], [1, 1]]]}},
        [["info"]],
    ),
    "Z35[C2xD3]": (
        {
            "ring": 35,
            "group": {"family": "product", "factors": [{"family": "cyclic", "n": 2}, {"family": "dihedral", "n": 3}]},
            "codes": {"C": [[[i, 1] for i in range(12)]], "D": [[[0, 1], [i, 34]] for i in range(1, 12)]},
        },
        [["code", "C"], ["lcp", "C", "D"], ["crt", "D"]],
    ),
    "F2[S3 table]": (
        {"ring": [{"p": 2}], "group": {"table": "s3.tbl"}, "codes": {"C": [[[0, 1], [1, 1]]]}},
        [["code", "C"], ["search-lcp"]],
    ),
    "GR(9,2)[C4]": (
        {
            "ring": [{"p": 3, "e": 2, "r": 2}],
            "group": {"family": "cyclic", "n": 4},
            # C = <x * sum of G>, D = <1 - g>, E = <3 + 3x g>
            "codes": {
                "C": [[[i, [[0, 1]]] for i in range(4)]],
                "D": [[[0, [1]], [1, [8]]]],
                "E": [[[0, [3]], [1, [[0, 3]]]]],
            },
        },
        [["code", "E"], ["dual", "E"], ["lcp", "C", "D"], ["mindist", "E"]],
    ),
    "F27[C2]": ({"ring": [{"p": 3, "r": 3}], "group": {"family": "cyclic", "n": 2}, "codes": {}}, [["search-lcp"]]),
    "Z12[C2]": ({"ring": 12, "group": {"family": "cyclic", "n": 2}, "codes": {}}, [["search-lcp"]]),
    "F2[D4]": ({"ring": [{"p": 2}], "group": {"family": "dihedral", "n": 4}, "codes": {}}, [["search-lcp"]]),
}


def load_perfbench(stem):
    """``perfbench/<stem>.py``, which may import its siblings (``gen`` and
    ``polys``) by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", ROOT / "perfbench" / f"{stem}.py")
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
    pairs = {f"{name}.json": doc for name, (_, doc) in LCP_PAIRS.items()}
    paths = {f"{name}.json": doc for name, (doc, _) in PATH_RUNS.items()}
    gen.write_configs(dict(b.configs, **pairs, **paths), str(where))
    (where / "s3.tbl").write_text(S3_TABLE, encoding="utf-8")
    extra = [
        (
            f"extra:{job['label']}:json",
            job["label"],
            ["--config", str(where / job["config"]), "--json"] + job["argv"],
            b.configs[job["config"]],
        )
        for job in b.jobs
    ]
    for name, (label, doc) in LCP_PAIRS.items():
        for mode, flag in MODES:
            argv = ["--config", str(where / f"{name}.json")] + flag + ["lcp", "C", "D"]
            extra.append((f"extra:lcp {name}:{mode}", label, argv, doc))
    for name, label in MINDIST_RUNS.items():
        for mode, flag in MODES:
            argv = ["--config", str(where / f"{name}.json")] + flag + ["mindist", "C"]
            extra.append((f"extra:mindist {name}:{mode}", label, argv, LCP_PAIRS[name][1]))
    for name, (doc, commands) in PATH_RUNS.items():
        for command in commands:
            label = f"{' '.join(command)} {name}"
            for mode, flag in MODES:
                argv = ["--config", str(where / f"{name}.json")] + flag + command
                extra.append((f"extra:{label}:{mode}", label, argv, doc))
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
    return job_sets(load_perfbench("gen"), tmp_path_factory.mktemp("jobs"))


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


def test_every_subcommand_is_pinned(sets):
    """Each ``cmd_*`` of the CLI is what some pinned run runs."""
    parse = cli._parser().parse_args
    pinned = {parse(argv).fn for runs in sets.values() for _, _, argv, _ in runs}
    assert pinned == {name for name in vars(cli) if name.startswith("cmd_")}


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
        all_runs = [run for runs in job_sets(load_perfbench("gen"), pathlib.Path(tmp)).values() for run in runs]
        digests = {key: digest(argv) for key, _, argv, _ in all_runs}
    MANIFEST.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {MANIFEST}")
