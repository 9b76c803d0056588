"""Smoke test of the benchmark itself: tiny sizes, a few seconds, stdlib only.

    python3 perfbench/smoke.py

From the root of a checkout.  For every workload it runs ``run.py --tiny``
untraced and twice traced, and asserts that:

* every metric BENCHMARK.json names is printed, by name and with its unit,
  and appears in the final JSON line with that unit;
* ``failed_frac`` is 0 and the run is reported correct;
* the traced counts (``*.calls``, ``*.rows_in``, ``*.words``) repeat exactly.

It also checks that the benchmark refuses to run under ``-O``, that it fails
without printing a result where the program's sources are missing, and that
a traced function that no longer exists is reported as null.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
COUNT_SUFFIXES = (".calls", ".rows_in", ".words", "_calls")


def run(args, cwd=ROOT, python_flags=()):
    proc = subprocess.run(
        [sys.executable, *python_flags, RUN, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout, proc.stderr


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_run(workload, trace, spec):
    code, out, err = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"])
    assert code == 0, f"{workload} trace={trace} exited {code}:\n{err}"
    result = result_of(out)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, trace, err)
    assert result["attempted"] >= 1
    assert "failed_frac = 0 ratio" in out, out
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), (workload, trace)
    lines = out.splitlines()
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert got["value"] is not None, f"{m['name']} is null at this commit"
        prefix = f"{m['name']} = "
        assert any(ln.startswith(prefix) and f" {m['unit']}" in ln for ln in lines), f"{m['name']} not printed"
    return result["metrics"]


def check_traced_counts_repeat(workload, spec):
    first = check_run(workload, 1, spec)
    second = check_run(workload, 1, spec)
    for name, m in first.items():
        if name.endswith(COUNT_SUFFIXES):
            assert m["value"] == second[name]["value"], f"{workload}: {name} changed between traced runs"


def check_refusals():
    code, out, _ = run(["--workload", "reduce", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"],
                       python_flags=("-O",))
    assert code != 0 and not out.strip(), "ran under -O"
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reduce", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_missing_target_is_null():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import spans

    tracer = spans.Tracer()
    tracer.install([spans.Target("lcpcodes.linalg", "no_such_function", "linalg.kernel")])
    metrics = spans.layer_metrics(tracer)
    assert metrics["linalg.kernel.calls"] is None and metrics["linalg.kernel.self_s"] is None
    assert metrics["linalg.pivot_reduce.calls"] is None  # not installed in this tracer either


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(workload, 0, spec)
        check_traced_counts_repeat(workload, spec)
        print(f"ok {workload}")
    check_refusals()
    check_missing_target_is_null()
    print("ok refusals and missing targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
