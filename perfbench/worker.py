"""One workload process: set up, run CLI jobs in a closed loop, check, report.

Started by ``run.py`` as a fresh single-threaded interpreter.  Set-up is
``import lcpcodes`` plus generating and writing the workload's configs; the
line ``READY`` on stdout marks the end of set-up.  Then one client runs jobs
back to back (a closed loop), each through ``lcpcodes.cli.main(argv)`` with
stdout captured, under a per-job time limit.  The loop makes whole passes
over the job list until ``--seconds`` have passed, at least ``MIN_PASSES``.
Reports are checked after the loop, so checking is not timed, and the last
stdout line is a JSON summary.

With ``--trace 1`` the process instead makes one pass untraced and one
traced, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# No job took over 3 s when first measured; 40 s means a hang, not a slow job.
JOB_TIME_LIMIT_S = 40.0
# Stop starting jobs this long after --seconds, so a run always ends in time.
HARD_EXTRA_S = 90.0
# Each job's time is the median over the passes of its scaled time.  Three
# passes of a job list take 25-40 s, so a run stays near its --seconds.
MIN_PASSES = 3


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job.  A BaseException, so the program's own
    ``except Exception`` handlers cannot swallow it."""


class TimeLimit:
    """Per-job wall-clock limit with ``setitimer``, in this process."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise JobTimeout()

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def import_program():
    """Import lcpcodes from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import lcpcodes.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lcpcodes from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(lcpcodes.__file__))
    if where != os.path.join(SRC, "lcpcodes"):
        sys.exit(f"perfbench: imported lcpcodes from {where}, not from {SRC}")
    return lcpcodes.cli


def run_job(cli, job, cfg_dir, limit, tracer=None):
    """Run one job; returns its record (the report is checked later)."""
    argv = ["--config", os.path.join(cfg_dir, job["config"]), "--json"] + job["argv"]
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    frame = tracer.job_span(job["id"]) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), limit:
            code = cli.main(argv)
    except JobTimeout:
        error = f"over the {limit.seconds:g} s per-job time limit"
    except Exception as exc:  # the job boundary: record and keep running
        error = f"uncaught {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end_job(frame)
    return {"job": job, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "seconds": seconds}


def run_passes(cli, jobs, cfg_dir, limit, seconds, min_passes, tracer=None):
    """Whole passes over ``jobs`` until ``seconds`` have passed and at least
    ``min_passes`` ran.

    Before each pass the process moves to the quietest CPU, and the speed
    probe runs between jobs (machine.py); each record holds the mean probe
    time before and after its job.  Returns the records and the wall and CPU time of the loop.
    """
    records = []
    cpus = machine.allowed_cpus()
    start, cpu_start = time.perf_counter(), time.process_time()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        machine.pin_to_quietest_cpu(cpus)
        probe = machine.probe_seconds()
        for job in jobs:
            if time.perf_counter() - start > seconds + HARD_EXTRA_S:
                return records, time.perf_counter() - start, time.process_time() - cpu_start
            rec = run_job(cli, job, cfg_dir, limit, tracer)
            gc.collect()  # each job starts on a collected heap, as in a fresh CLI process
            after = machine.probe_seconds()
            rec["probe_s"] = (probe + after) / 2
            probe = after
            records.append(rec)
        passes += 1
    return records, time.perf_counter() - start, time.process_time() - cpu_start


def check_records(records, configs):
    """Check every report; log each failure with its config and reason."""
    from check import Checker

    checker = Checker()
    failed = 0
    for rec in records:
        job = rec["job"]
        reason = rec["error"] or checker.check(job, rec["code"], rec["stdout"])
        if reason:
            failed += 1
            print(
                f"FAILED job {job['id']} ({job['label']}): {reason}\n"
                f"  argv: {json.dumps(job['argv'])}\n"
                f"  stderr: {rec['stderr'].strip()[:500]}\n"
                f"  config {job['config']}: {json.dumps(configs[job['config']])}",
                file=sys.stderr,
            )
    return failed


def write_spans(tracer, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(["id", "name", "parent", "job", "start_s", "end_s"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return os.path.relpath(path, ROOT)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("perfbench: refusing to run under -O / PYTHONOPTIMIZE")

    cli = import_program()
    import gen

    jobs, configs = gen.build(args.workload, args.seed, args.tiny)
    os.makedirs(TMP_DIR, exist_ok=True)
    cfg_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        gen.write_configs(configs, cfg_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        limit = TimeLimit(JOB_TIME_LIMIT_S)
        if args.trace:
            summary = traced_run(cli, jobs, cfg_dir, limit, configs, args)
        else:
            summary = timed_run(cli, jobs, cfg_dir, limit, configs, args)
    finally:
        shutil.rmtree(cfg_dir, ignore_errors=True)
    print(json.dumps(summary), flush=True)
    return 0


def timed_run(cli, jobs, cfg_dir, limit, configs, args):
    records, wall, cpu = run_passes(cli, jobs, cfg_dir, limit, args.seconds, MIN_PASSES)
    # The probe's table is resident from the first probe on; it is not the program's.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - machine.table_bytes() / 1024
    failed = check_records(records, configs)
    per_job, raw = {}, {}
    for rec in records:
        per_job.setdefault(rec["job"]["id"], []).append(rec["seconds"] * machine.REF_PROBE_S / rec["probe_s"])
        raw.setdefault(rec["job"]["id"], []).append(rec["seconds"])
    return {
        "attempted": len(records),
        "failed": failed,
        "wall_s": wall,
        "cpu_s": cpu,
        "job_s": [statistics.median(ts) for ts in per_job.values()],
        "job_raw_s": [statistics.median(ts) for ts in raw.values()],
        "probe_s": statistics.median(rec["probe_s"] for rec in records),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def traced_run(cli, jobs, cfg_dir, limit, configs, args):
    import spans

    plain, _, _ = run_passes(cli, jobs, cfg_dir, limit, 0, 1)
    tracer = spans.Tracer()
    tracer.install(spans.targets())
    try:
        traced, _, _ = run_passes(cli, jobs, cfg_dir, limit, 0, 1, tracer)
    finally:
        tracer.uninstall()
    failed = check_records(plain + traced, configs)
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead"] = sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in plain)
    return {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": metrics,
        "spans_file": write_spans(tracer, args.workload, args.seed),
        "span_count": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
