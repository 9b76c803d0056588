"""perfbench: time lcpcodes CLI jobs end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Each run starts fresh interpreters (``worker.py``): a few that only set up,
for ``setup_s``, and one that sets up and then runs the workload.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines above it give the same numbers for reading, the
provenance of the run, and ``failed_frac``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit code is not
0, and no result is printed, when the program cannot be imported or a
process fails.  ``--tiny`` shrinks every workload, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("reduce", "enumerate", "search")

# Set-up is measured this many times per run, after one uncounted warm-up
# that writes byte-code caches.
SETUP_PROBES = 7
# A whole run must finish within this many seconds.
RUN_DEADLINE_S = 175.0

END_TO_END = [
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
TAIL_BEYOND = 10


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def quantile(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics, so one
    job crossing its neighbour moves the estimate a little, not by the gap
    between two jobs, as a single order statistic would.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = []
    for i in range(n):  # Simpson's rule over [i/n, (i+1)/n]
        lo, h = i / n, 1.0 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(count: int) -> float:
    """The highest percentile with ten jobs beyond it, 100 (N - 10) / N;
    the median when there are fewer than 20 jobs."""
    return max(50.0, 100.0 * (count - TAIL_BEYOND) / count)


class Worker:
    """One worker process; ``ready()`` returns the seconds from spawn to READY."""

    def __init__(self, args, deadline, setup_only):
        cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.deadline = deadline
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)

    def ready(self):
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.start
        return None

    def finish(self):
        """Wait for exit; the last stdout line as JSON, or None on any failure."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            print("perfbench: worker passed the run deadline", file=sys.stderr)
            return None
        if self.proc.returncode != 0:
            print(f"perfbench: worker exited with {self.proc.returncode}", file=sys.stderr)
            return None
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_worker(args, deadline, setup_only):
    """(set-up seconds, summary) of one worker; (None, None) if it failed."""
    w = Worker(args, deadline, setup_only)
    try:
        setup = w.ready()
        if setup is None:
            w.finish()
            return None, None
        summary = w.finish()
        return setup, summary
    finally:
        w.kill()


def setup_samples(args, deadline):
    """Scaled set-up seconds of SETUP_PROBES set-up-only workers (after one
    uncounted warm-up that writes byte-code caches); None if one failed.

    Each set-up is scaled by the speed probe run just before and after it
    (machine.py); the worker inherits this process's CPU."""
    samples = []
    probe = machine.probe_seconds()
    for i in range(SETUP_PROBES + 1):
        setup, summary = run_worker(args, deadline, setup_only=True)
        if setup is None or summary is None:
            return None
        after = machine.probe_seconds()
        if i:
            samples.append(setup * machine.REF_PROBE_S * 2 / (probe + after))
        probe = after
    return samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the asserts that guard code_dual, code_intersect and
        # DsmSplitter.split, so it would measure a different program.
        print("perfbench: refusing to run under -O / PYTHONOPTIMIZE", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    cpus = machine.allowed_cpus()
    os.environ[machine.CPUS_ENV] = ",".join(map(str, cpus))
    cpu = machine.pin_to_quietest_cpu(cpus)

    setups = setup_samples(args, deadline)
    if setups is None:
        return 1
    _, summary = run_worker(args, deadline, setup_only=False)
    if summary is None or "attempted" not in summary:
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "optimize": sys.flags.optimize,
    }
    print("provenance: " + json.dumps(provenance))
    attempted, failed = summary["attempted"], summary["failed"]
    if args.trace:
        import spans

        metrics = {name: {"value": summary["metrics"][name], "unit": unit} for name, unit in spans.LAYER_UNITS}
        print(f"spans: {summary['span_count']} written to {summary['spans_file']}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']} {m['unit']}")
    else:
        times = summary["job_s"]
        passes = attempted / len(times)
        tail_p = tail_percentile(len(times))
        values = {
            "jobs_per_s": (1 - failed / attempted) * len(times) / sum(times),
            "job_p50_s": quantile(times, 0.5),
            "job_tail_s": quantile(times, tail_p / 100),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        notes = {
            "jobs_per_s": f"({len(times)} jobs, each its median scaled time over {passes:g} passes; "
                          f"unscaled {len(times) / sum(summary['job_raw_s']):.6g} jobs/s at a median "
                          f"probe of {summary['probe_s'] * 1e3:.3f} ms (reference "
                          f"{machine.REF_PROBE_S * 1e3:g} ms); loop: {attempted} jobs in "
                          f"{summary['wall_s']:.3f} s wall, {summary['cpu_s']:.3f} s CPU; "
                          f"one client, closed loop)",
            "job_tail_s": f"(p{tail_p:.1f} of {len(times)} jobs)",
            "setup_s": f"(median of {len(setups)} set-ups)",
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']} {notes.get(name, '')}".rstrip())
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
