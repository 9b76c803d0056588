"""Keep a run on the quietest CPU of a shared machine, and scale its times.

On the 2-vCPU VM this benchmark was tuned on, the host slows one vCPU or the
other, by up to 2x, for seconds at a time, and which one changes during a
run.  Left to the scheduler, runs of identical jobs differed by 30%.  So the
run, and each worker before each pass, pins itself to the allowed CPU where
a fixed pure-Python kernel runs fastest at that moment.  This acts only on
the benchmark's own processes.

Pinning alone left runs of identical jobs 10-25% apart: the speed of the
chosen CPU still changes from second to second.  So the kernel is also timed
next to every job and every set-up (``probe_seconds``), and reported times
are scaled to a CPU on which the probe takes ``REF_PROBE_S``: a job that took
t seconds while the probes before and after it took p on average is
reported as t * REF_PROBE_S / p.

The kernel reads at random from an 8 MiB array, past the 2 MiB L2 cache,
because the program's heap is that large too.  On the tuning machine, over
some 500 repeated jobs of each workload, log t against log p had a slope of
0.95-0.98 with this kernel; a kernel that stayed in cache had 0.76-0.83, so
it over-corrected.  Scaling cut the spread of a job's time from 0.15-0.25 to
about 0.10 (standard deviation of its log).
"""

from __future__ import annotations

import os
import statistics
import time
from array import array

# The CPUs a run may use, handed from run.py to its workers: they inherit
# run.py's single-CPU pinning and could not choose otherwise.
CPUS_ENV = "PERFBENCH_CPUS"

# The probe's time on the CPU speed that reported times are scaled to: about
# its median on the 2-vCPU VM the benchmark was tuned on.  A fixed constant,
# so that scaled times of two runs (or two commits) compare.
REF_PROBE_S = 0.015

# The kernel's table, made on first use, so that processes that never probe
# (the set-up-only workers) do not pay for it.
TABLE_ENTRIES = 1 << 20
_table = None


def table_bytes() -> int:
    """Resident bytes of the kernel's table once it exists (0 before)."""
    return 0 if _table is None else _table.buffer_info()[1] * _table.itemsize


def kernel():
    """Random reads from the table, with the dict, tuple and small-int work
    the program spends its time on."""
    global _table
    if _table is None:
        _table = array("q", range(TABLE_ENTRIES))
    table, mask = _table, TABLE_ENTRIES - 1
    d, s, j = {}, 0, 12345
    for i in range(20000):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        k = table[j & mask] % 1021
        d[k] = d.get(k, 0) + i
        s += len((i, k, s % 97))
    return s


def probe_seconds() -> float:
    """Seconds for one run of ``kernel``, the speed probe taken next to each job."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def allowed_cpus():
    if os.environ.get(CPUS_ENV):
        return sorted(int(c) for c in os.environ[CPUS_ENV].split(","))
    return sorted(os.sched_getaffinity(0))


def pin_to_quietest_cpu(cpus):
    """Pin this process (and workers it starts later) to the CPU of ``cpus``
    where ``kernel`` runs fastest; returns that CPU, or None if there is one.

    The kernel first runs a while to bring the CPU out of idle, then the CPUs
    are sampled in turn, three times, so neither is favoured by going first.
    """
    if len(cpus) < 2:
        return None
    for _ in range(5):
        kernel()
    samples = {cpu: [] for cpu in cpus}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples[cpu].extend(probe_seconds() for _ in range(3))
    best = min(cpus, key=lambda cpu: statistics.median(samples[cpu]))
    os.sched_setaffinity(0, {best})
    return best
