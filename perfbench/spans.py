"""Layer tracer for the traced run, installed from outside the program.

Every traced function is looked up by its defining module and name, and the
wrapper replaces *every* binding of that function object across the loaded
``lcpcodes`` modules (``codes`` holds its own ``kernel``, ``pivot_reduce`` and
``membership`` names, ``lcpcodes`` re-exports most of them).  Nothing is
hard-coded about who imports what, so the tracer keeps working when modules
are reorganised; a target that no longer exists is reported as ``None``.

Three kinds of wrapper:

* ``span``: records (id, name, parent id, job id, start, end) and the span's
  self time, i.e. its duration minus the time of the spans it encloses;
* ``count``: counts calls only, for hot scalar methods where timing each call
  would swamp the trace; its time falls into the enclosing span's self time;
* ``gen``: for generator functions; times each resume and counts the items
  yielded, and charges that time to the generator, not to the consumer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "lcpcodes.linalg"
    name: str  # "kernel" or "Class.method"
    metric: str  # span / counter name the wrapper records under
    kind: str = "span"  # "span", "count" or "gen"
    hook: Callable | None = None  # called as hook(tracer, args, kwargs, result)


def _rows_in(tr, args, kwargs, result):
    tr.counts["linalg.pivot_reduce.rows_in"] += len(args[0].rows)


def _mul_ext(tr, args, kwargs, result):
    if args[0].r > 1:
        tr.counts["rings.mul.ext"] += 1


def _enum_ratio(tr, args, kwargs, result):
    C = args[0]
    cap = args[1] if len(args) > 1 else kwargs.get("max_enum")
    if cap is None:
        cap = tr.defaults("lcpcodes.codes", "min_distance", "max_enum")
    ratio = C.cardinality() / cap
    tr.maxima["codes.enum_cap.max_ratio"] = max(tr.maxima.get("codes.enum_cap.max_ratio", 0.0), ratio)


def _found(tr, args, kwargs, result):
    if getattr(result, "status", None) == "found":
        tr.counts["equivalence.find_permutation.found"] += 1


def _ideals_before(tr, args, kwargs):
    return tr.calls["codes.from_generators"]


def _ideals_after(tr, args, kwargs, result, before):
    tr.counts["codes.enumerate_ideals.distinct"] += len(result)
    tr.counts["codes.enumerate_ideals.constructed"] += tr.calls["codes.from_generators"] - before


def _algebra_targets():
    """Every public method of GroupAlgebra, found at install time."""
    try:
        cls = importlib.import_module("lcpcodes.algebra").GroupAlgebra
    except (ImportError, AttributeError):
        return [Target("lcpcodes.algebra", "GroupAlgebra.public", "algebra")]
    return [
        Target("lcpcodes.algebra", f"GroupAlgebra.{name}", "algebra",
               "gen" if inspect.isgeneratorfunction(getattr(value, "fget", value)) else "span")
        for name, value in vars(cls).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
    ]


def targets():
    rings = [
        Target("lcpcodes.rings", f"ChainRing.{op}", f"rings.{op}", "count", _mul_ext if op == "mul" else None)
        for op in ("add", "sub", "mul", "valuation", "inverse")
    ]
    groups = [
        Target("lcpcodes.groups", fn, "groups.build")
        for fn in ("cyclic", "dihedral", "symmetric", "direct_product", "group_from_table", "load_cayley_table")
    ]
    linalg = [
        Target("lcpcodes.linalg", "pivot_reduce", "linalg.pivot_reduce", hook=_rows_in),
        Target("lcpcodes.linalg", "kernel", "linalg.kernel"),
        Target("lcpcodes.linalg", "membership", "linalg.membership"),
        Target("lcpcodes.linalg", "enumerate_codewords", "linalg.enumerate_codewords", "gen"),
        Target("lcpcodes.linalg", "SpanSolver.__init__", "linalg.SpanSolver.init"),
        Target("lcpcodes.linalg", "SpanSolver.solve", "linalg.SpanSolver.solve"),
    ]
    codes = [
        Target("lcpcodes.codes", "GroupCode.from_generators", "codes.from_generators"),
        Target("lcpcodes.codes", "code_sum", "codes.code_sum"),
        Target("lcpcodes.codes", "code_intersect", "codes.code_intersect"),
        Target("lcpcodes.codes", "code_dual", "codes.code_dual"),
        Target("lcpcodes.codes", "GroupCode.is_two_sided", "codes.is_two_sided"),
        Target("lcpcodes.codes", "lcp_check", "codes.lcp_check"),
        Target("lcpcodes.codes", "min_distance", "codes.min_distance", hook=_enum_ratio),
        Target("lcpcodes.codes", "enumerate_ideals", "codes.enumerate_ideals", hook=(_ideals_before, _ideals_after)),
        Target("lcpcodes.codes", "DsmSplitter.split", "codes.DsmSplitter.split"),
    ]
    equivalence = [
        Target("lcpcodes.equivalence", "find_permutation", "equivalence.find_permutation", hook=_found),
        Target("lcpcodes.equivalence", "verify_permutation", "equivalence.verify_permutation", "count"),
        Target("lcpcodes.equivalence", "check_dual_equivalence", "equivalence.check_dual_equivalence"),
    ]
    cli = [Target("lcpcodes.cli", "load_config", "cli.load_config")] + [
        Target("lcpcodes.cli", f"cmd_{cmd}", f"cli.cmd_{cmd}")
        for cmd in ("code", "dual", "crt", "lcp", "dsm", "mindist", "search_lcp")
    ]
    return rings + groups + _algebra_targets() + linalg + codes + equivalence + cli


class Tracer:
    """Holds spans and counters in memory; ``install``/``uninstall`` patch the program."""

    def __init__(self):
        self.spans = []  # (id, name, parent id, job id, start, end)
        self.stack = []  # open frames: [id, name, start, child seconds]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = {}
        self.installed = set()  # metrics with at least one target patched in
        self.job = None
        self._ids = 0
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _open(self, name):
        self._ids += 1
        parent = self.stack[-1] if self.stack else None
        if parent is None or parent[1] != name:
            self.calls[name] += 1
        frame = [self._ids, name, time.perf_counter(), 0.0, parent[0] if parent else None]
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[2]
        name = frame[1]
        self.self_s[name] += dur - frame[3]
        if not self.stack or self.stack[-1][1] != name:
            self.incl_s[name] += dur
        if self.stack:
            self.stack[-1][3] += dur
        self.spans.append((frame[0], name, frame[4], self.job, frame[2], end))

    def span(self, name, fn, hook=None):
        before, after = hook if isinstance(hook, tuple) else (None, hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(self, args, kwargs) if before else None
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after:
                if before:
                    after(self, args, kwargs, result, token)
                else:
                    after(self, args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn, hook=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if hook:
                hook(self, args, kwargs, None)
            return fn(*args, **kwargs)

        return wrapper

    def gen(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._timed(name, fn(*args, **kwargs))

        return wrapper

    def _timed(self, name, it):
        clock = time.perf_counter
        while True:
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                self._charge(name, clock() - start)
                return
            self._charge(name, clock() - start)
            self.counts[name + ".words"] += 1
            yield item

    def _charge(self, name, seconds):
        self.self_s[name] += seconds
        if self.stack:
            self.stack[-1][3] += seconds

    def job_span(self, job_id):
        """Open the root span of one job; returns the frame to pass to ``end_job``."""
        self.job = job_id
        return self._open("job")

    def end_job(self, frame):
        self._close(frame)
        self.job = None

    # -- installation -----------------------------------------------------------

    def defaults(self, module, name, param):
        fn = getattr(importlib.import_module(module), name)
        fn = getattr(fn, "__wrapped__", fn)
        return inspect.signature(fn).parameters[param].default

    def install(self, target_list):
        for t in target_list:
            self._install(t)

    def _install(self, t: Target):
        make = {"span": self.span, "count": self.count, "gen": self.gen}[t.kind]
        try:
            module = importlib.import_module(t.module)
        except ImportError:
            return
        owner_name, _, attr = t.name.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                return
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(t.metric, raw.__func__, t.hook))
            elif isinstance(raw, property):
                wrapped = property(make(t.metric, raw.fget, t.hook), raw.fset, raw.fdel, raw.__doc__)
            else:
                wrapped = make(t.metric, raw, t.hook)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
            self.installed.add(t.metric)
            return
        fn = getattr(module, attr, None)
        if not callable(fn):
            return
        wrapped = make(t.metric, fn, t.hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lcpcodes" or mod_name.startswith("lcpcodes.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, fn))
        self.installed.add(t.metric)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, source metric the value needs, value).
def _layer_table(tr: Tracer):
    c, s, n, inc = tr.calls, tr.self_s, tr.counts, tr.incl_s
    rows = [(f"rings.{op}.calls", "count", f"rings.{op}", c[f"rings.{op}"])
            for op in ("add", "sub", "mul", "valuation", "inverse")]
    rows += [
        ("rings.mul.ext_share", "ratio", "rings.mul", _ratio(n["rings.mul.ext"], c["rings.mul"])),
        ("groups.build.calls", "count", "groups.build", c["groups.build"]),
        ("groups.build.self_s", "s", "groups.build", s["groups.build"]),
        ("algebra.self_s", "s", "algebra", s["algebra"]),
        ("linalg.pivot_reduce.calls", "count", "linalg.pivot_reduce", c["linalg.pivot_reduce"]),
        ("linalg.pivot_reduce.rows_in", "count", "linalg.pivot_reduce", n["linalg.pivot_reduce.rows_in"]),
        ("linalg.pivot_reduce.self_s", "s", "linalg.pivot_reduce", s["linalg.pivot_reduce"]),
        ("linalg.kernel.calls", "count", "linalg.kernel", c["linalg.kernel"]),
        ("linalg.kernel.self_s", "s", "linalg.kernel", s["linalg.kernel"]),
        ("linalg.membership.calls", "count", "linalg.membership", c["linalg.membership"]),
        ("linalg.membership.self_s", "s", "linalg.membership", s["linalg.membership"]),
        ("linalg.enumerate_codewords.words", "count", "linalg.enumerate_codewords",
         n["linalg.enumerate_codewords.words"]),
        ("linalg.enumerate_codewords.self_s", "s", "linalg.enumerate_codewords", s["linalg.enumerate_codewords"]),
        ("linalg.SpanSolver.init_self_s", "s", "linalg.SpanSolver.init", s["linalg.SpanSolver.init"]),
        ("linalg.SpanSolver.solve_calls", "count", "linalg.SpanSolver.solve", c["linalg.SpanSolver.solve"]),
        ("linalg.SpanSolver.solve_self_s", "s", "linalg.SpanSolver.solve", s["linalg.SpanSolver.solve"]),
        ("codes.from_generators.calls", "count", "codes.from_generators", c["codes.from_generators"]),
        ("codes.from_generators.self_s", "s", "codes.from_generators", s["codes.from_generators"]),
    ]
    rows += [(f"codes.{fn}.self_s", "s", f"codes.{fn}", s[f"codes.{fn}"])
             for fn in ("code_sum", "code_intersect", "code_dual", "is_two_sided", "lcp_check")]
    rows += [
        ("codes.lcp_check.calls", "count", "codes.lcp_check", c["codes.lcp_check"]),
        ("codes.min_distance.calls", "count", "codes.min_distance", c["codes.min_distance"]),
        ("codes.min_distance.self_s", "s", "codes.min_distance", s["codes.min_distance"]),
        ("codes.enum_cap.max_ratio", "ratio", "codes.min_distance", tr.maxima.get("codes.enum_cap.max_ratio", 0.0)),
        ("codes.enumerate_ideals.self_s", "s", "codes.enumerate_ideals", s["codes.enumerate_ideals"]),
        ("codes.enumerate_ideals.useful_ratio", "ratio", "codes.enumerate_ideals",
         _ratio(n["codes.enumerate_ideals.distinct"], n["codes.enumerate_ideals.constructed"])),
        ("codes.DsmSplitter.split.self_s", "s", "codes.DsmSplitter.split", s["codes.DsmSplitter.split"]),
        ("equivalence.find_permutation.calls", "count", "equivalence.find_permutation",
         c["equivalence.find_permutation"]),
        ("equivalence.find_permutation.self_s", "s", "equivalence.find_permutation",
         s["equivalence.find_permutation"]),
        ("equivalence.find_permutation.found_ratio", "ratio", "equivalence.find_permutation",
         _ratio(n["equivalence.find_permutation.found"], c["equivalence.find_permutation"])),
        ("equivalence.verify_permutation.calls", "count", "equivalence.verify_permutation",
         c["equivalence.verify_permutation"]),
        ("equivalence.check_dual_equivalence.self_s", "s", "equivalence.check_dual_equivalence",
         s["equivalence.check_dual_equivalence"]),
        ("cli.load_config.self_s", "s", "cli.load_config", s["cli.load_config"]),
    ]
    rows += [(f"cli.cmd_{cmd}.s", "s", f"cli.cmd_{cmd}", inc[f"cli.cmd_{cmd}"])
             for cmd in ("code", "dual", "crt", "lcp", "dsm", "mindist", "search_lcp")]
    return rows


# Name and unit of every per-layer metric, in report order; the tracing
# overhead is measured by the worker, not by the tracer.
LAYER_UNITS = [(name, unit) for name, unit, _, _ in _layer_table(Tracer())] + [("trace.overhead", "ratio")]


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values; ``None`` where the traced function no longer exists."""
    return {name: (value if src in tr.installed else None) for name, _unit, src, value in _layer_table(tr)}
