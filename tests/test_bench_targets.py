"""The benchmark's traced run finds every function it measures.

``perfbench/spans.py`` patches program functions by module and name and
reports ``null`` for a metric whose function no longer exists, so a rename
in ``src/`` would silently blank a per-layer metric.  This installs the
tracer's targets and checks that each metric has one.
"""

import importlib.util
import pathlib
import sys

import lcpcodes.cli
from lcpcodes import codes

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_has_a_traced_function():
    spans = load_spans()
    original = codes.enumerate_ideals
    tracer = spans.Tracer()
    tracer.install(spans.targets())
    try:
        assert codes.enumerate_ideals is not original
        missing = [name for name, value in spans.layer_metrics(tracer).items() if value is None]
    finally:
        tracer.uninstall()
    assert missing == []
    assert codes.enumerate_ideals is original
    assert lcpcodes.cli.enumerate_ideals is original
