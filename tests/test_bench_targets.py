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


def test_traced_commands_run_after_the_parser_is_built(tmp_path, capsys):
    """The parser is built once per process, before the tracer patches the
    commands; the patched command must still be the one that runs."""
    path = tmp_path / "f2c3.json"
    path.write_text(
        '{"ring": [{"p": 2}], "group": {"family": "cyclic", "n": 3}, "codes": {"C": [[[0, 1], [1, 1]]]}}',
        encoding="utf-8",
    )
    argv = ["--config", str(path), "--json", "code", "C"]
    assert lcpcodes.cli.main(argv) == 0
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install(spans.targets())
    try:
        assert lcpcodes.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["cli.cmd_code"] == 1
    assert tracer.incl_s["cli.cmd_code"] > 0


def test_traced_search_counts_closures_inside_enumeration(tmp_path, capsys):
    """The traced run reads ``codes.enumerate_ideals.useful_ratio`` as the
    ideals found per ``GroupCode.from_generators`` call made inside
    ``enumerate_ideals``; a closure that bypassed that name would not be
    counted, and the ratio would read 0."""
    path = tmp_path / "z4c4.json"
    path.write_text(
        '{"ring": [{"p": 2, "e": 2}], "group": {"family": "cyclic", "n": 4}, "codes": {}}',
        encoding="utf-8",
    )
    argv = ["--config", str(path), "--json", "search-lcp"]
    assert lcpcodes.cli.main(argv) == 0
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install(spans.targets())
    try:
        assert lcpcodes.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["codes.enumerate_ideals.constructed"] > 0
    assert 0 < spans.layer_metrics(tracer)["codes.enumerate_ideals.useful_ratio"] <= 1


def test_traced_search_counts_table_products(tmp_path, capsys):
    """Over GR(4,2) the Howell engine reads products from tables, and each
    slot is filled through ``ChainRing.mul`` looked up when it is filled, so
    the traced ``rings.mul.calls`` counts the products computed and
    ``rings.mul.ext_share`` has calls to share."""
    path = tmp_path / "gr42c3.json"
    path.write_text(
        '{"ring": [{"p": 2, "e": 2, "r": 2}], "group": {"family": "cyclic", "n": 3}, "codes": {}}',
        encoding="utf-8",
    )
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install(spans.targets())
    try:
        assert lcpcodes.cli.main(["--config", str(path), "--json", "search-lcp"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = spans.layer_metrics(tracer)
    assert metrics["rings.mul.calls"] > 0
    assert metrics["rings.mul.ext_share"] == 1.0  # every product is in GR(4,2)
