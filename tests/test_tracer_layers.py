"""The benchmark's tracer names program functions as "module.function"
layers; each must still resolve, and its counter hooks must still read
what those functions return, or only a traced benchmark run finds out."""

import contextlib
import importlib
import io
import types
from pathlib import Path

import pytest

from shallowtd import cli
from shallowtd.generators import (grid, random_planar_triangulation,
                                  toroidal_grid)
from shallowtd.graph import emit_graph

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    """Execute the tracer's source without importing it, so nothing is
    written beside it."""
    module = types.ModuleType("benchmark_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer", sorted(set(tracer.LAYERS) | set(tracer.HOOKS)))
def test_layer_resolves_to_a_function(layer):
    mod_name, fn_name = layer.split(".")
    module = importlib.import_module(f"shallowtd.{tracer._module(mod_name)}")
    assert callable(getattr(module, fn_name, None)), layer


def test_traced_ops_feed_every_counter(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, e in [("grid", grid(5, 5)), ("torus", toroidal_grid(4, 4)),
                    ("tri", random_planar_triangulation(20, 1))]:
        Path(name).write_text(emit_graph(e))
    Path("triangle").write_text("v 3\ne 0 1\ne 1 2\ne 2 0\n")
    ops = [["decompose", "--input", "grid"],
           ["decompose", "--method", "genus", "--input", "torus"],
           ["solve", "--problem", "ds", "--input", "grid"],
           ["ptas", "--problem", "mis", "--k", "2", "--input", "grid"],
           ["subiso", "--pattern", "triangle", "--input", "tri"]]
    tr = tracer.Tracer()
    tr.install()
    try:
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(op) == 0, op     # the wrapper, looked up now
    finally:
        tr.uninstall()
    assert not tr.errors
    assert [c for c in tracer.COUNTERS if tr.counts[c] <= 0] == []
