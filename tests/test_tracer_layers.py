"""The benchmark's tracer names program functions as "module.function"
layers; each must still resolve, or only a traced benchmark run finds out."""

import importlib
import types
from pathlib import Path

import pytest

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
