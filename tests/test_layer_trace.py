"""The per-layer benchmark tracer names functions that exist.

perfbench/layer_trace.py wraps the functions listed in its LAYERS by name, so
a rename under src/ would otherwise only break the traced benchmark.
"""

import importlib
import importlib.util
import pathlib

LAYER_TRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"


def load_layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_its_module():
    layers = load_layer_trace().LAYERS
    assert layers
    missing = [f"{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"qspec.{module}"),
                                       name, None))]
    assert missing == []
