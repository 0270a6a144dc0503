"""Guards for the tooling that reaches into clusterkit by name."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_perfbench_traced_functions_resolve():
    # a renamed or deleted traced function would otherwise fail only when
    # the benchmark runs with --trace 1
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    wanted = [(mod, fn) for _, mod, fn in layers.TRACED] + [("graphs", "penrose_trees_fast")]
    missing = [f"{mod}.{fn}" for mod, fn in wanted
               if not callable(getattr(importlib.import_module("clusterkit." + mod), fn, None))]
    assert missing == []
