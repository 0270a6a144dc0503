"""Guards for the tooling that reaches into clusterkit by name."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from clusterkit import cluster, polymer, potentials, quadrature

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _params(fn):
    return list(inspect.signature(fn).parameters)


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


def test_perfbench_bound_parameter_names():
    # the counting hooks of perfbench/layers.py bind these arguments by name
    # or position; a rename would otherwise fail only in a traced run
    for fn in (cluster.mayer_bn, cluster.virial_bk_direct):
        assert {"method", "samples", "chunk"} <= set(_params(fn))
    assert _params(quadrature.gap_quadrature)[0] == "weight_fn"
    assert {"N", "profile", "n_max"} <= set(_params(polymer.log_xi_ursell))
    assert _params(potentials.f_bond_array)[2] == "r"
