"""Guards for the tooling that reaches into clusterkit by name."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from clusterkit import cluster, polymer, potentials, quadrature

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "clusterkit"
LAYERS = PERFBENCH / "layers.py"


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


def test_perfbench_combinatorics_ops_pass_their_checks(monkeypatch):
    # every op of the workload that runs the graph layer, once, against its
    # own oracle: a dropped or changed name or return value of anything the
    # benchmark calls fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.combinatorics(0)
    workloads.fill_combinatorics()
    problems = {op.name: op.check(op.call()) for op in ops}
    assert {name: p for name, p in problems.items() if p is not None} == {}


def test_perfbench_bound_parameter_names():
    # the counting hooks of perfbench/layers.py bind these arguments by name
    # or position; a rename would otherwise fail only in a traced run
    for fn in (cluster.mayer_bn, cluster.virial_bk_direct):
        assert {"method", "samples", "chunk"} <= set(_params(fn))
    assert _params(quadrature.gap_quadrature)[0] == "weight_fn"
    assert {"N", "profile", "n_max"} <= set(_params(polymer.log_xi_ursell))
    assert _params(potentials.f_bond_array)[2] == "r"


def test_only_errors_decides_what_a_number_is():
    # clusterkit.errors holds the one rule set for numeric arguments; a
    # module that tests for a bool or a numbers ABC grows a second one
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                hit = any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[-1]))
            elif isinstance(node, ast.Attribute):
                hit = getattr(node.value, "id", None) == "numbers"
            elif isinstance(node, ast.Import):
                hit = any(alias.name == "numbers" for alias in node.names)
            else:
                hit = isinstance(node, ast.ImportFrom) and node.module == "numbers"
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
