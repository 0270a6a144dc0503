"""Per-layer timers and counters, installed from outside the package.

``Tracer.install`` replaces each traced public function by a timing wrapper
in every loaded clusterkit module that holds it, since modules import each
other's functions by name.  Nothing under src/ is changed, and untraced runs
install nothing.

Times are inclusive wall seconds.  ``gap_quadrature`` also wraps the weight
callback it is handed, which gives the callback time (cluster.weight_s), the
quadrature's own time without it (quadrature.self_s) and the number of
integrand rows (quadrature.nodes).  The wrappers time their own bookkeeping,
which is reported as the tracing overhead.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter

# (metric prefix, module, function): the traced public functions
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("radii.K_star", "radii", "K_star"),
    ("radii.F_of_u", "radii", "F_of_u"),
    ("quadrature.gap_quadrature", "quadrature", "gap_quadrature"),
    ("quadrature.integrate_1d", "quadrature", "integrate_1d"),
    ("cluster.connected_weight_sum", "cluster", "connected_weight_sum"),
    ("cluster.mayer_bn", "cluster", "mayer_bn"),
    ("cluster.virial_bk_direct", "cluster", "virial_bk_direct"),
    ("potentials.f_bond_array", "potentials", "f_bond_array"),
    ("potentials.c_beta", "potentials", "c_beta"),
    ("series.virial_from_mayer", "series", "virial_from_mayer"),
    ("series.invert_mayer_oracle", "series", "invert_mayer_oracle"),
    ("series.free_energy_series", "series", "free_energy_series"),
    ("canonical.ztilde_direct", "canonical", "ztilde_direct"),
    ("canonical.compare_series_direct", "canonical", "compare_series_direct"),
    ("graphs.ursell_table", "graphs", "ursell_table"),
    ("graphs.connected_mask_flags", "graphs", "connected_mask_flags"),
    ("graphs.penrose_trees", "graphs", "penrose_trees"),
    ("graphs.penrose_trees_fast", "graphs", "penrose_trees_fast"),
    ("verify.penrose_identity_scan", "verify", "penrose_identity_scan"),
    ("verify.penrose_identity_random", "verify", "penrose_identity_random"),
    ("polymer.log_xi_ursell", "polymer", "log_xi_ursell"),
    ("polymer.xi_exact", "polymer", "xi_exact"),
    ("polymer.p_exact", "polymer", "p_exact"),
    ("polymer.ck_finite_N", "polymer", "ck_finite_N"),
)

# built in the untimed cache fill, so reported from it (cold), not per pass
COLD = ("graphs.ursell_table_s", "graphs.connected_mask_flags_s")

# name -> unit of every per-layer metric, in report order
METRICS: Dict[str, str] = {}
for _prefix, _, _ in TRACED:
    METRICS[_prefix + "_s"] = "s"
METRICS.update({
    "quadrature.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.nodes_per_s": "1/s",
    "cluster.weight_s": "s",
    "cluster.connected_weight_rows": "count",
    "cluster.mc_samples": "count",
    "cluster.mc_samples_per_s": "1/s",
    "potentials.f_bond_values": "count",
    "graphs.penrose_trees_calls": "count",
    "polymer.log_xi_tuples": "count",
    "trace.ops_per_s": "1/s",
    "trace.overhead_pct": "%",
})


def _log_xi_tuples(N: int, profile, n_max: int) -> int:
    """Subset multisets log_xi_ursell enumerates: C(S+n-1, n) for n <= n_max."""
    S = sum(math.comb(N, m) for m in profile.zeta)
    return sum(math.comb(S + n - 1, n) for n in range(1, n_max + 1))


class Tracer:
    """Accumulates per-layer totals; ``take`` returns and resets them."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[object, str, Callable]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, prefix: str, fn: Callable) -> Callable:
        totals = self.totals
        key = prefix + "_s"
        before = self._before(prefix, fn)

        def traced(*args, **kwargs):
            t0 = _clock()
            extra = None
            if before is not None:
                args, extra = before(args, kwargs)
            t1 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = _clock()
                totals[key] += t2 - t1
                if extra is not None:
                    totals[extra] += t2 - t1
                totals["trace.overhead_s"] += (t1 - t0) + (_clock() - t2)

        traced.__wrapped__ = fn
        return traced

    def _before(self, prefix: str, fn: Callable):
        """Counting hook run before a call: returns (args, extra time key)."""
        totals = self.totals
        if prefix == "cluster.connected_weight_sum":
            def before(args, kwargs):
                totals["cluster.connected_weight_rows"] += args[0].shape[0]
                return args, None
        elif prefix == "potentials.f_bond_array":
            def before(args, kwargs):
                r = args[2] if len(args) > 2 else kwargs["r"]
                totals["potentials.f_bond_values"] += getattr(r, "size", 1)
                return args, None
        elif prefix == "graphs.penrose_trees":
            def before(args, kwargs):
                totals["graphs.penrose_trees_calls"] += 1
                return args, None
        elif prefix == "polymer.log_xi_ursell":
            def before(args, kwargs):
                call = sig.bind(*args, **kwargs).arguments
                totals["polymer.log_xi_tuples"] += _log_xi_tuples(
                    call["N"], call["profile"], call["n_max"])
                return args, None
        elif prefix in ("cluster.mayer_bn", "cluster.virial_bk_direct"):
            def before(args, kwargs):
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                a = call.arguments
                if a["method"] != "monte_carlo":
                    return args, None
                totals["cluster.mc_samples"] += max(2, math.ceil(a["samples"] / a["chunk"])) * a["chunk"]
                return args, "cluster.mc_s"
        elif prefix == "quadrature.gap_quadrature":
            def before(args, kwargs):
                if "weight_fn" in kwargs:
                    kwargs["weight_fn"] = self._wrap_weight(kwargs["weight_fn"])
                else:
                    args = (self._wrap_weight(args[0]),) + args[1:]
                return args, None
        else:
            return None
        sig = inspect.signature(fn)
        return before

    def _wrap_weight(self, weight: Callable) -> Callable:
        totals = self.totals

        def traced_weight(points):
            t0 = _clock()
            totals["quadrature.nodes"] += points.shape[0]
            t1 = _clock()
            try:
                return weight(points)
            finally:
                t2 = _clock()
                totals["cluster.weight_s"] += t2 - t1
                totals["trace.overhead_s"] += (t1 - t0) + (_clock() - t2)

        return traced_weight

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        for modname in {"cli"} | {m for _, m, _ in TRACED}:
            importlib.import_module("clusterkit." + modname)
        mods = [m for name, m in sys.modules.items()
                if name == "clusterkit" or name.startswith("clusterkit.")]
        for prefix, modname, fname in TRACED:
            home = sys.modules["clusterkit." + modname]
            original = getattr(home, fname)
            wrapper = self._wrap(prefix, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def take(self) -> Dict[str, float]:
        out = dict(self.totals)
        self.totals.clear()
        return out


def pass_metrics(totals: Dict[str, float], op_seconds: List[float], scaled_seconds: float,
                 ops: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its raw totals.

    Layer times are as measured; trace.ops_per_s is scaled like the
    untraced ops_per_s, so the two compare.
    """
    busy = sum(op_seconds)
    out = {name: float(totals.get(name, 0.0)) for name in METRICS}
    out["quadrature.self_s"] = out["quadrature.gap_quadrature_s"] - out["cluster.weight_s"]
    gq = out["quadrature.gap_quadrature_s"]
    out["quadrature.nodes_per_s"] = out["quadrature.nodes"] / gq if gq > 0 else 0.0
    mc = totals.get("cluster.mc_s", 0.0)
    out["cluster.mc_samples_per_s"] = out["cluster.mc_samples"] / mc if mc > 0 else 0.0
    out["trace.ops_per_s"] = ops / scaled_seconds
    out["trace.overhead_pct"] = 100.0 * totals.get("trace.overhead_s", 0.0) / busy
    return out
