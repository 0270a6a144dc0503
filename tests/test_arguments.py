"""The argument surface: every public callable's numeric parameters, each with
the rule of ``clusterkit.errors`` it is checked by, and the tests generated
from that one table.

``ARGUMENT_SURFACE`` gives one valid call per public callable (a second for
the Monte Carlo counts, and for ``PairPotential``'s cutoff, which belongs to
a table potential) and the rule of each numeric parameter.
``test_argument_surface`` puts each rule's bad values into the valid call one
parameter at a time and requires the rule's class and whole text; for an
integer rule it also requires an integral float and a numpy int to give the
int's repr at low, low + 1 and low + 2.  ``test_every_parameter_has_an_entry``
walks the public functions, classmethods and checked constructors of
``src/clusterkit`` and fails on a parameter that neither has a rule here nor
is in ``EXEMPT``.
"""

import importlib
import inspect
import math
import pkgutil
import re
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

import clusterkit
from clusterkit import tonks
from clusterkit.canonical import compare_series_direct, ztilde_direct
from clusterkit.cluster import mayer_bn, penrose_bn_bound, virial_bk_direct
from clusterkit.errors import ClusterKitError, ConfigError, DomainError, InputError
from clusterkit.graphs import (
    GRAPH_CLASSES,
    LabeledGraph,
    connected_mask_flags,
    connected_weight_sum,
    edge_mask,
    enum_graphs,
    mask_edges,
    mask_tree_images,
    mask_tree_table,
    penrose_trees,
    penrose_trees_fast,
    prufer_tree_masks,
    slack_masks,
    ursell_table,
    ursell_values,
)
from clusterkit.polymer import (ActivityProfile, ck_finite_N, fp_check, log_xi_ursell, p_exact,
                                p_limit, xi_exact)
from clusterkit.potentials import (KINDS, PairPotential, bond_level_values, c_beta, f_bond,
                                   f_bond_array)
from clusterkit.radii import (F_of_u, K_star, ck_bound, mayer_radius, radius_report, rho_star,
                              tree_series_excess)
from clusterkit.series import (combi_identity_check, free_energy_series, invert_mayer_oracle,
                               virial_from_mayer)
from clusterkit.verify import SUITES, penrose_identity_random, penrose_identity_scan, run_checks


class Rule(NamedTuple):
    """A parameter's rule: the class it refuses by, the bad values and the
    text of each refusal.  ``ints`` are the valid ints at which an integral
    float and a numpy int must give the int's repr; ``wrap`` puts a value in
    its place in the call (a part of a tuple), and ``also`` gives the other
    arguments that a valid int needs (a tuple of its length)."""

    error: type
    bad: tuple
    text: Callable[[object], str]
    ints: tuple = ()
    wrap: Callable = lambda x: x
    also: Callable = lambda v: {}


def integer(name, low, error, ints=None, **kw):
    """Rule 1: an integer >= low, valid at low, low + 1 and low + 2 unless
    ``ints`` says otherwise."""
    bad = (True, False, 2.5, low - 1, -1.0, math.nan, math.inf, -math.inf, "2")
    return Rule(error, bad, lambda x: f"{name} must be an integer >= {low}, got {x!r}",
                ints or (low, low + 1, low + 2), **kw)


def positive(name, error=DomainError):
    """Rule 2: positive and finite; an int past the float range is inf."""
    bad = (True, 0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, "1.5")
    return Rule(error, bad, lambda x: f"{name} must be positive and finite, got {x!r}")


def stability(error=DomainError):
    """Rule 3: B finite and >= 0."""
    bad = (True, -1.0, math.nan, math.inf, 10**400, "1.5")
    return Rule(error, bad, lambda x: f"stability constant B must be >= 0 and finite, got {x!r}")


def finite(name, error=DomainError):
    """Any other input that runs in floats: finite."""
    bad = (True, math.nan, math.inf, -math.inf, 10**400, -10**400, Fraction(10**400), "0.01")
    return Rule(error, bad, lambda x: f"{name} must be finite, got {x!r}")


def real(name, error=InputError):
    """Rule 4: an int, a Fraction of any size or a finite float."""
    bad = (True, math.nan, math.inf, -math.inf, "0.5")
    return Rule(error, bad, lambda x: f"{name} must be a finite real, got {x!r}")


def root(n, error=ValueError):
    """Rule 1 for a root of a graph on [n], whose int values outside [1..n]
    are refused by the range."""
    rule = integer("root", 1, error)
    return rule._replace(bad=rule.bad + (n + 1,), text=lambda x: (
        f"root {x} outside [1..{n}]" if type(x) is int else rule.text(x)))


def own(text, bad, error=DomainError):
    """A range a function checks itself, by the float ``errors._float`` makes."""
    return Rule(error, bad + (True, math.nan, math.inf, 10**400, "2"), lambda x: f"{text} {x!r}")


def choice(what, error, want=None):
    """A name among a function's choices, which the text may list."""
    tail = "" if want is None else f"; want one of {want}"
    return Rule(error, ("no_such",), lambda x: f"unknown {what} {x!r}{tail}")


MC = dict(seed=1, samples=2_000, chunk=1_000, workers=1)
MC_RULES = dict(
    seed=Rule(ConfigError, (None, -1, 2**64, True, False, 2.5, 2.0**64, math.nan, "1"),
              lambda x: ("Monte Carlo needs an explicit seed" if x is None else
                         f"Monte Carlo seed must be an integer in [0, 2^64), got {x!r}"), (1,)),
    **{key: integer(f"Monte Carlo {key}", 1, ConfigError, ints=(MC[key],))
       for key in ("samples", "chunk", "workers")},
)
ROD = PairPotential("hard_rod", 1.0, 1)
WELL = PairPotential("square_well", 1.0, 1, epsilon=1.0, lambda_w=1.5, B=1.0)
TABLE = PairPotential("custom_tabulated", 1.0, 1, table=((0.0, 1.0), (1.0, 0.5)), cutoff=2.0)
#: hard-rod b_1..b_5 and beta_1..beta_4, exact; a profile on [4]
B_ROD = {n: tonks.bn_exact(n) for n in range(1, 6)}
C_ROD = {k: tonks.beta_k_exact(k) for k in range(1, 5)}
PROFILE = ActivityProfile(4, {2: Fraction(1, 3), 3: Fraction(-1, 4)})
RADII = dict(beta=1.0, B=0.0, cbeta=2.0)
RADII_RULES = dict(beta=positive("beta"), B=stability(), cbeta=positive("C(beta)"))


class Row(NamedTuple):
    fn: Callable
    valid: dict
    rules: dict


def _graph_n(low=1, **kw):
    return integer("vertex count n", low, ValueError, **kw)


#: one valid call per public callable (the Monte Carlo rules in a call of
#: their own), and the rule of each numeric parameter
ARGUMENT_SURFACE = {
    "canonical.ztilde_direct": Row(
        ztilde_direct, dict(p=ROD, beta=1.0, L=8.0, N=3, method="quadrature"),
        dict(beta=positive("beta"), L=positive("L"),
             N=integer("particle count N", 1, DomainError), method=choice("method", ConfigError))),
    "canonical.compare_series_direct": Row(
        compare_series_direct, dict(p=ROD, beta=1.0, L=8.0, N=3, k_max=2),
        dict(beta=positive("beta"), L=positive("L"), N=integer("particle count N", 1, DomainError),
             k_max=integer("series order k_max", 1, DomainError),
             direct_method=choice("method", ConfigError))),
    "cluster.mayer_bn": Row(
        mayer_bn, dict(p=ROD, beta=1.0, n=3, volume=None),
        dict(beta=positive("beta"), n=integer("order n", 1, DomainError),
             volume=positive("box side"), method=choice("method", ConfigError))),
    "cluster.virial_bk_direct": Row(
        virial_bk_direct, dict(p=ROD, beta=1.0, k=2),
        dict(beta=positive("beta"), k=integer("order k", 1, DomainError),
             method=choice("method", ConfigError))),
    **{f"{fn.__module__.split('.')[1]}.{fn.__name__} (monte_carlo)": Row(
        fn, {**valid, "p": ROD, "beta": 1.0, key: "monte_carlo", **MC}, MC_RULES)
       for fn, valid, key in [
           (ztilde_direct, dict(L=6.0, N=3), "method"),
           (compare_series_direct, dict(L=6.0, N=3, k_max=2), "direct_method"),
           (mayer_bn, dict(n=3), "method"), (virial_bk_direct, dict(k=2), "method")]},
    "cluster.penrose_bn_bound": Row(
        penrose_bn_bound, dict(n=3, **RADII),
        dict(n=integer("order n", 2, DomainError), **RADII_RULES)),
    "graphs.LabeledGraph.from_edges": Row(
        LabeledGraph.from_edges, dict(n=3, edges=[]), dict(n=_graph_n())),
    "graphs.edge_mask": Row(edge_mask, dict(n=3, edges=[(1, 2)]), dict(n=_graph_n(ints=(2, 3, 4)))),
    "graphs.mask_edges": Row(mask_edges, dict(n=3, mask=1), dict(n=_graph_n(ints=(2, 3, 4)))),
    "graphs.enum_graphs": Row(
        enum_graphs, dict(n=3, klass="connected"),
        dict(n=_graph_n(), klass=choice("graph class", ValueError, GRAPH_CLASSES))),
    "graphs.prufer_tree_masks": Row(prufer_tree_masks, dict(n=4), dict(n=_graph_n(2))),
    "graphs.connected_weight_sum": Row(
        connected_weight_sum, dict(fvals=np.zeros((2, 6)), n=4), dict(n=_graph_n())),
    "graphs.ursell_values": Row(ursell_values, dict(n=3, masks=[0]), dict(n=_graph_n())),
    "graphs.ursell_table": Row(ursell_table, dict(n=3), dict(n=_graph_n())),
    "graphs.mask_tree_images": Row(
        mask_tree_images, dict(n=3, masks=[0], root=1), dict(n=_graph_n(), root=root(3))),
    "graphs.mask_tree_table": Row(
        mask_tree_table, dict(n=3, root=1), dict(n=_graph_n(), root=root(3))),
    "graphs.connected_mask_flags": Row(connected_mask_flags, dict(n=3), dict(n=_graph_n())),
    "graphs.slack_masks": Row(
        slack_masks, dict(n=3, trees=[], root=1), dict(n=_graph_n(), root=root(3))),
    **{f"graphs.{fn.__name__}": Row(fn, dict(g=LabeledGraph(3, 7), root=1), dict(root=root(3)))
       for fn in (penrose_trees, penrose_trees_fast)},
    "polymer.ActivityProfile": Row(
        ActivityProfile, dict(N=4, zeta={2: Fraction(1, 3)}),
        dict(N=integer("ground-set size N", 1, InputError, ints=(2, 3, 4)))),
    "polymer.ActivityProfile.from_mayer": Row(
        ActivityProfile.from_mayer, dict(b={2: -1.0, 3: Fraction(3, 2)}, N=4, rho=0.5),
        dict(N=integer("ground-set size N", 1, InputError), rho=real("density rho"))),
    "polymer.xi_exact": Row(
        xi_exact, dict(N=4, profile=PROFILE, method="recursion"),
        dict(N=integer("ground-set size N", 0, InputError), method=choice("method", InputError))),
    "polymer.log_xi_ursell": Row(
        log_xi_ursell, dict(N=4, profile=PROFILE, n_max=2),
        dict(N=integer("ground-set size N", 0, InputError),
             n_max=integer("expansion order", 1, InputError))),
    "polymer.fp_check": Row(fp_check, dict(profile=PROFILE, a=0.5),
                            dict(a=positive("the weight parameter a", InputError))),
    "polymer.p_exact": Row(
        p_exact, dict(N=6, s=(2, 2)),
        dict(N=integer("ground-set size N", 1, InputError),
             s=integer("every part", 2, InputError, wrap=lambda x: (x, 2)))),
    "polymer.p_limit": Row(
        p_limit, dict(s=(2, 2)),
        dict(s=integer("every part", 2, InputError, wrap=lambda x: (x, 2)))),
    "polymer.ck_finite_N": Row(
        ck_finite_N, dict(N=6, b=B_ROD, k=2),
        dict(N=integer("ground-set size N", 1, InputError), k=integer("order k", 1, InputError))),
    "potentials.PairPotential": Row(
        PairPotential, dict(kind="square_well", sigma=1.0, dimension=1, epsilon=1.0, lambda_w=1.5,
                            B=1.0),
        dict(kind=choice("potential kind", ConfigError, KINDS),
             sigma=positive("sigma", ConfigError), dimension=integer("dimension", 1, ConfigError),
             epsilon=finite("epsilon", ConfigError), lambda_w=finite("lambda_w", ConfigError),
             B=stability(ConfigError))),
    "potentials.PairPotential (custom_tabulated)": Row(
        PairPotential, dict(kind="custom_tabulated", sigma=1.0, dimension=1,
                            table=((0.0, 1.0), (1.0, 0.5)), cutoff=2.0),
        dict(cutoff=positive("cutoff", ConfigError))),
    # f_bond_array reads a well's bond from bond_level_values: a table tests its own check
    **{f"potentials.{fn.__name__}": Row(fn, dict(p=p, beta=1.0, **more),
                                        dict(beta=positive("beta")))
       for fn, p, more in [(f_bond, WELL, dict(x=1.2)), (bond_level_values, WELL, {}),
                           (c_beta, WELL, {}), (f_bond_array, TABLE, dict(r=[0.5, 1.2, 2.0]))]},
    **{f"radii.{fn.__name__}": Row(fn, dict(u=1.0), dict(u=own(
        "u = e^(2 beta B) must be finite and >= 1, not", (0.5, -math.inf))))
       for fn in (F_of_u, K_star)},
    "radii.tree_series_excess": Row(tree_series_excess, dict(x=0.1), dict(x=own(
        "the tree series is enclosed for x from the smallest normal float to 1/e, not at x =",
        (0.0, 0.5, 1e-310)))),
    **{f"radii.{fn.__name__}": Row(fn, RADII, RADII_RULES) for fn in (rho_star, mayer_radius)},
    "radii.ck_bound": Row(
        ck_bound, dict(k=2, a_star=0.46, **RADII),
        dict(k=integer("order k", 1, DomainError), a_star=positive("a*"), **RADII_RULES)),
    "radii.radius_report": Row(
        radius_report, dict(k_orders=(2,), **RADII),
        dict(k_orders=integer("order k", 1, DomainError, wrap=lambda x: (x,)), **RADII_RULES)),
    "series.virial_from_mayer": Row(virial_from_mayer, dict(b=B_ROD, k=2),
                                    dict(k=integer("order k", 1, DomainError))),
    "series.invert_mayer_oracle": Row(invert_mayer_oracle, dict(b=B_ROD, k_max=2),
                                      dict(k_max=integer("order k_max", 1, DomainError))),
    # n = k, and t = (t_1, 2, ..., 2) of length n sums to n + k - 1
    "series.combi_identity_check": Row(
        combi_identity_check, dict(t=(1, 2, 2), n=3, k=3),
        dict(t=integer("every t_i", 1, InputError, ints=(1,), wrap=lambda x: (x, 2, 2)),
             n=integer("n", 2, InputError, also=lambda v: dict(k=v, t=(1,) + (2,) * (v - 1))),
             k=integer("k", 1, InputError, ints=(3,)))),
    "series.free_energy_series": Row(
        free_energy_series, dict(rho=0.01, coeffs=C_ROD, k_max=2, **RADII),
        dict(rho=finite("density rho"), k_max=integer("order k_max", 1, DomainError),
             **RADII_RULES)),
    "tonks.bn_exact": Row(tonks.bn_exact, dict(n=3), dict(n=integer("order n", 1, DomainError))),
    "tonks.bn_value": Row(
        tonks.bn_value, dict(n=3, sigma=0.5),
        dict(n=integer("order n", 1, DomainError), sigma=positive("sigma"))),
    "tonks.beta_k_exact": Row(tonks.beta_k_exact, dict(k=2),
                              dict(k=integer("order k", 1, DomainError))),
    "tonks.beta_k_value": Row(
        tonks.beta_k_value, dict(k=2, sigma=0.5),
        dict(k=integer("order k", 1, DomainError), sigma=positive("sigma"))),
    **{f"tonks.{fn.__name__}": Row(fn, dict(rho=0.1, sigma=1.0),
                                   dict(rho=finite("density rho"), sigma=positive("sigma")))
       for fn in (tonks.pressure, tonks.q_infinite_volume)},
    "tonks.ztilde_closed": Row(
        tonks.ztilde_closed, dict(N=3, L=10.0, sigma=1.0),
        dict(N=integer("particle count N", 1, DomainError), L=positive("L"),
             sigma=positive("sigma"))),
    "verify.penrose_identity_scan": Row(
        penrose_identity_scan, dict(n=3, root=1),
        dict(n=integer("vertex count n", 1, ConfigError), root=root(3, ConfigError))),
    "verify.penrose_identity_random": Row(
        penrose_identity_random, dict(n=5, count=3, root=1),
        dict(n=integer("vertex count n", 1, ConfigError), count=integer("count", 1, ConfigError),
             root=root(5, ConfigError))),
    "verify.run_checks": Row(run_checks, dict(suite="graphs"),
                             dict(suite=choice("suite", ClusterKitError, SUITES))),
}


def call(label, **over):
    """The valid call of ``label`` with the values ``over`` in place."""
    row = ARGUMENT_SURFACE[label]
    out = row.fn(**{**row.valid, **over})
    return list(out) if inspect.isgenerator(out) else out


def assert_refused(label, key, bad, **over):
    """The call of ``label`` with ``bad`` for ``key`` refused by the key's
    rule, with the rule's whole text."""
    rule = ARGUMENT_SURFACE[label].rules[key]
    with pytest.raises(rule.error, match=f"^{re.escape(rule.text(bad))}$"):
        call(label, **over, **{key: rule.wrap(bad)})


def check_rule(label, key, **over):
    """Each bad value of the rule of ``key`` refused, and at each of its
    valid ints an integral float and a numpy int giving the int's repr."""
    rule = ARGUMENT_SURFACE[label].rules[key]
    for bad in rule.bad:
        assert_refused(label, key, bad, **over)
    for n in rule.ints:
        at = {**over, **rule.also(n)}
        want = repr(call(label, **at, **{key: rule.wrap(n)}))
        for x in (float(n), np.int64(n)):
            assert repr(call(label, **at, **{key: rule.wrap(x)})) == want, (n, x)


@pytest.mark.parametrize("label, key", [(label, key) for label, row in ARGUMENT_SURFACE.items()
                                        for key in row.rules])
def test_argument_surface(label, key):
    check_rule(label, key)


#: parameters that take no number, or only one that clusterkit passes after
#: checking it; "f.*" is every parameter of f.  The engine entries are not
#: checked themselves: a direct call with a bool runs it as an int, and one
#: with a fraction may raise a bare TypeError (CHANGES.md names this)
EXEMPT = {
    **dict.fromkeys([
        "canonical.ztilde_direct.p", "canonical.compare_series_direct.p", "cluster.mayer_bn.p",
        "cluster.virial_bk_direct.p", "potentials.f_bond.p", "potentials.c_beta.p",
        "potentials.bond_level_values.p", "potentials.f_bond_array.p",
    ], "a PairPotential, whose fields its constructor checks"),
    **dict.fromkeys(["polymer.xi_exact.profile", "polymer.log_xi_ursell.profile",
                     "polymer.fp_check.profile"],
                    "an ActivityProfile, whose N and activities its constructor checks"),
    **dict.fromkeys([
        "polymer.ActivityProfile.zeta", "polymer.ActivityProfile.from_mayer.b",
        "polymer.ck_finite_N.b", "series.virial_from_mayer.b", "series.invert_mayer_oracle.b",
        "series.free_energy_series.coeffs",
    ], "a table: each entry by rule 4, a missing one by name (test_polymer, test_series)"),
    "potentials.PairPotential.table": "(r, V) pairs: REFUSED_FIELDS' table rows",
    "potentials.potential_from_config.cfg": "a mapping, each key by name (test_config_loader)",
    **dict.fromkeys(["graphs.LabeledGraph.from_edges.edges", "graphs.edge_mask.edges",
                     "graphs.mask_edges.mask"], "edges and edge masks on [n]"),
    **dict.fromkeys(["graphs.penrose_trees.g", "graphs.penrose_trees_fast.g"],
                    "a LabeledGraph, made by from_edges"),
    **dict.fromkeys(["graphs.ursell_values.masks", "graphs.mask_tree_images.masks",
                     "graphs.slack_masks.trees", "graphs.connected_weight_sum.fvals"],
                    "mask and bond arrays, their range checked by name (test_graphs)"),
    **dict.fromkeys(["potentials.f_bond.x", "potentials.f_bond_array.r"],
                    "separations: a vector, a radius or an array of radii"),
    **dict.fromkeys([
        "graphs.vertex_pairs.n", "cluster.graph_list_weight_sum.*",
        *(f"quadrature.{name}.*" for name in (
            "gauss_nodes", "sphere_surface", "ball_volume", "integrate_1d", "difference_closure",
            "sum_closure", "pair_window_matrix", "bond_levels", "distinct_ids", "gap_quadrature")),
    ], "unchecked engine of the graph functions, mayer_bn, virial_bk_direct, ztilde_direct, "
       "c_beta and PairPotential, which check n, beta, the orders and the dimension"),
    "canonical.q_lambda.result": "a CanonicalResult of ztilde_direct",
    **dict.fromkeys(["cli.build_parser.config", "cli.main.argv", "cli.run_for_test.argv"],
                    "command-line text, parsed by the flag types (test_cli)"),
    **dict.fromkeys([f"reporting.{name}.*" for name in (
        "float_or_none", "rational_fields", "json_payload", "dump_json", "dump_csv",
        "render_table")], "output: values the library returned"),
}


def _public_parameters():
    """{"module.qualname.parameter": callable} over the public functions
    (cached ones too), classmethods and the constructors that check their fields."""
    out = {}
    for info in pkgutil.iter_modules(clusterkit.__path__):
        module = importlib.import_module(f"clusterkit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            found = [obj] if inspect.isfunction(inspect.unwrap(obj)) else []
            if inspect.isclass(obj):
                found += [getattr(obj, attr) for attr, raw in vars(obj).items()
                          if not attr.startswith("_") and isinstance(raw, classmethod)]
                found += [obj] if hasattr(obj, "__post_init__") else []
            for fn in found:
                for key in inspect.signature(fn).parameters:
                    out[f"{_name(fn)}.{key}"] = fn
    return out


def _name(fn):
    """"module.qualname" of a callable of ``clusterkit``."""
    return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"


def test_every_parameter_has_an_entry():
    # a parameter missing from the surface goes unchecked, as root once did
    params = _public_parameters()
    ruled = {f"{_name(row.fn)}.{key}" for row in ARGUMENT_SURFACE.values() for key in row.rules}
    exempt = {key for key in params if key in EXEMPT or key.rsplit(".", 1)[0] + ".*" in EXEMPT}
    assert sorted(set(params) - ruled - exempt) == []
    # no stale entry: each names a parameter, and the valid calls name the real ones
    assert {key for key in EXEMPT if not key.endswith(".*")} - set(params) == set()
    assert {key[:-2] for key in EXEMPT if key.endswith(".*")} <= {
        key.rsplit(".", 1)[0] for key in params}
    assert ruled - set(params) == set()
