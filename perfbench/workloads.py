"""The four workloads: a fixed list of ops per pass, each with its check.

An op is one call into clusterkit's public API.  Its check compares the
output with an oracle from ``oracles`` (computed before timing starts) or
with a property the method must have, and returns None when the output is
right or a message saying what is wrong.

The seed picks the inputs' values (box sides, hard-rod size, inverse
temperature, activities, Monte Carlo streams); it never changes an op's
size, so a pass costs the same whatever the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import oracles as orc
from clusterkit import canonical, cluster, graphs, polymer, potentials, quadrature, radii, series, verify

#: every Monte Carlo op runs its chunks on this many threads (<= nproc)
MC_WORKERS = 1
#: a Monte Carlo value may sit this many reported standard errors from its
#: reference; with 20 chunk means the chance of a false alarm is ~1e-6
MC_PULL = 7.0
#: and its reported error must be positive and below this share of |reference|
MC_MAX_REL_ERROR = 0.25
#: relative tolerance of every quadrature and closed-form comparison
QUAD_TOL = 1e-10
#: the series recomputation of K* must agree with the closed form to this
#: share, as K_star's docstring and clusterkit.verify promise
KSTAR_TOL = 1e-8
#: K* defect range: the 500k-term tree series misses KSTAR_TOL here
DEFECT_U = 1e5


ROD = potentials.PairPotential("hard_rod", 1.0, 1)
SPHERE = potentials.PairPotential("hard_sphere", 1.0, 3)
WELL = potentials.PairPotential("square_well", 1.0, 1, epsilon=1.0, lambda_w=1.5, B=1.0)
WELL_W = Fraction(math.exp(1.0))  # e^(beta epsilon) at beta = epsilon = 1


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    #: the program fault this op runs into on every run, if any
    known_fault: Optional[str] = None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(label: str, got, want, tol: float = QUAD_TOL) -> Optional[str]:
    want = float(want)
    if not abs(float(got) - want) <= tol * max(1.0, abs(want)):
        return f"{label} = {float(got)!r}, want {want!r} (tol {tol:g})"
    return None


def _first(*msgs) -> Optional[str]:
    bad = [m for m in msgs if m]
    return "; ".join(bad) if bad else None


def _equal(want) -> Callable:
    """Exact outputs (rationals, counts) must equal the oracle."""
    return lambda out: None if out == want else f"{out!r} != {want!r}"


def quad_check(want) -> Callable:
    """(value, error) from a quadrature: value to QUAD_TOL, small error."""
    def check(out):
        val, err = out
        bad_err = None
        if not 0.0 <= err <= 1e-8 * max(1.0, abs(float(want))):
            bad_err = f"error estimate {err!r} not in [0, 1e-8]"
        return _first(_close("value", val, want), bad_err)
    return check


def pull_check(want: float, val: float, err: float) -> Optional[str]:
    if not 0.0 < err <= MC_MAX_REL_ERROR * abs(want):
        return f"reported error {err!r} not in (0, {MC_MAX_REL_ERROR:g} |ref|]"
    pull = (val - want) / err
    if abs(pull) > MC_PULL:
        return f"value {val!r} is {pull:+.1f} errors from {want!r}"
    return None


def mc_check(want: float) -> Callable:
    return lambda out: pull_check(want, out[0], out[1])


def _fill_graph_indices() -> None:
    """The vertex-pair tables graphs keeps per vertex count."""
    for n in range(1, 13):
        graphs.edge_mask(n, ())


def _seeded_dyadic(rng: random.Random, lo: float, steps: int) -> float:
    """lo + k/8 for a seeded k: exact in binary, so oracles see the same L."""
    return lo + rng.randrange(steps) / 8.0


# ---------------------------------------------------------------------------
# quadrature_1d
# ---------------------------------------------------------------------------


def quadrature_1d(seed: int) -> List[Op]:
    rng = random.Random(seed)
    L_box = _seeded_dyadic(rng, 9.0, 24)        # hard-rod box side
    L_z = _seeded_dyadic(rng, 6.0, 24)          # square-well box side
    L_cmp = _seeded_dyadic(rng, 1800.0, 3200)   # series-vs-direct box
    w_series = Fraction(16 + rng.randrange(32), 16)  # e^(beta eps) fed to series

    b_sw = orc.nn_mayer_b(WELL_W, Fraction(1), Fraction(3, 2), 6)
    beta_sw = orc.nn_virial_beta(WELL_W, Fraction(1), Fraction(3, 2), 3)
    b_box = orc.rod_box_b(Fraction(L_box), 5)
    b_in = orc.nn_mayer_b(w_series, Fraction(1), Fraction(3, 2), 4)
    beta_in = orc.nn_virial_beta(w_series, Fraction(1), Fraction(3, 2), 3)

    ops: List[Op] = []
    for n in range(2, 7):
        ops.append(Op(f"mayer_bn square_well n={n}",
                      lambda n=n: cluster.mayer_bn(WELL, 1.0, n), quad_check(b_sw[n])))
    for k in range(1, 4):
        ops.append(Op(f"virial_bk_direct square_well k={k}",
                      lambda k=k: cluster.virial_bk_direct(WELL, 1.0, k),
                      quad_check(beta_sw[k])))
    for n in range(2, 7):
        ops.append(Op(f"mayer_bn hard_rod n={n}",
                      lambda n=n: cluster.mayer_bn(ROD, 1.0, n), quad_check(orc.tonks_b(n))))
    for n in range(2, 6):
        ops.append(Op(f"mayer_bn hard_rod box n={n}",
                      lambda n=n: cluster.mayer_bn(ROD, 1.0, n, volume=L_box),
                      quad_check(b_box[n])))
    for N in (3, 4):
        want = orc.nn_ztilde_box(WELL_W, Fraction(1), Fraction(3, 2), Fraction(L_z), N)
        ops.append(Op(f"ztilde_direct square_well quadrature N={N}",
                      lambda N=N: canonical.ztilde_direct(WELL, 1.0, L_z, N, "quadrature"),
                      lambda out, want=want: quad_check(want)((out.ztilde, out.error))))
    ops.append(Op("compare_series_direct hard_rod N=100 k_max=5",
                  lambda: canonical.compare_series_direct(ROD, 1.0, L_cmp, 100, 5),
                  lambda out: _compare_check(out, L_cmp, 100, 5)))
    ops.append(Op("virial_from_mayer k=1..3",
                  lambda: {k: series.virial_from_mayer(b_in, k) for k in (1, 2, 3)},
                  _equal(beta_in)))
    ops.append(Op("invert_mayer_oracle k_max=3",
                  lambda: dict(series.invert_mayer_oracle(b_in, 3).values),
                  _equal(beta_in)))

    return ops


def fill_quadrature_1d() -> None:
    _fill_graph_indices()
    for q in range(1, 17):
        quadrature.gauss_nodes(q)
    for n in range(1, 7):
        graphs.ursell_table(n)
    for k in (2, 3):  # the two-connected graph lists
        cluster.virial_bk_direct(ROD, 1.0, k)


def _compare_check(out, L: float, N: int, k_max: int) -> Optional[str]:
    """Hard rods: Q = N ln(1 - (N-1)/L) / L and beta_k = -(k+1)/k."""
    rho = N / L
    q_direct = N * math.log1p(-(N - 1) / L) / L
    coeffs = {k: -(k + 1) / k for k in range(1, k_max + 1)}
    q_series = math.fsum(coeffs[k] / (k + 1) * rho ** (k + 1) for k in coeffs)
    msgs = [_close("Q_direct", out.q_direct, q_direct, 1e-12),
            _close("Q_series", out.q_series, q_series, 1e-12)]
    msgs += [_close(f"C_{k}", out.coefficients[k], c, 1e-9) for k, c in coeffs.items()]
    if not (out.certified and out.passed and out.gap <= out.budget):
        msgs.append(f"comparison not certified/passed (gap {out.gap}, budget {out.budget})")
    return _first(*msgs)


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------


def monte_carlo(seed: int) -> List[Op]:
    rng = random.Random(seed)
    streams = iter(range(seed * 1000, seed * 1000 + 1000))
    b_hs = orc.mayer_from_virial(orc.hard_sphere_virial(), 4)
    beta2_hs = orc.beta_from_pressure(orc.hard_sphere_virial(), 2)
    b_sw = orc.nn_mayer_b(WELL_W, Fraction(1), Fraction(3, 2), 4)
    beta_sw = orc.nn_virial_beta(WELL_W, Fraction(1), Fraction(3, 2), 2)
    mc = dict(method="monte_carlo", workers=MC_WORKERS)

    ops: List[Op] = []
    for pot, label, ref in ((SPHERE, "hard_sphere d=3", b_hs), (WELL, "square_well", b_sw)):
        for n in (3, 4):
            s = next(streams)
            ops.append(Op(f"mayer_bn {label} n={n} monte_carlo",
                          lambda pot=pot, n=n, s=s: cluster.mayer_bn(pot, 1.0, n, seed=s, **mc),
                          mc_check(float(ref[n]))))
    for pot, label, ref in ((SPHERE, "hard_sphere d=3", beta2_hs), (WELL, "square_well", beta_sw[2])):
        s = next(streams)
        ops.append(Op(f"virial_bk_direct {label} k=2 monte_carlo",
                      lambda pot=pot, s=s: cluster.virial_bk_direct(pot, 1.0, 2, seed=s, **mc),
                      mc_check(float(ref))))
    for N in (10, 11, 12):
        L = _seeded_dyadic(rng, 4.0 * N, 32)
        want = float(orc.nn_ztilde_box(WELL_W, Fraction(1), Fraction(3, 2), Fraction(L), N))
        s = next(streams)
        ops.append(Op(f"ztilde_direct square_well monte_carlo N={N}",
                      lambda N=N, L=L, s=s: canonical.ztilde_direct(WELL, 1.0, L, N, seed=s, **mc),
                      lambda out, want=want: pull_check(want, out.ztilde, out.error)))

    return ops


def fill_monte_carlo() -> None:
    _fill_graph_indices()
    cluster.virial_bk_direct(ROD, 1.0, 2)  # the two-connected graph list


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def _random_zeta(rng: random.Random, N: int) -> Dict[int, Fraction]:
    """Nonzero activities zeta_2..zeta_N, so every subset size is present."""
    return {m: Fraction(rng.choice([v for v in range(-60, 61) if v]), rng.randint(1, 40))
            for m in range(2, N + 1)}


def combinatorics(seed: int) -> List[Op]:
    rng = random.Random(seed)
    zeta7, zeta8, zeta10 = (_random_zeta(rng, N) for N in (7, 8, 10))
    b = {n: Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
         for n in range(2, 5)}
    N_p = 10

    profile = {N: polymer.ActivityProfile(N, z) for N, z in ((7, zeta7), (8, zeta8), (10, zeta10))}

    log_terms = orc.polymer_log_terms(7, zeta7, 3)
    ops: List[Op] = [
        Op("log_xi_ursell N=7 order=3",
           lambda: polymer.log_xi_ursell(7, profile[7], 3), _equal(log_terms)),
    ]
    for N, method in ((10, "recursion"), (8, "bruteforce")):
        ops.append(Op(f"xi_exact N={N} {method}",
                      lambda N=N, method=method: polymer.xi_exact(N, profile[N], method),
                      _equal(orc.polymer_xi(N, profile[N].zeta))))
    for s in ((2, 3), (4, 4), (2, 2, 2), (3, 3, 2)):
        want = orc.tree_factor(N_p, s)
        ops.append(Op(f"p_exact N={N_p} s={s}",
                      lambda s=s: polymer.p_exact(N_p, s), _equal(want)))
    for k in (1, 2, 3):
        if k == 1:
            want = 2 * b[2] * (1 - Fraction(1, N_p))
        else:
            want = orc.finite_n_coefficient(N_p, b, k)
        ops.append(Op(f"ck_finite_N N={N_p} k={k}",
                      lambda k=k: polymer.ck_finite_N(N_p, b, k), _equal(want)))

    scan_count = orc.count_connected_labeled(6)
    ops.append(Op("penrose_identity_scan n=6",
                  lambda: verify.penrose_identity_scan(6), _equal((scan_count, 0))))
    # default seed: this op's cost grows as 2^edges of the sampled graphs
    ops.append(Op("penrose_identity_random n=7 count=100",
                  lambda: verify.penrose_identity_random(7, 100), _equal((100, 0))))

    five = [(edges, abs(orc.ursell(5, edges))) for edges in orc.connected_graphs(5)]
    hosts = [graphs.LabeledGraph.from_edges(5, edges) for edges, _ in five]

    def trees_check(out) -> Optional[str]:
        for (edges, want), trees in zip(five, out):
            if len(trees) != want:
                return f"graph {edges}: {len(trees)} trees, |Ursell| = {want}"
            for t in trees:
                te = sorted(t.edges)
                if len(te) != 4 or not set(te) <= set(edges) or not orc.is_connected(5, te):
                    return f"graph {edges}: {te} is not a spanning tree of it"
        return None

    for name in ("penrose_trees", "penrose_trees_fast"):
        ops.append(Op(f"{name} all connected n=5",
                      lambda name=name: [getattr(graphs, name)(g) for g in hosts],
                      trees_check))

    return ops


def fill_combinatorics() -> None:
    _fill_graph_indices()
    for n in range(1, 7):
        graphs.ursell_table(n)
    for s in ((2, 2), (2, 2, 2)):  # every intersection graph on <= 3 parts
        polymer.p_exact(6, s)


# ---------------------------------------------------------------------------
# radii_report
# ---------------------------------------------------------------------------


def _report_check(rep, beta: float, B: float, C: float) -> Optional[str]:
    u = math.exp(2.0 * beta * B)
    F, a, w = orc.radius_F(u)
    msgs = [
        _close("F", rep.F, F), _close("g", rep.g, F),
        _close("a*", rep.a_star, a, 1e-6), _close("w*", rep.w_star, w, 1e-6),
        _close("K*closed * F", rep.k_star_closed * F, 1.0),
        _close("K*series", rep.k_star_series, rep.k_star_closed, KSTAR_TOL),
        _close("rho*", rep.rho_star / (F / (u * C)), 1.0),
        _close("mayer radius", rep.mayer_radius * math.exp(2.0 * beta * B + 1.0) * C, 1.0),
        _close("base constant", rep.base_constant * math.exp(1.0 + a), 1.0, 1e-6),
        _close("reference base", rep.base_constant_reference, math.exp(-1.426)),
    ]
    for bound in rep.bounds:
        ours, lp = orc.coefficient_bound(bound.k, beta, B, C, a)
        msgs += [_close(f"bound k={bound.k}", bound.ours / ours, 1.0, 1e-6),
                 _close(f"LP bound k={bound.k}", bound.lp / lp, 1.0)]
    if rep.a_discrepancy_flagged != (abs(a - 0.426) > 1e-3):
        msgs.append("a* discrepancy flag wrong")
    return _first(*msgs)


def radii_report(seed: int) -> List[Op]:
    rng = random.Random(seed)
    sigma = 0.5 + rng.randrange(16) / 8.0
    beta = 0.5 + rng.randrange(16) / 8.0
    rod = potentials.PairPotential("hard_rod", sigma, 1)
    # fixed input, independent of the seed: u = e^(2 beta B) = DEFECT_U
    beta_defect = math.log(DEFECT_U) / (2.0 * WELL.B)
    C_well = 2.0 * (1.0 + (WELL.lambda_w - 1.0) * math.expm1(beta_defect * WELL.epsilon))

    def report(pot, b):
        C, _ = potentials.c_beta(pot, b)
        return C, radii.radius_report(b, pot.B, C)

    def check(out, b, B, C):
        got_C, rep = out
        return _first(_close("C(beta)", got_C, C, 1e-12), _report_check(rep, b, B, C))

    return [
        Op("radius_report hard_rod u=1",
           lambda: report(rod, beta), lambda out: check(out, beta, 0.0, 2.0 * sigma)),
        Op(f"radius_report square_well u={DEFECT_U:g}",
           lambda: report(WELL, beta_defect),
           lambda out: check(out, beta_defect, WELL.B, C_well),
           known_fault="radii._tree_series_sum stops at 500k terms, so K* by the "
                       "tree series misses the closed form by 3e-8 at u = 1e5"),
    ]


def fill_radii_report() -> None:
    quadrature.gauss_nodes(12)


#: name -> (ops of one pass for a seed, cache fill run before timing)
WORKLOADS: Dict[str, Tuple[Callable[[int], List[Op]], Callable[[], None]]] = {
    "monte_carlo": (monte_carlo, fill_monte_carlo),
    "quadrature_1d": (quadrature_1d, fill_quadrature_1d),
    "combinatorics": (combinatorics, fill_combinatorics),
    "radii_report": (radii_report, fill_radii_report),
}
