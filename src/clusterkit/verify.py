"""Named invariant checks: the one registry behind ``clusterkit verify``.

Every module invariant has one named check in ``CHECKS``, a function of no
arguments: the suite has no settings, and every sampled check draws from
``SEED``.  ``run_checks`` executes a suite and prints one PASS/FAIL line per
check, and ``tests/test_verify.py`` runs every entry under pytest.  The
graph checks work on integer edge masks only: their hosts are the masks of
``graphs.connected_mask_flags``, and their trees the masks of
``graphs._slack_free_tree_masks`` (up to 5 vertices a lookup in that filter
run once for every host, on 6 and 7 a filter of every labeled tree per
host, the slack-rule growth past that) and of ``graphs.prufer_tree_masks``.
The exhaustive tree-identity scan checks the premise of Penrose's proof:
grouped by tree image, the connected spanning masks of the complete graph
form the boolean intervals [tree, tree | slack(tree)] of the slack rule that
the growth follows.  The identity on every host follows by summing over the
intervals, so per host only the sign is checked.  Given the intervals, the
enumerated trees of a host are its Penrose trees when they are distinct
slack-free spanning trees inside it, as many as |Ursell|; the
fast-equivalence check tests that on 811 hosts of up to 6 vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import graphs, tonks
from .canonical import compare_series_direct, q_lambda, ztilde_direct
from .cluster import mayer_bn, penrose_bn_bound, virial_bk_direct
from .errors import ClusterKitError, ConfigError, DomainError, _integer
from .graphs import (
    _decode_tree_sequence,
    _mask_connected,
    _mask_tree_image,
    _slack_free_tree_masks,
    connected_mask_flags,
    edge_mask,
    mask_tree_images,
    mask_tree_table,
    prufer_tree_masks,
    ursell_table,
    ursell_values,
)
from .polymer import ActivityProfile, ck_finite_N, fp_check, log_xi_ursell, p_exact, p_limit, xi_exact
from .potentials import PairPotential, c_beta, f_bond_array
from .quadrature import integrate_1d
from .radii import F_of_u, K_star, LP_BOUND_DENOMINATOR, ck_bound, radius_report
from .series import combi_identity_check, free_energy_series, invert_mayer_oracle, virial_from_mayer


@dataclass
class CheckResult:
    name: str
    suite: str
    passed: bool
    detail: str


#: the seed of every sampled check, some offset by a constant so their streams differ
SEED = 20260808


# ---------------------------------------------------------------------------
# shared heavy scans
# ---------------------------------------------------------------------------

def penrose_identity_scan(n: int, root: int = 1) -> Tuple[int, int]:
    """Check the premise of Penrose's proof on every connected graph on [n].

    The connected masks with tree image t must be the interval [t, t | slack]
    for the slack rule (``graphs.slack_masks``, the array form of
    ``graphs._slack_mask``), or ClusterKitError names t.  Inside a host G
    such a class sums (-1)^|A| to (-1)^(n-1) if G holds t and misses slack,
    else to 0; so the identity holds on every host, and a mismatch is a
    connected graph whose ursell value has the wrong sign.  Returns
    (graphs checked, mismatches).  Exhaustive up to n = 6.  ConfigError
    names an n or a root (``graphs._check_root``) that is not an integer
    in range.
    """
    n = _integer("vertex count n", n, 1, ConfigError)
    root = graphs._check_root(n, root, ConfigError)
    flags, images = mask_tree_table(n, root)
    conn = np.flatnonzero(flags)
    # the classes by image: the distinct images in increasing order, and
    # each member's position among them, read from a position table
    member = images[conn]
    sizes = np.bincount(member)
    trees = np.flatnonzero(sizes)
    position = np.zeros(sizes.size, dtype=np.intp)
    position[trees] = np.arange(trees.size)
    cls, sizes = position[member], sizes[trees]
    slack = graphs.slack_masks(n, trees, root)
    # a class is as large as its interval, 2^|slack|, and each member holds
    # its tree and no edge outside tree | slack
    width = ((slack[:, None] >> np.arange(n * (n - 1) // 2)) & 1).sum(axis=1)
    bad = sizes != 1 << width
    t, top = trees[cls], (trees | slack)[cls]
    bad[cls[((conn & t) != t) | ((conn & ~top) != 0)]] = True
    if bad.any():
        raise ClusterKitError(f"preimage class of tree mask {trees[bad.argmax()]} is not "
                              "the interval [tree, tree | slack]")
    sign = 1 if (n - 1) % 2 == 0 else -1
    mism = int(np.count_nonzero(sign * ursell_table(n)[conn] <= 0))
    return len(conn), mism


def penrose_identity_random(n: int = 7, count: int = 100, root: int = 1) -> Tuple[int, int]:
    """Spot-check the identity on random connected graphs (default n = 7).

    Each host is the first connected graph among G(n, 1/2) draws from
    ``SEED``.  The Ursell values come from one ``ursell_values`` call, by
    the vertex-subset log, and independently the Penrose trees of each host from
    ``_slack_free_tree_masks``: on 7 vertices a filter of the table of
    every labeled tree, from 8 on the slack-rule growth; neither looks at
    a non-tree subgraph.  A host mismatches if the tree count is not |Ursell|,
    or if the first tree found has a slack edge (``graphs.slack_masks``,
    one call for all the hosts) in the host, which a growth that gives a
    vertex the wrong parent does.  The exhaustive scan checks the slack
    rule's premise up to n = 6.  A count below 1 would check nothing, and
    ConfigError names it, as it does an n or a root that is not an integer
    in range.
    """
    n = _integer("vertex count n", n, 1, ConfigError)
    count = _integer("count", count, 1, ConfigError)
    root = graphs._check_root(n, root, ConfigError)
    rng = random.Random(SEED)
    npairs = n * (n - 1) // 2
    sign = 1 if (n - 1) % 2 == 0 else -1
    hosts = []
    for _ in range(count):
        while True:
            mask = 0
            for k in range(npairs):
                if rng.random() < 0.5:
                    mask |= 1 << k
            if _mask_connected(n, mask):
                break
        hosts.append(mask)
    # the count, then that the first tree found has no slack edge in the host
    counted, firsts = [], []
    for mask, value in zip(hosts, ursell_values(n, hosts).tolist()):
        trees = _slack_free_tree_masks(n, mask, root)
        if value == sign * len(trees) and sign * value > 0:
            counted.append(mask)
            firsts.append(trees[0])
    slack = graphs.slack_masks(n, firsts, root) & np.array(counted, dtype=np.int64)
    return count, count - len(counted) + int(np.count_nonzero(slack))


def _fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _random_profile(rng: random.Random, N: int) -> ActivityProfile:
    zeta = {
        m: Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        for m in range(2, N + 1)
    }
    return ActivityProfile(N, zeta)


_ROD = PairPotential("hard_rod", 1.0, 1)
_SPHERE = PairPotential("hard_sphere", 1.0, 3)
_WELL = PairPotential("square_well", 1.0, 1, epsilon=1.0, lambda_w=1.5, B=1.0)

#: u at which K*'s tree-series recomputation must match its closed form
KSTAR_U = (1.0, 2.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e20)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _check_penrose_identity() -> Tuple[bool, str]:
    parts = []
    ok = True
    for n in range(2, 7):
        total, mism = penrose_identity_scan(n)
        ok &= mism == 0
        parts.append(f"n={n}: {total} graphs, {mism} mismatches")
    # the invariant pairs the exhaustive scan with random 7- and 8-vertex
    # samples, whose trees come from the tree table and the growth
    for n in (7, 8):
        total, mism = penrose_identity_random(n, 100)
        ok &= mism == 0
        parts.append(f"n={n} random: {total} graphs, {mism} mismatches")
    return ok, "; ".join(parts)


def _check_root_independence() -> Tuple[bool, str]:
    rng = random.Random(SEED)
    hosts = []
    for n in range(2, 7):
        masks = np.flatnonzero(connected_mask_flags(n)).tolist()
        if n >= 5:
            masks = [masks[rng.randrange(len(masks))] for _ in range(15)]
        hosts += [(n, mask) for mask in masks]
    for n, mask in hosts:
        sizes = {len(_slack_free_tree_masks(n, mask, r)) for r in range(1, n + 1)}
        if len(sizes) != 1:
            return False, f"root-dependent count on n={n} mask {mask}"
    return True, f"{len(hosts)} graphs, all roots agree"


def _check_fast_equivalence() -> Tuple[bool, str]:
    # every connected host on 2..5 vertices and 40 random ones on 6
    rng = random.Random(SEED + 1)
    hosts = {n: np.flatnonzero(connected_mask_flags(n)).tolist() for n in range(2, 6)}
    masks = np.flatnonzero(connected_mask_flags(6))
    hosts[6] = [int(masks[rng.randrange(len(masks))]) for _ in range(40)]
    checked = 0
    for n, host_masks in hosts.items():
        sign = 1 if (n - 1) % 2 == 0 else -1
        flags, images = mask_tree_table(n)
        grown = [_slack_free_tree_masks(n, mask, 1) for mask in host_masks]
        # one kernel call for the slack masks of all the connected trees grown
        flat = np.array([t for trees in grown for t in trees], dtype=np.int64)
        flat = flat[flags[flat]]
        slack = dict(zip(flat.tolist(), graphs.slack_masks(n, flat).tolist()))
        for mask, value, trees in zip(host_masks, ursell_values(n, host_masks).tolist(), grown):
            # as many distinct trees as |Ursell|, each a spanning tree inside
            # the host (fixed by the tree map) with no slack edge in it: by
            # the scan's intervals, exactly the Penrose trees
            if not trees or len(trees) != sign * value or len(set(trees)) != len(trees):
                return False, (f"tree count != |ursell_values| or a tree grown twice "
                               f"at n={n} mask {mask}")
            for t in trees:
                if t & ~mask or not flags[t] or images[t] != t or slack[t] & mask:
                    return False, f"tree mask {t} is not a Penrose tree of n={n} mask {mask}"
            checked += 1
    return True, f"{checked} graphs agree"


def _check_cayley() -> Tuple[bool, str]:
    for n in range(2, 9):
        # every decoded mask is a spanning tree, and no two are equal
        masks = prufer_tree_masks(n)
        connected, images = mask_tree_images(n, masks)
        trees = np.sort(masks[connected & (images == masks)])
        count = trees.size - int(np.count_nonzero(trees[1:] == trees[:-1]))
        if count != n ** (n - 2):
            return False, f"n={n}: {count} != {n ** (n - 2)}"
    return True, "tree counts match n^(n-2) for n = 2..8"


def _check_map_idempotent() -> Tuple[bool, str]:
    rng = random.Random(SEED + 2)
    checked = 0
    for n in range(2, 9):
        for _ in range(30):
            seq = tuple(rng.randrange(1, n + 1) for _ in range(max(0, n - 2)))
            tree = edge_mask(n, _decode_tree_sequence(n, seq))
            if _mask_tree_image(n, tree, 1) != tree:
                return False, f"map not identity on a tree with n={n}"
            checked += 1
    return True, f"{checked} random trees fixed by the map"


def _check_cbeta_monotone() -> Tuple[bool, str]:
    vals = [c_beta(_WELL, b)[0] for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
    if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
        return False, f"square-well C(beta) not nondecreasing: {vals}"
    rod_vals = [c_beta(_ROD, b)[0] for b in (0.5, 1.0, 2.0)]
    if max(rod_vals) - min(rod_vals) > 1e-12:
        return False, f"hard-rod C(beta) not constant: {rod_vals}"
    return True, "square well nondecreasing in beta; hard core constant"


def _check_f_bond_range() -> Tuple[bool, str]:
    beta = 1.3
    top = math.expm1(beta * _WELL.epsilon)
    rng = random.Random(SEED + 3)
    r = np.array([rng.uniform(0.0, 3.0) for _ in range(400)])
    v = f_bond_array(_WELL, beta, r)
    bad = np.flatnonzero(~((v >= -1.0) & (v <= top + 1e-15)))  # NaN is bad too
    if bad.size:
        return False, f"f({r[bad[0]]}) = {v[bad[0]]} outside [-1, {top}]"
    return True, "sampled bond values inside [-1, e^(beta eps) - 1]"


def _check_refinement() -> Tuple[bool, str]:
    # tabulated potential: the bond integrand is genuinely non-polynomial, so
    # the mesh-doubling error estimate is nonzero and must halve (or better)
    tab = PairPotential(
        "custom_tabulated", 0.5, 1,
        table=((0.0, 2.0), (0.5, 1.0), (1.0, -0.5), (2.0, 0.0)), cutoff=2.0, B=1.0,
    )

    def integrand(r):
        return np.abs(f_bond_array(tab, 1.0, r))

    errs = []
    for depth in (0, 1, 2):
        _, err = integrate_1d(integrand, 0.0, 2.0, breakpoints=tab.breakpoints(),
                              q=4, tol=0.0, max_depth=depth)
        errs.append(err)
    ok = all(e2 <= 0.5 * e1 for e1, e2 in zip(errs, errs[1:]))
    return ok, f"doubling errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}"


def _check_tonks_mayer() -> Tuple[bool, str]:
    worst = 0.0
    for n in range(2, 6):
        val, _ = mayer_bn(_ROD, 1.0, n)
        rel = abs(val - tonks.bn_value(n)) / abs(tonks.bn_value(n))
        worst = max(worst, rel)
    return worst < 1e-6, f"worst relative error {worst:.2e} for n <= 5"


def _check_tonks_virial() -> Tuple[bool, str]:
    worst = 0.0
    for k in range(1, 4):
        val, _ = virial_bk_direct(_ROD, 1.0, k)
        rel = abs(val - tonks.beta_k_value(k)) / abs(tonks.beta_k_value(k))
        worst = max(worst, rel)
    return worst < 1e-6, f"worst relative error {worst:.2e} for k <= 3"


def _check_penrose_bound_chain() -> Tuple[bool, str]:
    # both chains on every coefficient computed here: |b_n| under the Penrose
    # bound, and the C_k transformed from those b_n under ck_bound
    _, a_star = F_of_u(1.0)
    cb_rod, _ = c_beta(_ROD, 1.0)
    rod_b = {1: 1.0}
    for n in range(2, 7):
        rod_b[n], err = mayer_bn(_ROD, 1.0, n)
        if abs(rod_b[n]) > penrose_bn_bound(n, 1.0, 0.0, cb_rod) + 3 * err:
            return False, f"hard-rod b_{n} violates the bound"
    for k in range(1, 6):
        if abs(virial_from_mayer(rod_b, k)) > ck_bound(k, 1.0, 0.0, cb_rod, a_star).ours:
            return False, f"hard-rod C_{k} violates the bound"
    cb_hs, _ = c_beta(_SPHERE, 1.0)
    b2, err2 = mayer_bn(_SPHERE, 1.0, 2)
    if abs(b2) > penrose_bn_bound(2, 1.0, 0.0, cb_hs) + 3 * err2 + 1e-12:
        return False, "hard-sphere b_2 violates the bound"
    b3, err3 = mayer_bn(_SPHERE, 1.0, 3, method="monte_carlo", seed=SEED, samples=400_000)
    if abs(b3) > penrose_bn_bound(3, 1.0, 0.0, cb_hs) + 3 * err3:
        return False, "hard-sphere b_3 violates the bound"
    hs_b = {1: 1.0, 2: b2, 3: b3}
    # C_2 = 3 b_3 - 6 b_2^2 takes 3 sigma of 3 b_3 as slack; C_1 = 2 b_2 takes none
    for k, slack in ((1, 0.0), (2, 3.0 * (3.0 * err3))):
        if abs(virial_from_mayer(hs_b, k)) > ck_bound(k, 1.0, 0.0, cb_hs, a_star).ours + slack:
            return False, f"hard-sphere C_{k} violates the bound"
    return True, "all computed |b_n| and |C_k| within the uniform bounds (+3 sigma)"


def _check_volume_drift() -> Tuple[bool, str]:
    Ls = [25.0, 50.0, 100.0, 200.0]
    xs, ys = [], []
    for L in Ls:
        val, _ = mayer_bn(_ROD, 1.0, 3, volume=L)
        drift = abs(val - tonks.bn_value(3))
        xs.append(math.log(L))
        ys.append(math.log(drift))
    slope = _fit_slope(xs, ys)
    return abs(slope + 1.0) < 0.1, f"log-log drift slope {slope:.3f} (want -1)"


def _check_mc_reproducible() -> Tuple[bool, str]:
    a = mayer_bn(_SPHERE, 1.0, 3, method="monte_carlo", seed=SEED, samples=60_000)
    b = mayer_bn(_SPHERE, 1.0, 3, method="monte_carlo", seed=SEED, samples=60_000)
    c = mayer_bn(_SPHERE, 1.0, 3, method="monte_carlo", seed=SEED + 1, samples=60_000)
    d = mayer_bn(_SPHERE, 1.0, 3, method="monte_carlo", seed=SEED, samples=60_000,
                 workers=4)
    if a != b:
        return False, "same seed produced different results"
    if a != d:
        return False, "worker count changed the result"
    if a == c:
        return False, "different seeds produced identical results"
    return True, "bit-identical for equal (seed, samples, chunk), any worker count"


def _check_mc_vs_quadrature() -> Tuple[bool, str]:
    val, err = mayer_bn(_ROD, 1.0, 3, method="monte_carlo", seed=SEED, samples=400_000)
    pull = abs(val - tonks.bn_value(3)) / err
    return pull < 4.0, f"hard-rod b_3 Monte Carlo pull {pull:.2f} sigma"


def _check_transform_vs_inversion() -> Tuple[bool, str]:
    rng = random.Random(SEED + 4)
    worst = 0.0
    for _ in range(25):
        b = {1: 1.0}
        for n in range(2, 8):
            b[n] = rng.uniform(-1.0, 1.0)
        inv = invert_mayer_oracle(b, 6)
        for k in range(1, 7):
            a = virial_from_mayer(b, k)
            rel = abs(a - inv.values[k]) / max(abs(a), 1e-30)
            worst = max(worst, rel)
    return worst < 1e-10, f"worst relative gap {worst:.2e} over random inputs"


def _check_tonks_exact_transform() -> Tuple[bool, str]:
    b = {n: tonks.bn_exact(n) for n in range(1, 42)}
    for k in range(1, 41):
        if virial_from_mayer(b, k) != tonks.beta_k_exact(k):
            return False, f"hard-rod beta_{k} is not -(k+1)/k"
    return True, "hard-rod beta_k = -(k+1)/k exactly for k <= 40"


def _compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` integers >= 2 summing to ``total``."""
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_combi() -> Tuple[bool, str]:
    checked = 0
    for n in range(2, 11):
        for k in range(1, 13 - n):
            # first entry >= 1, the rest >= 2, summing to n + k - 1
            for t in ((t[0] - 1,) + t[1:] for t in _compositions(n + k, n)):
                lhs, rhs = combi_identity_check(t, n, k)
                if lhs != rhs:
                    return False, f"mismatch at n={n} k={k} t={t}"
                checked += 1
    return checked > 200, f"{checked} tuples with n+k <= 12, both sides equal"


def _check_three_way() -> Tuple[bool, str]:
    b = {n: mayer_bn(_ROD, 1.0, n)[0] for n in range(2, 5)}
    b[1] = 1.0
    inv = invert_mayer_oracle(b, 3)
    worst = worst_abs = 0.0
    for k in range(1, 4):
        direct, _ = virial_bk_direct(_ROD, 1.0, k)
        routes = [virial_from_mayer(b, k), inv.values[k], direct, tonks.beta_k_value(k)]
        spread = max(routes) - min(routes)
        worst = max(worst, spread / abs(tonks.beta_k_value(k)))
        worst_abs = max(worst_abs, spread)
    if worst_abs > 1e-6:
        return False, f"routes spread {worst_abs:.2e} apart"
    return worst < 1e-6, f"three routes + closed form agree to {worst:.2e}"


def _check_tail_honesty() -> Tuple[bool, str]:
    rho = 0.05
    closed = tonks.q_infinite_volume(rho)
    cvals = {k: tonks.beta_k_value(k) for k in range(1, 10)}
    last_tail = None
    for k_max in (4, 6, 8):
        est = free_energy_series(rho, cvals, k_max, 1.0, 0.0, 2.0)
        if not est.certified or abs(est.value - closed) > est.tail_bound:
            return False, f"closed form escapes the tail bound at k_max={k_max}"
        if last_tail is not None and est.tail_bound > last_tail:
            return False, "tail bound grew with more terms"
        last_tail = est.tail_bound
    return True, "closed form stays inside a shrinking tail bound"


# scan plus golden section over a: the oracle for the closed-form optimum

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: below this the golden-section tolerance scales with the bracket's upper end
_GOLDEN_RELATIVE_BELOW = 1e-6


def _grid_max(f: Callable[[float], float], grid: Sequence[float]) -> Tuple[float, float]:
    """Locate the bracketing interval of the single interior maximum on a grid.

    Raises if the sampled values show more than one local maximum: the
    optimizers here assume (and verify) unimodal objectives.
    """
    vals = [f(x) for x in grid]
    peaks = [
        i
        for i in range(1, len(grid) - 1)
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
    ]
    if not peaks:
        peaks = [0] if vals[0] >= vals[1] else [len(grid) - 1]
    # adjacent indices are one flat peak; distinct clusters mean multimodal
    clusters = 1 + sum(1 for a, b in zip(peaks, peaks[1:]) if b - a > 1)
    if clusters != 1:
        raise DomainError(
            f"objective is not unimodal on the scan grid ({clusters} separated peaks)"
        )
    i_lo, i_hi = peaks[0], peaks[-1]
    lo = grid[max(i_lo - 1, 0)]
    hi = grid[min(i_hi + 1, len(grid) - 1)]
    return lo, hi


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> Tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * min(1.0, b / _GOLDEN_RELATIVE_BELOW):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _F_by_optimizer(u: float) -> Tuple[float, float]:
    """Max and argmax of ln(c)/(e^a c), c = 1 + u(1 - e^-a), by scan and golden section.

    The scan is 64 log-spaced points from a = min(1e-6, 1/u), below the
    maximizer a* ~ (e - 1)/u, to a = 20.
    """

    def obj(a: float) -> float:
        c = 1.0 - u * math.expm1(-a)
        return math.log(c) / (math.exp(a) * c)

    log_lo = math.log(min(1e-6, 1.0 / u))
    step = (math.log(20.0) - log_lo) / 63
    lo, hi = _grid_max(obj, [math.exp(log_lo + step * i) for i in range(64)])
    a_star, val = _golden_max(obj, lo, hi)
    return val, a_star


def _check_closed_form_vs_optimizer() -> Tuple[bool, str]:
    # the objective is flat at its peak, so comparing its values places the
    # optimizer's a* only to about sqrt(eps): 2.3e-7 relative at u = 1e12.
    # 1e-6 on a* is that flatness limit; F itself agrees to 1e-14.
    worst_F = worst_a = 0.0
    for u in (1.0, 1.5, 2.0, 5.0, 10.0, 100.0, 1e4, 1e12):
        F, a = F_of_u(u)
        F_opt, a_opt = _F_by_optimizer(u)
        worst_F = max(worst_F, abs(F - F_opt) / F_opt)
        worst_a = max(worst_a, abs(a - a_opt) / a_opt)
    return worst_F < 1e-13 and worst_a < 1e-6, (
        f"closed form vs scan-plus-golden optimizer on the u grid: max relative "
        f"difference {worst_F:.2e} in F (gate 1e-13), {worst_a:.2e} in a* "
        f"(gate 1e-6, the optimizer's flatness limit)")


def _check_monotonicity() -> Tuple[bool, str]:
    us = [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1000.0, 1e4]
    Fs, As = [], []
    for u in us:
        F, a = F_of_u(u)
        Fs.append(F)
        As.append(a)
    if any(b <= a for a, b in zip(Fs, Fs[1:])):
        return False, "F not strictly increasing on the grid"
    if any(b >= a for a, b in zip(As, As[1:])):
        return False, "maximizer not strictly decreasing on the grid"
    return True, "F strictly increasing, maximizer strictly decreasing"


def _check_kstar() -> Tuple[bool, str]:
    msgs = []
    for u in KSTAR_U:
        closed, series = K_star(u)
        F, _ = F_of_u(u)
        if abs(closed * F - 1.0) > 1e-10:
            return False, f"closed form times F differs from 1 at u={u}"
        if abs(closed - series) > 1e-8 * closed:
            return False, f"series check deviates at u={u}"
        msgs.append(f"u={u:g}: {closed:.6f}")
    closed, _ = K_star(1e6)
    if abs(closed - math.e) > 1e-2:
        return False, f"large-u limit {closed} not within 1e-2 of e"
    return True, "; ".join(msgs) + f"; K*(1e6) = {closed:.4f}"


def _check_printed_constants() -> Tuple[bool, str]:
    # the report `clusterkit radii` prints, at u = e^(2 beta B) = 1
    rep = radius_report(1.0, 0.0, 1.0, k_orders=())
    if abs(rep.F - 0.1448) > 5e-4:
        return False, f"F(1) = {rep.F} not within 5e-4 of 0.1448"
    F6, _ = F_of_u(1e6)
    if abs(F6 - 1.0 / math.e) > 1e-2:
        return False, f"F(1e6) = {F6} not within 1e-2 of 1/e"
    ref = rep.base_constant_reference
    if rep.a_reference != 0.426 or abs(ref - 0.24026) > 1e-5:
        return False, f"reference base arithmetic gives {ref}"
    if 1.0 / LP_BOUND_DENOMINATOR != 1.0 / 0.28952:
        return False, "comparison-bound constant drifted"
    flagged = rep.a_discrepancy_flagged
    return flagged, (
        f"F(1)={rep.F:.6f}, a*={rep.a_star:.6f} vs quoted {rep.a_reference} "
        f"(discrepancy flagged: {flagged}), 1/e^(1+0.426)={ref:.5f}"
    )


def _check_ck_bound_dominates() -> Tuple[bool, str]:
    cb, _ = c_beta(_ROD, 1.0)
    _, a_star = F_of_u(1.0)
    for k in range(1, 6):
        ck = abs(tonks.beta_k_value(k))
        bound = ck_bound(k, 1.0, 0.0, cb, a_star).ours
        if ck > bound:
            return False, f"|C_{k}| = {ck} exceeds bound {bound}"
    return True, "hard-rod |C_k| below the uniform bound for k <= 5"


def _check_xi_agreement() -> Tuple[bool, str]:
    rng = random.Random(SEED + 5)
    trials = 0
    for _ in range(100):
        N = rng.randint(2, 7)
        prof = _random_profile(rng, N)
        if xi_exact(N, prof, "recursion") != xi_exact(N, prof, "bruteforce"):
            return False, f"recursion != brute force at N={N}"
        trials += 1
    return True, f"{trials} random profiles agree exactly (rational arithmetic)"


def _check_truncation_geometric() -> Tuple[bool, str]:
    # the honesty claim is conditional on the summability criterion holding
    prof = ActivityProfile(5, {2: 0.01, 3: -0.006, 4: 0.004, 5: 0.002})
    _, a_star = F_of_u(1.0)
    gate = fp_check(prof, a_star)
    if not gate.holds:
        return False, "test profile unexpectedly fails the summability criterion"
    logxi = math.log(float(xi_exact(5, prof)))
    terms = log_xi_ursell(5, prof, 3)
    resid = []
    acc = 0.0
    for n in (1, 2, 3):
        acc += float(terms[n])
        resid.append(abs(logxi - acc))
    ok = resid[1] <= 0.5 * resid[0] and resid[2] <= 0.5 * resid[1]
    return ok, (
        f"criterion holds (lhs {gate.lhs:.3f} <= rhs {gate.rhs:.3f}); "
        f"residuals {resid[0]:.2e} -> {resid[1]:.2e} -> {resid[2]:.2e}"
    )


def _check_p_symmetry() -> Tuple[bool, str]:
    import itertools as it
    checked = 0
    for N in (6, 8):
        for s in ((2, 3), (2, 2, 3), (2, 2, 4), (2, 3, 3)):
            vals = {p_exact(N, perm) for perm in set(it.permutations(s))}
            if len(vals) != 1:
                return False, f"P not symmetric for s={s}, N={N}"
            checked += 1
    return True, f"{checked} (N, multiset) cases permutation-invariant"


def _check_p_limit() -> Tuple[bool, str]:
    for s in ((2, 2), (2, 3)):
        lim = float(p_limit(s))
        xs, ys = [], []
        for N in (6, 7, 8, 9, 10):
            resid = abs(float(p_exact(N, s)) - lim)
            xs.append(math.log(N))
            ys.append(math.log(resid))
        slope = _fit_slope(xs, ys)
        if abs(slope + 1.0) > 0.25:
            return False, f"s={s}: residual slope {slope:.3f} (want -1)"
    return True, "finite-N factors approach the limit with 1/N residuals"


def _check_ck_finite() -> Tuple[bool, str]:
    b = {n: tonks.bn_exact(n) for n in range(2, 5)}
    for k in (1, 2, 3):
        for N in (*range(1, 13), 10**9):
            if ck_finite_N(N, b, k) != tonks.beta_k_exact(k) * (1 - Fraction(1, N)):
                return False, f"k={k} coefficient differs from beta_k (1 - 1/N) at N={N}"
    xs, ys = [], []
    for N in range(6, 11):
        resid = abs(float(ck_finite_N(N, b, 2)) + 1.5)
        xs.append(math.log(1.0 / N))
        ys.append(math.log(resid))
    slope = _fit_slope(xs, ys)
    return abs(slope - 1.0) < 0.15, f"k<=3 exact; k=2 residual slope in 1/N: {slope:.3f}"


def _check_ck_finite_limit() -> Tuple[bool, str]:
    # C_k(N) is a polynomial of degree <= k in 1/N: its values at N = 1..k+1
    # fix it, and Lagrange's weights at 1/N = 0 are prod_(M != N) N/(N - M)
    rng = random.Random(SEED + 6)
    for k in range(1, 9):
        b = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for n in range(2, k + 2)}
        Ns = range(1, k + 2)
        limit = sum(ck_finite_N(N, b, k) * math.prod(Fraction(N, N - M) for M in Ns if M != N)
                    for N in Ns)
        if limit != virial_from_mayer(b, k):
            return False, f"k={k}: C_k(N) at N = 1..{k + 1} extrapolates to {limit}, not beta_k"
    return True, "C_k(N) at N = 1..k+1 extrapolates to beta_k at 1/N = 0 exactly (k <= 8)"


def _check_ztilde_closed_vs_quadrature() -> Tuple[bool, str]:
    worst = 0.0
    for N, L in ((2, 10.0), (3, 10.0), (4, 8.0)):
        closed = tonks.ztilde_closed(N, L)
        quad = ztilde_direct(_ROD, 1.0, L, N, "quadrature").ztilde
        worst = max(worst, abs(closed - quad) / closed)
    return worst < 1e-6, f"worst relative gap {worst:.2e} for N <= 4"


def _check_ztilde_mc() -> Tuple[bool, str]:
    worst = 0.0
    for N in (6, 10):
        res = ztilde_direct(_ROD, 1.0, 20.0, N, "monte_carlo", seed=SEED, samples=200_000)
        pull = abs(res.ztilde - tonks.ztilde_closed(N, 20.0)) / res.error
        worst = max(worst, pull)
    return worst < 3.0, f"worst Monte Carlo pull {worst:.2f} sigma (N = 6, 10)"


def _check_q_convergence() -> Tuple[bool, str]:
    rho = 0.05
    target = tonks.q_infinite_volume(rho)
    resid = []
    for N in (50, 100, 200, 400):
        res = ztilde_direct(_ROD, 1.0, N / rho, N, "tonks_closed")
        resid.append(abs(q_lambda(res) - target))
    ok = all(b < a for a, b in zip(resid, resid[1:]))
    return ok, f"|Q(N) - Q| decreasing: {['%.2e' % r for r in resid]}"


def _check_series_vs_direct() -> Tuple[bool, str]:
    rho = 0.05
    xs, ys = [], []
    for N in (50, 100, 200, 400):
        rep = compare_series_direct(_ROD, 1.0, N / rho, N, 8)
        if not rep.passed:
            return False, f"comparison failed its budget at N={N}"
        xs.append(math.log(N))
        ys.append(math.log(rep.gap))
    slope = _fit_slope(xs, ys)
    return abs(slope + 1.0) < 0.1, f"all budgets pass; gap slope {slope:.3f} (want -1)"


def _check_cli_determinism() -> Tuple[bool, str]:
    from .cli import run_for_test

    argv = [
        "mayer", "--potential", "hard_sphere", "--sigma", "1", "--dimension", "3",
        "--beta", "1", "--n", "3", "--method", "monte_carlo",
        "--seed", str(SEED), "--samples", "40000",
    ]
    out1 = _strip_timestamp(run_for_test(argv))
    out2 = _strip_timestamp(run_for_test(argv))
    return out1 == out2, "byte-identical output modulo the timestamp field"


def _strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


CHECKS: Tuple[Tuple[str, str, Callable[[], Tuple[bool, str]]], ...] = (
    ("graphs.penrose_identity", "penrose", _check_penrose_identity),
    ("graphs.root_independence", "penrose", _check_root_independence),
    ("graphs.fast_equivalence", "penrose", _check_fast_equivalence),
    ("graphs.cayley_counts", "graphs", _check_cayley),
    ("graphs.map_idempotent_on_trees", "graphs", _check_map_idempotent),
    ("potentials.cbeta_monotone", "potentials", _check_cbeta_monotone),
    ("potentials.f_bond_range", "potentials", _check_f_bond_range),
    ("potentials.quadrature_refinement", "potentials", _check_refinement),
    ("cluster.tonks_mayer", "tonks", _check_tonks_mayer),
    ("cluster.tonks_virial_direct", "tonks", _check_tonks_virial),
    ("cluster.penrose_bound_chain", "tonks", _check_penrose_bound_chain),
    ("cluster.finite_volume_drift", "cluster", _check_volume_drift),
    ("cluster.mc_reproducible", "cluster", _check_mc_reproducible),
    ("cluster.mc_vs_quadrature", "cluster", _check_mc_vs_quadrature),
    ("series.transform_vs_inversion", "series", _check_transform_vs_inversion),
    ("series.tonks_exact_transform", "series", _check_tonks_exact_transform),
    ("series.combi_identity_exhaustive", "series", _check_combi),
    ("series.tonks_three_way", "series", _check_three_way),
    ("series.tail_honesty", "series", _check_tail_honesty),
    ("radii.closed_form_vs_optimizer", "radii", _check_closed_form_vs_optimizer),
    ("radii.monotonicity", "radii", _check_monotonicity),
    ("radii.kstar_closed_vs_series", "radii", _check_kstar),
    ("radii.printed_constants", "radii", _check_printed_constants),
    ("radii.ck_bound_dominates", "radii", _check_ck_bound_dominates),
    ("polymer.xi_recursion_vs_bruteforce", "polymer", _check_xi_agreement),
    ("polymer.truncation_geometric", "polymer", _check_truncation_geometric),
    ("polymer.p_symmetry", "polymer", _check_p_symmetry),
    ("polymer.p_limit_convergence", "polymer", _check_p_limit),
    ("polymer.ck_finite_convergence", "polymer", _check_ck_finite),
    ("polymer.ck_finite_limit", "polymer", _check_ck_finite_limit),
    ("canonical.closed_vs_quadrature", "canonical", _check_ztilde_closed_vs_quadrature),
    ("canonical.mc_within_3se", "canonical", _check_ztilde_mc),
    ("canonical.q_convergence", "canonical", _check_q_convergence),
    ("canonical.series_vs_direct", "canonical", _check_series_vs_direct),
    ("cli.determinism", "cli", _check_cli_determinism),
)

SUITES = tuple(sorted({suite for _, suite, _ in CHECKS} | {"all"}))


def run_checks(suite: str) -> List[CheckResult]:
    """Run one suite (or all), print one PASS/FAIL line per check, return the results."""
    if suite not in SUITES:
        raise ClusterKitError(f"unknown suite {suite!r}; want one of {SUITES}")
    results = []
    for name, s, fn in CHECKS:
        if suite != "all" and s != suite:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, s, passed, detail))
        print(f"{'PASS' if passed else 'FAIL'} {name} - {detail}")
    return results
