"""Numerical cluster integrals.

``mayer_bn`` evaluates the order-n fugacity-series coefficient

    b_n = (1/V) (1/n!) integral over n box points of
          sum over connected graphs g on [n] of prod_{(i,j) in g} f(x_i - x_j)

with f the bond function of the potential.  Infinite volume pins x_1 = 0 by
translation invariance; a finite box integrates all n points and divides by
the volume.  ``virial_bk_direct`` does the same over two-connected graphs on
[k+1] vertices, giving the order-k density-series coefficient directly.  The
canonical ztilde is the same integral over all graphs, whose sum is the
product of (1 + f) over the pairs.

The three graph classes of graphs.GRAPH_CLASSES share one selector,
``_graph_class_sum``, and two drivers.  Quadrature (d = 1),
``_gap_integral``, reduces the integral to the n-1 ordered gaps: the graph
sum is permutation symmetric, so the integral is n! times the ordered-sector
integral.  For a piecewise constant bond it passes the breakpoints to
gap_quadrature as level cuts, which runs the graph sum once per distinct row
of bond levels among the last gap's panels.  Each caller scales
gap_quadrature's refined and base sums and reports their difference as the
error.  Monte Carlo (any d, default d = 3), ``_monte_carlo``, draws chunk c
from a Philox substream keyed by (seed, c), so results are bit-reproducible
for a given (seed, samples, chunk size) at any worker count.  b_n and beta_k
stratify the free points by radius in the ball of radius (n-1) * range
around the pinned particle; in a box, b_n and ztilde draw the same uniform
points.  Points are coordinate-major (d, m) arrays, and ``_pair_distances``
turns two of them into m distances, squaring and rooting in place.  For a
piecewise constant bond ``_mc_graph_sum`` packs each sample's bond levels
into its row of levels and reads the graph sum from ``_graph_sum_table``,
one entry per row, built from the potential's level values; other bonds
evaluate the bond function and the graph sum per sample.  Both give the same
bits.  ztilde (``canonical``) needs only two counters per sample, its core
flag and its well count, in place of a row of levels.  A mean or standard
error that is not finite raises DomainError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import CapacityError, ConfigError, DomainError
from .graphs import enum_graphs, vertex_pairs
from .potentials import PairPotential, bond_level_values, f_bond_array
from .quadrature import (
    _append_levels,
    bond_levels,
    difference_closure,
    gap_quadrature,
    integrate_1d,
    pair_window_matrix,
    sphere_surface,
)

QUADRATURE_MAX_N = 6
MONTE_CARLO_MAX_N = 5
VIRIAL_QUADRATURE_MAX_K = 3
VIRIAL_MC_MAX_K = 2


# ---------------------------------------------------------------------------
# graph-sum evaluators over pair-separation arrays
# ---------------------------------------------------------------------------

def connected_weight_sum(fvals: np.ndarray, n: int) -> np.ndarray:
    """Sum over connected spanning graphs on [n] of the bond-value products.

    ``fvals`` has one column per vertex pair in graphs.vertex_pairs(n) order.
    Uses the subset identity: the full product over pairs inside S equals the
    sum over partitions of S of connected parts, so the connected part is
    extracted by peeling the component of the smallest element.
    """
    P = fvals.shape[0]
    pairs = vertex_pairs(n)
    col = {e: k for k, e in enumerate(pairs)}
    full = (1 << n) - 1
    ones = np.ones(P)

    # boltz[S] = product of (1 + f_ij) over pairs inside S
    boltz = {0: ones}
    for s in range(1, full + 1):
        top = s.bit_length()  # highest vertex in S (1-based)
        rest = s & ~(1 << (top - 1))
        acc = boltz[rest]
        r = rest
        while r:
            low = r & -r
            v = low.bit_length()
            r ^= low
            acc = acc * (1.0 + fvals[:, col[(v, top)]])
        boltz[s] = acc

    conn = {}
    for s in range(1, full + 1):
        if s & (s - 1) == 0:
            conn[s] = ones
            continue
        low = s & -s
        total = boltz[s].copy()
        # subtract splits: T is the component of the lowest vertex, T proper
        t = (s - 1) & s
        while True:
            if t & low and t != s:
                total = total - conn[t] * boltz[s ^ t]
            if t == 0:
                break
            t = (t - 1) & s
        conn[s] = total
    return conn[full]


@lru_cache(maxsize=None)
def _two_connected_columns_cached(n: int):
    """Edge columns of each two-connected graph on [n] (the single edge at n = 2)."""
    col = {e: k for k, e in enumerate(vertex_pairs(n))}
    if n == 2:
        return [[col[(1, 2)]]]
    return [[col[e] for e in sorted(g.edges)] for g in enum_graphs(n, "two_connected")]


def graph_list_weight_sum(fvals: np.ndarray, edge_columns) -> np.ndarray:
    """Sum over an explicit graph list of bond-value products."""
    total = np.zeros(fvals.shape[0])
    for cols in edge_columns:
        prod = fvals[:, cols[0]].copy()
        for c in cols[1:]:
            prod *= fvals[:, c]
        total += prod
    return total


def _graph_class_sum(n: int, graph_class: str):
    """The sum over the graphs of a class on [n], as a function of the bond
    values (P, pairs) -> (P,).

    ``connected`` peels components by the subset identity, ``two_connected``
    runs the explicit graph list, and ``all`` is the row-wise product of
    (1 + f).  Each works row by row.
    """
    if graph_class == "connected":
        return lambda fvals: connected_weight_sum(fvals, n)
    if graph_class == "two_connected":
        cols = _two_connected_columns_cached(n)
        return lambda fvals: graph_list_weight_sum(fvals, cols)
    if graph_class == "all":
        return lambda fvals: np.prod(1.0 + fvals, axis=1)
    raise ValueError(f"unknown graph class {graph_class!r}")


def _gap_weight_fn(p: PairPotential, beta: float, n: int, graph_class: str):
    """Integrand over gap vectors: the graph-class sum of the bond values of
    the pair windows."""
    graph_sum = _graph_class_sum(n, graph_class)
    return lambda points: graph_sum(f_bond_array(p, beta, pair_window_matrix(points)))


# ---------------------------------------------------------------------------
# quadrature paths
# ---------------------------------------------------------------------------

def _radial_pair_integral(p: PairPotential, beta: float) -> Tuple[float, float]:
    """integral of f over R^d via the radial reduction."""
    d = p.dimension

    def integrand(r):
        return f_bond_array(p, beta, r) * r ** (d - 1)

    val, err = integrate_1d(integrand, 0.0, p.range_radius, breakpoints=p.breakpoints())
    s = sphere_surface(d)
    return s * val, s * err


def _gap_integral(
    p: PairPotential, beta: float, n: int, graph_class: str, box: Optional[float]
) -> Tuple[float, float]:
    """Ordered-sector integral of the graph-class sum on [n] over its n-1 gaps.

    Connected and two-connected sums vanish once a gap exceeds the range, so
    their gaps stop there; the sum over all graphs is confined by the box
    alone.  Returns gap_quadrature's refined and base sums, unscaled.
    """
    support = None if graph_class == "all" else p.range_radius
    radii = difference_closure(p.breakpoints(), support)
    weight = _gap_weight_fn(p, beta, n, graph_class)
    if box is not None and not box > 0:
        raise DomainError("box side must be positive")
    level_cuts = p.breakpoints() if p.piecewise_constant_bond else None
    return gap_quadrature(weight, n - 1, radii, support, box, level_cuts)


# ---------------------------------------------------------------------------
# Monte Carlo path
# ---------------------------------------------------------------------------

def _stratified_ball(rng: np.random.Generator, m: int, d: int, radius: float) -> np.ndarray:
    """m points roughly uniform in the d-ball, radius-stratified per point.

    Returns a (d, m) array: coordinate-major, so a norm over the d
    coordinates is d elementwise passes.  The generator calls and their
    shapes are those of the (m, d) layout, so the stream is unchanged.
    """
    if d == 1:
        dirs = rng.choice([-1.0, 1.0], size=(m, 1)).T
    else:
        dirs = np.ascontiguousarray(rng.standard_normal((m, d)).T)
        dirs /= np.linalg.norm(dirs, axis=0)
    strata = rng.permutation(m)
    u = (strata + rng.random(m)) / m
    r = radius * u ** (1.0 / d)
    return dirs * r


def _box_points(rng: np.random.Generator, n: int, d: int, side: float, size: int) -> list:
    """n (d, size) arrays of points, each uniform in the box [0, side]^d."""
    return [np.ascontiguousarray(rng.random((size, d)).T) * side for _ in range(n)]


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the columns of two (d, m) point arrays.

    For d < 8 these are the bits of a norm over the rows of the (m, d)
    layout: NumPy adds up to seven squares in order either way (from eight
    on, the row norm adds them pairwise).  For d = 1 the distance is |x|,
    which is sqrt(x * x) exactly unless x * x underflows.
    """
    if a.shape[0] == 1:
        return np.abs(a[0] - b[0])
    # np.linalg.norm(a - b, axis=0), its squares and root taken in place
    squares = a - b
    squares *= squares
    out = np.add.reduce(squares, axis=0)
    return np.sqrt(out, out=out)


def _graph_sum_table(p: PairPotential, beta: float, graph_sum, npairs: int,
                     block: int) -> np.ndarray:
    """The graph sum of every row of bond levels, indexed by the row.

    A piecewise constant bond takes one value per level, so a sample's graph
    sum is the entry at its row of levels, packed by ``_append_levels`` with
    the first pair the most significant digit.  Every class sum works row by
    row, so the entries are the bits the sum gives sample by sample.  Rows
    are evaluated ``block`` at a time.
    """
    values = bond_level_values(p, beta)
    shape = (values.size,) * npairs
    table = np.empty(math.prod(shape))
    for start in range(0, table.size, block):
        rows = np.arange(start, min(start + block, table.size))
        table[rows] = graph_sum(values[np.stack(np.unravel_index(rows, shape), axis=1)])
    return table


def _check_monte_carlo(seed: Optional[int], samples: int, chunk: int) -> None:
    """Reject a missing seed and sample sizes below one, before any set-up."""
    if seed is None:
        raise ConfigError("Monte Carlo needs an explicit seed")
    for key, value in (("samples", samples), ("chunk", chunk)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ConfigError(f"Monte Carlo {key} must be an integer >= 1, got {value!r}")


def _monte_carlo(chunk_mean, n: int, seed: int, samples: int, chunk: int,
                 workers: Optional[int]) -> Tuple[float, float]:
    """Mean and standard error of the chunk means chunk_mean(rng).

    Chunk c draws from its own Philox stream keyed by (seed, c), optionally
    on a thread pool.  The means are collected in chunk order, so the
    reduction is deterministic and independent of the worker count.  Raises
    DomainError when fewer than two chunk means are nonzero, or when the
    mean or its standard error is not finite (n, the number of points, only
    labels the message).  Callers pass their inputs through
    ``_check_monte_carlo`` before any set-up.
    """
    nchunks = max(2, math.ceil(samples / chunk))

    def one_chunk(c: int) -> float:
        return chunk_mean(np.random.Generator(
            np.random.Philox(key=[np.uint64(seed), np.uint64(c)])))

    if workers is None or workers <= 1:
        means = np.asarray([one_chunk(c) for c in range(nchunks)])
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            means = np.asarray(list(pool.map(one_chunk, range(nchunks))))
    # with fewer than two nonzero chunk means the value rests on at most one
    # chunk and the spread between chunks says nothing about its error
    nonzero = int(np.count_nonzero(means))
    if nonzero < 2:
        raise DomainError(
            f"only {nonzero} of {means.size} Monte Carlo chunk means are nonzero at "
            f"n={n}: too few samples hit a contributing configuration; raise "
            f"samples (now {samples})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value, error = means.mean(), means.std(ddof=1) / math.sqrt(means.size)
    if not (math.isfinite(value) and math.isfinite(error)):
        raise DomainError(
            f"the Monte Carlo mean or its standard error is not finite at n={n}: "
            f"a sampled weight overflows the float range"
        )
    return float(value), float(error)


def _mc_graph_sum(
    p: PairPotential,
    beta: float,
    n: int,
    graph_class: str,
    seed: Optional[int],
    samples: int,
    chunk: int,
    box: Optional[float] = None,
    workers: Optional[int] = None,
) -> Tuple[float, float]:
    _check_monte_carlo(seed, samples, chunk)
    d = p.dimension
    pairs = vertex_pairs(n)
    graph_sum = _graph_class_sum(n, graph_class)
    radius = (n - 1) * p.range_radius
    ball_vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius ** d
    if p.piecewise_constant_bond:
        cuts = p.breakpoints()
        table = _graph_sum_table(p, beta, graph_sum, len(pairs), chunk)
        start = np.zeros(chunk, dtype=np.int64)

        def weights(seps):
            rows, _ = _append_levels(start, 1, bond_levels(seps, cuts), len(cuts) + 1)
            return table[rows]
    else:
        def weights(seps):
            return graph_sum(f_bond_array(p, beta, seps.T))

    def chunk_mean(rng: np.random.Generator) -> float:
        if box is None:
            pts = [np.zeros((d, chunk))] + [_stratified_ball(rng, chunk, d, radius)
                                            for _ in range(n - 1)]
            measure = ball_vol ** (n - 1)
        else:
            pts = _box_points(rng, n, d, box, chunk)
            measure = float(box) ** (d * n)
        # pair-major, so each pair's distances and each row digit are contiguous
        seps = np.empty((len(pairs), chunk))
        for idx, (i, j) in enumerate(pairs):
            seps[idx] = _pair_distances(pts[i - 1], pts[j - 1])
        return float(weights(seps).mean()) * measure

    return _monte_carlo(chunk_mean, n, seed, samples, chunk, workers)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def mayer_bn(
    p: PairPotential,
    beta: float,
    n: int,
    volume: Optional[float] = None,
    method: str = "quadrature",
    *,
    seed: Optional[int] = None,
    samples: int = 400_000,
    chunk: int = 20_000,
    workers: Optional[int] = None,
) -> Tuple[float, float]:
    """Order-n fugacity-series coefficient with an error estimate.

    ``volume=None`` is the infinite-volume coefficient (x_1 pinned at the
    origin); a float is the side of a finite box, integrated verbatim and
    divided by the volume.  Monte Carlo raises DomainError when fewer than
    two of its chunk means are nonzero, or when its estimate is not finite.
    """
    if not beta > 0:
        raise DomainError("beta must be positive")
    if n == 1:
        return 1.0, 0.0
    if n < 1:
        raise DomainError("order must be >= 1")
    if method == "quadrature":
        if n == 2 and (volume is None or p.dimension > 1):
            if volume is not None:
                raise CapacityError("finite-volume quadrature is one-dimensional only")
            val, err = _radial_pair_integral(p, beta)
            return 0.5 * val, 0.5 * err
        if p.dimension != 1:
            raise CapacityError("n >= 3 quadrature is one-dimensional; use monte_carlo")
        if n > QUADRATURE_MAX_N:
            raise CapacityError(f"quadrature capped at n={QUADRATURE_MAX_N}, got {n}")
        fine, coarse = _gap_integral(p, beta, n, "connected", volume)
        if volume is not None:
            fine /= volume
            coarse /= volume
        return fine, abs(fine - coarse)
    if method == "monte_carlo":
        if n > MONTE_CARLO_MAX_N:
            raise CapacityError(f"Monte Carlo capped at n={MONTE_CARLO_MAX_N}, got {n}")
        val, err = _mc_graph_sum(
            p, beta, n, "connected", seed, samples, chunk, box=volume,
            workers=workers,
        )
        scale = 1.0 / math.factorial(n)
        if volume is not None:
            scale /= float(volume) ** p.dimension
        return val * scale, err * scale
    raise ConfigError(f"unknown method {method!r}")


def virial_bk_direct(
    p: PairPotential,
    beta: float,
    k: int,
    method: str = "quadrature",
    *,
    seed: Optional[int] = None,
    samples: int = 400_000,
    chunk: int = 20_000,
    workers: Optional[int] = None,
) -> Tuple[float, float]:
    """Order-k density-series coefficient from the two-connected graph sum.

    k = 1 is the plain pair integral (the single edge on two vertices).
    """
    if not beta > 0:
        raise DomainError("beta must be positive")
    if k < 1:
        raise DomainError("order must be >= 1")
    if k == 1:
        return _radial_pair_integral(p, beta)
    if method == "quadrature":
        if p.dimension != 1:
            raise CapacityError("k >= 2 quadrature is one-dimensional; use monte_carlo")
        if k > VIRIAL_QUADRATURE_MAX_K:
            raise CapacityError(f"quadrature capped at k={VIRIAL_QUADRATURE_MAX_K}")
        fine, coarse = _gap_integral(p, beta, k + 1, "two_connected", None)
        fine, coarse = (k + 1) * fine, (k + 1) * coarse
        return fine, abs(fine - coarse)
    if method == "monte_carlo":
        if k > VIRIAL_MC_MAX_K:
            raise CapacityError(f"Monte Carlo capped at k={VIRIAL_MC_MAX_K}")
        val, err = _mc_graph_sum(p, beta, k + 1, "two_connected", seed, samples,
                                 chunk, workers=workers)
        scale = 1.0 / math.factorial(k)
        return val * scale, err * scale
    raise ConfigError(f"unknown method {method!r}")


def penrose_bn_bound(n: int, beta: float, B: float, cbeta: float) -> float:
    """Upper bound e^(2 beta B (n-2)) n^(n-2) C^( n-1) / n! on |b_n|."""
    if n < 2:
        raise DomainError("bound defined for n >= 2")
    if not (B >= 0 and cbeta > 0):
        raise DomainError("need B >= 0 and C(beta) > 0")
    comb = Fraction(n ** (n - 2), math.factorial(n))
    try:
        # at n = 2 the exponent is 0 even where 2 beta B overflows
        exponent = 2.0 * beta * B * (n - 2) if n > 2 else 0.0
        bound = math.exp(exponent) * float(comb) * cbeta ** (n - 1)
    except OverflowError:
        bound = math.inf
    if math.isinf(bound):
        raise DomainError(
            f"the b_{n} bound overflows at beta*B = {beta * B:g}, C(beta) = {cbeta:g}")
    return bound
