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
error.  Monte Carlo (any d, default d = 3) has one chunk loop,
``_mc_graph_sum``, for b_n, beta_k and ztilde; ``_monte_carlo`` draws
chunk c from a Philox substream keyed by (seed, c), so results are
bit-reproducible for a given (seed, samples, chunk size) at any worker
count.  Free b_n and beta_k stratify the free points by radius in the ball
of radius (n-1) * range around the pinned particle, and a chunk returns its
mean times the ball measure.  In a box all n points are uniform and a chunk
returns the plain mean of its class sums: ztilde itself, and V^(-n) times
the box integral of b_n.  A chunk allocates no (m,) array for its draws
or distances: each worker thread draws every chunk it runs into one
``_Workspace`` with ``out=``, in the generator calls and arithmetic of the
allocating draws, so the bits are theirs.  Points are coordinate-major
(d, m) arrays, and ``_pair_distances`` writes the m distances of two of
them into one buffer, which the chunk streams pair by pair to
``_mc_weights``.
For a piecewise constant bond the connected and two-connected sums pack
each sample's bond levels into a row id and run the graph sum once per
distinct row of the chunk, ranked by ``distinct_ids`` as in quadrature;
other bonds take it sample by sample.  Both give the same bits, and 0 on a
disconnected bond graph.  The sum over all graphs needs only two counters
per sample, its core flag and its well count, in place of a row of levels.
A mean or standard error that is not finite raises DomainError.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import CapacityError, ConfigError, DomainError
from .graphs import connected_mask_flags, connected_weight_sum, enum_graphs, vertex_pairs
from .potentials import PairPotential, bond_level_values, f_bond_array
from .quadrature import (
    _append_levels,
    bond_levels,
    difference_closure,
    distinct_ids,
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

@lru_cache(maxsize=None)
def _two_connected_columns_cached(n: int):
    """Edge columns of each two-connected graph on [n] (the single edge at n = 2),
    in increasing order: the set bits of its edge mask."""
    masks = [1] if n == 2 else list(enum_graphs(n, "two_connected"))
    return [[k for k in range(n * (n - 1) // 2) if mask >> k & 1] for mask in masks]


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

    ``connected`` peels components by the subset identity
    (``graphs.connected_weight_sum``, which also gives the Ursell values),
    ``two_connected`` runs the explicit graph list, and ``all`` is the
    row-wise product of (1 + f).  Each works row by row.
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
    level_cuts = p.breakpoints() if p.piecewise_constant_bond else None
    return gap_quadrature(weight, n - 1, radii, support, box, level_cuts)


# ---------------------------------------------------------------------------
# Monte Carlo path
# ---------------------------------------------------------------------------

class _Workspace:
    """The buffers of one thread's Monte Carlo chunks of n points in d
    dimensions, m samples each, reused by every chunk the thread runs.

    ``points`` holds the n points as coordinate-major (d, m) arrays, so a
    norm over the d coordinates is d elementwise passes; the pinned point of
    a ball chunk stays at its zeros.  ``draws`` takes one point's (m, d)
    draw, ``dists`` a norm or a pair's distances, and ``strata`` a copy of
    ``order`` to shuffle.  Two names share memory, which keeps the peak at
    that of the allocating draws: ``squares``, the (d, m) squares of a
    norm, is ``draws`` once its draw is copied out, and ``u``, the
    stratified radii, is ``dists`` once the norm is divided out.
    """

    def __init__(self, n: int, d: int, m: int):
        self.points = np.zeros((n, d, m))
        self.draws = np.empty((m, d))
        self.squares = self.draws.reshape(d, m)
        self.dists = self.u = np.empty(m)
        self.order = np.arange(m)
        self.strata = np.empty(m, dtype=np.int64)


_SIGNS = np.array([-1.0, 1.0])


def _stratified_ball(rng: np.random.Generator, ws: _Workspace, i: int, radius: float) -> None:
    """Draw point i of the m samples into ``ws.points[i]``: roughly uniform
    in the d-ball, radius-stratified per point.

    The generator calls and their order are those of the allocating draw
    ``choice([-1.0, 1.0], (m, 1))`` or ``standard_normal((m, d))``, then
    ``permutation(m)`` and ``random(m)``, in the (m, d) layout, so the
    stream is unchanged; the arithmetic is that of
    ``dirs / norm(dirs) * (radius * ((strata + random) / m) ** (1 / d))``
    taken in place, so are the bits.
    """
    pts, (d, m) = ws.points[i], ws.points.shape[1:]
    if d == 1:
        np.take(_SIGNS, rng.integers(0, 2, size=m), out=pts[0])
    else:
        rng.standard_normal(out=ws.draws)
        np.copyto(pts, ws.draws.T)
        # np.linalg.norm(pts, axis=0), as sqrt(add.reduce(pts * pts))
        np.multiply(pts, pts, out=ws.squares)
        np.sqrt(np.add.reduce(ws.squares, axis=0, out=ws.dists), out=ws.dists)
        pts /= ws.dists
    np.copyto(ws.strata, ws.order)
    rng.shuffle(ws.strata)
    u = rng.random(out=ws.u)
    u += ws.strata
    u /= m
    u **= 1.0 / d
    u *= radius
    pts *= u


def _box_points(rng: np.random.Generator, ws: _Workspace, side: float) -> None:
    """Draw all n points of the m samples into ``ws.points``, each uniform
    in the box [0, side]^d: point by point ``random((m, d))`` in the (m, d)
    layout, the n draws of d = 1 in one call, times the side."""
    pts = ws.points
    n, d, m = pts.shape
    if d == 1:
        rng.random(out=pts.reshape(n, m))
    else:
        for point in pts:
            rng.random(out=ws.draws)
            np.copyto(point, ws.draws.T)
    pts *= side


def _pair_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                    squares: np.ndarray) -> np.ndarray:
    """Euclidean distances between the columns of two (d, m) point arrays,
    written into ``out`` (m,), with ``squares`` (d, m) as scratch.

    For d < 8 these are the bits of a norm over the rows of the (m, d)
    layout: NumPy adds up to seven squares in order either way (from eight
    on, the row norm adds them pairwise).  For d = 1 the distance is |x|,
    which is sqrt(x * x) exactly unless x * x underflows.
    """
    if a.shape[0] == 1:
        return np.abs(np.subtract(a[0], b[0], out=out), out=out)
    # np.linalg.norm(a - b, axis=0), its squares and root taken in place
    np.subtract(a, b, out=squares)
    squares *= squares
    return np.sqrt(np.add.reduce(squares, axis=0, out=out), out=out)


def _check_monte_carlo(seed: Optional[int], samples: int, chunk: int,
                       workers: Optional[int]) -> None:
    """Reject a missing seed, and sample sizes or a worker count below one,
    before any set-up."""
    if seed is None:
        raise ConfigError("Monte Carlo needs an explicit seed")
    counts = [("samples", samples), ("chunk", chunk)]
    if workers is not None:
        counts.append(("workers", workers))
    for key, value in counts:
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
        # a weight or mean that overflows is refused below as not finite
        with np.errstate(over="ignore", invalid="ignore"):
            return chunk_mean(np.random.Generator(
                np.random.Philox(key=[np.uint64(seed), np.uint64(c)])))

    if workers is None or workers == 1:
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


def _mc_weights(p: PairPotential, beta: float, n: int, graph_class: str):
    """The graph-class sums of m samples, as a function of their distances
    ``dists`` (an iterable of (m,) arrays in vertex_pairs(n) order, each
    read before the next is drawn, since they may share one buffer) and m.

    ``all`` is ``_boltzmann_factors``.  The connected and two-connected sums
    are exactly 0 where the bond graph (pairs with f != 0) is disconnected;
    a piecewise constant bond packs each sample's bond levels into a row id
    and sums each distinct row of the chunk once (row ids are never
    renumbered up to MONTE_CARLO_MAX_N, so they decode to levels), any other
    bond sums sample by sample.
    """
    if graph_class == "all":
        return _boltzmann_factors(p, beta, n * (n - 1) // 2)
    graph_sum = _graph_class_sum(n, graph_class)
    connected = connected_mask_flags(n)
    bits = 1 << np.arange(n * (n - 1) // 2)

    def bond_graph_sum(fvals):
        return np.where(connected[(fvals != 0) @ bits], graph_sum(fvals), 0.0)

    if not p.piecewise_constant_bond:
        # the stream may hand every pair the same buffer: copy before stacking
        return lambda dists, m: bond_graph_sum(
            f_bond_array(p, beta, np.stack([r.copy() for r in dists], axis=1)))
    cuts = p.breakpoints()
    values = bond_level_values(p, beta)
    shape = (values.size,) * bits.size

    def weights(dists, m):
        ids, count = _append_levels(np.zeros(m, dtype=np.int64), 1,
                                    (bond_levels(r, cuts) for r in dists), values.size)
        rows, inverse = distinct_ids(ids, count)
        return bond_graph_sum(values[np.stack(np.unravel_index(rows, shape), axis=1)])[inverse]

    return weights


def _boltzmann_factors(p: PairPotential, beta: float, npairs: int):
    """The per-sample Boltzmann factors prod (1 + f) over ``npairs`` pairs,
    as a function of the pairs' distance arrays (in pair order) and the
    sample count.

    A piecewise constant bond counts levels: a factor of 1.0 is exact, the
    core factor is exactly 0.0, and only the well factor w is neither, so
    the pair-order product is powers[k] (k wells, powers[k] the k-fold
    sequential product 1 w ... w) or 0.0 once a pair is in the core.  These
    are the product's bits while powers stays finite; where w^npairs
    overflows, and for any other bond, the product runs pair by pair.
    """
    if p.piecewise_constant_bond:
        cuts = p.breakpoints()
        powers = _well_powers(1.0 + float(bond_level_values(p, beta)[1]), npairs)
        if math.isfinite(powers[-1]):
            return lambda dists, m: _level_count_factors(dists, m, cuts, powers)

    def product(dists, m):
        boltz = np.ones(m)
        for r in dists:
            boltz *= 1.0 + f_bond_array(p, beta, r)
        return boltz

    return product


def _well_powers(w: float, npairs: int) -> np.ndarray:
    """powers[k] = 1 w ... w, the k-fold product taken in sequence, for
    k = 0..npairs."""
    powers = [1.0]
    for _ in range(npairs):
        powers.append(powers[-1] * w)
    return np.array(powers)


def _level_count_factors(dists, m: int, cuts, powers: np.ndarray) -> np.ndarray:
    """powers[wells], 0.0 where a pair is in the core, from two per-sample
    counters: ``dead`` (some distance below the core cut) and ``wells`` (the
    distances below the last cut; uint8 holds the 66 pairs at N = 12)."""
    dead = np.zeros(m, dtype=bool)
    wells = np.zeros(m, dtype=np.uint8)
    below = np.empty(m, dtype=bool)
    for r in dists:
        dead |= np.less(r, cuts[0], out=below)
        if len(cuts) > 1:
            wells += np.less(r, cuts[-1], out=below)
    factors = powers.take(wells)
    factors[dead] = 0.0
    return factors


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
    """Mean and standard error of the chunk estimates of the graph-class sum
    on [n]: its integral over the free points of the ball, or its average
    over n points uniform in the box of side ``box``.

    Each thread draws its chunks into one ``_Workspace``, made at its first
    chunk and kept in a ``threading.local`` of this call, so it goes when
    the call returns.  Every chunk writes all it reads of it.
    """
    _check_monte_carlo(seed, samples, chunk, workers)
    d = p.dimension
    pairs = vertex_pairs(n)
    weights = _mc_weights(p, beta, n, graph_class)
    radius = (n - 1) * p.range_radius
    ball_vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius ** d
    local = threading.local()

    def chunk_mean(rng: np.random.Generator) -> float:
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = _Workspace(n, d, chunk)
        if box is None:
            for i in range(1, n):
                _stratified_ball(rng, ws, i, radius)
        else:
            _box_points(rng, ws, box)
        pts = ws.points
        # pair by pair into one buffer: a (pairs, chunk) distance matrix
        # would more than double the peak memory of ztilde at N = 12
        dists = (_pair_distances(pts[i - 1], pts[j - 1], ws.dists, ws.squares)
                 for i, j in pairs)
        mean = float(weights(dists, chunk).mean())
        return mean if box is not None else mean * ball_vol ** (n - 1)

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
    divided by the volume, and a side that is not finite and positive raises
    DomainError.  Monte Carlo raises DomainError when fewer than two of its
    chunk means are nonzero, or when its estimate is not finite.
    """
    if not beta > 0:
        raise DomainError("beta must be positive")
    if volume is not None and not 0 < volume < math.inf:
        raise DomainError(f"box side must be positive and finite, got {volume!r}")
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
            # a box estimate averages over the box points: times V^n it is
            # the integral, which b_n divides by V and n!
            scale *= float(volume) ** (p.dimension * (n - 1))
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
