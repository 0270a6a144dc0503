"""Direct canonical-ensemble quantities at desk scale.

The normalized configurational integral

    ztilde = integral over the box of prod dx_i/V * e^(-beta sum V(x_i-x_j))

is computed three ways: the hard-rod closed form (1 - (N-1) sigma/L)^N,
one-dimensional nested quadrature over ordered gaps (N <= 4), and plain
hit-or-miss Monte Carlo on the Boltzmann factor (N <= 12, adequate exactly
in the low-density regime the series certifies).  The Boltzmann factor is
prod (1 + f), the sum over all graphs: quadrature runs the gap driver of
``cluster`` (graph class "all"), and Monte Carlo its chunk driver on the
box points of box b_n.  For a piecewise constant bond Monte Carlo keeps two
counters per sample, a core flag and a count of the pairs in the well, and
reads the factor from a table of the well factor's sequential powers,
which gives the bits of the pair-by-pair product; other bonds, and wells
whose powers overflow, multiply pair by pair.  Free boundary conditions
throughout: no periodic images.

``compare_series_direct`` is the end-to-end harness: it evaluates the
interaction free-energy term Q = (1/V) ln ztilde directly and from the
density series with coefficients built out of computed fugacity-series
coefficients, and compares the gap against an explicit budget (series tail
bound + O(1/N) finite-size allowance + sampling error).  FAIL is a report
outcome, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import CapacityError, ConfigError, DomainError, JammedError
from . import tonks
from .cluster import (
    MONTE_CARLO_MAX_N,
    QUADRATURE_MAX_N,
    _box_points,
    _check_monte_carlo,
    _gap_integral,
    _monte_carlo,
    _pair_distances,
    mayer_bn,
)
from .graphs import vertex_pairs
from .potentials import PairPotential, bond_level_values, c_beta, f_bond_array
from .series import free_energy_series, virial_from_mayer

ZTILDE_QUADRATURE_MAX_N = 4
ZTILDE_MC_MAX_N = 12


@dataclass(frozen=True)
class CanonicalResult:
    """A computed normalized configurational integral and its free-energy term."""

    N: int
    L: float
    beta: float
    ztilde: float
    error: float
    method: str
    dimension: int = 1

    @property
    def volume(self) -> float:
        return self.L ** self.dimension


def q_lambda(result: CanonicalResult) -> float:
    """Free-energy interaction term (1/V) ln ztilde."""
    if result.ztilde <= 0.0:
        raise DomainError("ztilde must be positive to take its logarithm")
    return math.log(result.ztilde) / result.volume


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------

def ztilde_direct(
    p: PairPotential,
    beta: float,
    L: float,
    N: int,
    method: str = "auto",
    *,
    seed: Optional[int] = None,
    samples: int = 400_000,
    chunk: int = 20_000,
    workers: Optional[int] = None,
) -> CanonicalResult:
    """Normalized configurational integral in a box of side L.

    method: ``tonks_closed`` (hard rods only), ``quadrature`` (d = 1,
    N <= 4), ``monte_carlo`` (N <= 12), or ``auto`` (closed form when exact,
    else quadrature when feasible, else Monte Carlo).  Monte Carlo raises
    DomainError when fewer than two of its chunk means are nonzero, or when
    its estimate is not finite.
    """
    if not (beta > 0 and L > 0):
        raise DomainError("need beta > 0 and L > 0")
    if N < 1:
        raise DomainError("N must be >= 1")
    if p.kind == "hard_rod" and L <= (N - 1) * p.sigma:
        raise JammedError(f"{N} rods of size {p.sigma} cannot fit in a box of side {L}")
    if N == 1:
        return CanonicalResult(N, L, beta, 1.0, 0.0, "exact", p.dimension)
    if method == "auto":
        if p.kind == "hard_rod":
            method = "tonks_closed"
        elif p.dimension == 1 and N <= ZTILDE_QUADRATURE_MAX_N:
            method = "quadrature"
        else:
            method = "monte_carlo"
    if method == "tonks_closed":
        if p.kind != "hard_rod":
            raise ConfigError("the closed form applies to hard rods only")
        return CanonicalResult(
            N, L, beta, tonks.ztilde_closed(N, L, p.sigma), 0.0, "tonks_closed", 1
        )
    if method == "quadrature":
        if p.dimension != 1:
            raise CapacityError("direct quadrature is one-dimensional only")
        if N > ZTILDE_QUADRATURE_MAX_N:
            raise CapacityError(f"direct quadrature capped at N={ZTILDE_QUADRATURE_MAX_N}")
        scale = math.factorial(N) / L ** N
        fine, coarse = _gap_integral(p, beta, N, "all", L)
        fine, coarse = scale * fine, scale * coarse
        return _checked_result(p, CanonicalResult(N, L, beta, fine, abs(fine - coarse),
                                                  "quadrature", 1))
    if method == "monte_carlo":
        if N > ZTILDE_MC_MAX_N:
            raise CapacityError(f"Monte Carlo capped at N={ZTILDE_MC_MAX_N}")
        _check_monte_carlo(seed, samples, chunk)
        pairs = vertex_pairs(N)
        factors = _boltzmann_factors(p, beta, len(pairs))

        def chunk_mean(rng: np.random.Generator) -> float:
            # pair by pair: a (chunk, pairs) distance matrix would more than
            # double the peak memory at N = 12
            pts = _box_points(rng, N, p.dimension, L, chunk)
            return float(factors(
                (_pair_distances(pts[i - 1], pts[j - 1]) for i, j in pairs), chunk).mean())

        val, err = _monte_carlo(chunk_mean, N, seed, samples, chunk, workers)
        return _checked_result(p, CanonicalResult(N, L, beta, val, err,
                                                  "monte_carlo", p.dimension))
    raise ConfigError(f"unknown method {method!r}")


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


def _checked_result(p: PairPotential, res: CanonicalResult) -> CanonicalResult:
    # purely repulsive potentials admit ztilde in (0, 1]; flag violations
    # beyond the reported error instead of returning nonsense silently
    if p.is_nonnegative and res.ztilde > 1.0 + 3.0 * res.error + 1e-12:
        raise DomainError(
            f"ztilde = {res.ztilde} > 1 for a purely repulsive potential"
        )
    return res


# ---------------------------------------------------------------------------
# series vs direct
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the series-vs-direct free-energy comparison."""

    N: int
    L: float
    beta: float
    rho: float
    k_max: int
    q_direct: float
    q_direct_error: float
    q_series: float
    tail_bound: float
    certified: bool
    gap: float
    budget: float
    passed: bool
    direct_method: str
    coefficients: Dict[int, float]

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "L": self.L,
            "beta": self.beta,
            "rho": self.rho,
            "k_max": self.k_max,
            "Q_direct": self.q_direct,
            "Q_direct_error": self.q_direct_error,
            "Q_series": self.q_series,
            "tail_bound": self.tail_bound,
            "certified": self.certified,
            "gap": self.gap,
            "budget": self.budget,
            "pass": self.passed,
            "direct_method": self.direct_method,
            "coefficients": {str(k): v for k, v in sorted(self.coefficients.items())},
        }


def _mayer_table_for_series(p: PairPotential, beta: float, n_max: int,
                            seed: Optional[int],
                            workers: Optional[int] = None) -> Dict[int, float]:
    """Infinite-volume fugacity coefficients b_1..b_n_max for the series side.

    Quadrature within its cap; hard rods use the closed coefficients beyond
    (they are the same numbers the quadrature reproduces to ~1e-12), since
    the direct side of the comparison should not be starved of orders.
    """
    out = {1: 1.0}
    for n in range(2, n_max + 1):
        if p.dimension == 1 and n <= QUADRATURE_MAX_N:
            out[n], _ = mayer_bn(p, beta, n, method="quadrature")
        elif p.kind == "hard_rod":
            out[n] = tonks.bn_value(n, p.sigma)
        elif n <= MONTE_CARLO_MAX_N:
            out[n], _ = mayer_bn(p, beta, n, method="monte_carlo", seed=seed,
                                 workers=workers)
        else:
            raise CapacityError(
                f"no route to order-{n} fugacity coefficients for {p.kind}"
            )
    return out


def compare_series_direct(
    p: PairPotential,
    beta: float,
    L: float,
    N: int,
    k_max: int,
    *,
    direct_method: str = "auto",
    seed: Optional[int] = None,
    samples: int = 400_000,
    chunk: int = 20_000,
    workers: Optional[int] = None,
) -> ComparisonReport:
    """Compare (1/V) ln ztilde against the truncated density series.

    The density convention is rho = N/V on the series side; the finite-N
    mismatch against the direct side is part of the comparison budget
    (2 |Q| / N), together with the certified series tail and three standard
    errors of the direct estimate.
    """
    direct = ztilde_direct(
        p, beta, L, N, direct_method, seed=seed, samples=samples, chunk=chunk,
        workers=workers,
    )
    q_direct = q_lambda(direct)
    # propagate the ztilde error into Q: d(ln z)/z over the volume
    q_err = direct.error / max(direct.ztilde, 1e-300) / direct.volume

    rho = N / L ** p.dimension
    bmap = _mayer_table_for_series(p, beta, k_max + 1, seed, workers)
    coeffs = {k: float(virial_from_mayer(bmap, k)) for k in range(1, k_max + 1)}
    cb, _ = c_beta(p, beta)
    estimate = free_energy_series(rho, coeffs, k_max, beta, p.B, cb)
    q_series = estimate.value
    tail = estimate.tail_bound if estimate.certified else math.nan

    gap = abs(q_direct - q_series)
    budget = (0.0 if math.isnan(tail) else tail) + 2.0 * abs(q_direct) / N + 3.0 * q_err
    passed = estimate.certified and gap <= budget
    return ComparisonReport(
        N=N,
        L=L,
        beta=beta,
        rho=rho,
        k_max=k_max,
        q_direct=q_direct,
        q_direct_error=q_err,
        q_series=q_series,
        tail_bound=tail,
        certified=estimate.certified,
        gap=gap,
        budget=budget,
        passed=passed,
        direct_method=direct.method,
        coefficients=coeffs,
    )
