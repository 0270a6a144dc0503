"""Direct canonical-ensemble quantities at desk scale.

The normalized configurational integral

    ztilde = integral over the box of prod dx_i/V * e^(-beta sum V(x_i-x_j))

is computed three ways: the hard-rod closed form (1 - (N-1) sigma/L)^N,
one-dimensional nested quadrature over ordered gaps, and plain hit-or-miss
Monte Carlo on the Boltzmann factor (adequate exactly in the low-density
regime the series certifies).  The Boltzmann factor is prod (1 + f), the
sum over all graphs, so both numerical routes go through the one route
check of b_n and beta_k, in ``cluster._direct_integral``, for graph class
"all": the gap quadrature, and the Monte Carlo chunk loop whose box mean
is ztilde itself.  Their caps in N are the "all" entries of ``cluster.ROUTE_CAPS``,
which ``auto`` and the series side's b_n (``_series_route``) read too.
Free boundary conditions throughout: no periodic images.  Each entry point
checks beta, L, N and k_max by the rules of ``errors`` before it computes.

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

from .errors import CapacityError, ConfigError, DomainError, JammedError, _integer, _positive
from . import tonks
from .cluster import MC_CHUNK, MC_SAMPLES, ROUTE_CAPS, _direct_integral, mayer_bn
from .potentials import PairPotential, c_beta
from .series import free_energy_series, virial_from_mayer


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
    samples: int = MC_SAMPLES,
    chunk: int = MC_CHUNK,
    workers: Optional[int] = None,
) -> CanonicalResult:
    """Normalized configurational integral in a box of side L.

    method: ``tonks_closed`` (hard rods only), a route of
    ``cluster.ROUTE_CAPS`` (``quadrature`` in d = 1, ``monte_carlo``), or
    ``auto`` (closed form when exact, else quadrature within its cap, else
    Monte Carlo).  Monte Carlo raises DomainError when fewer than two of its
    chunk means are nonzero, or when its estimate is not finite.
    """
    _positive("beta", beta, DomainError)
    _positive("L", L, DomainError)
    N = _integer("particle count N", N, 1, DomainError)
    if p.kind == "hard_rod" and L <= (N - 1) * p.sigma:
        raise JammedError(f"{N} rods of size {p.sigma} cannot fit in a box of side {L}")
    if N == 1:
        return CanonicalResult(N, L, beta, 1.0, 0.0, "exact", p.dimension)
    if method == "auto":
        if p.kind == "hard_rod":
            method = "tonks_closed"
        elif p.dimension == 1 and N <= ROUTE_CAPS["quadrature"]["all"]:
            method = "quadrature"
        else:
            method = "monte_carlo"
    if method == "tonks_closed":
        if p.kind != "hard_rod":
            raise ConfigError("the closed form applies to hard rods only")
        return CanonicalResult(
            N, L, beta, tonks.ztilde_closed(N, L, p.sigma), 0.0, "tonks_closed", 1
        )
    val, err = _direct_integral(p, beta, "all", N, method, L, seed, samples, chunk, workers)
    if method == "quadrature":
        scale = math.factorial(N) / L ** N
        val, coarse = scale * val, scale * err
        err = abs(val - coarse)
    # purely repulsive potentials admit ztilde in (0, 1]; flag violations
    # beyond the reported error instead of returning nonsense silently
    if p.is_nonnegative and val > 1.0 + 3.0 * err + 1e-12:
        raise DomainError(f"ztilde = {val} > 1 for a purely repulsive potential")
    return CanonicalResult(N, L, beta, val, err, method, p.dimension)


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


def _series_route(p: PairPotential, n: int) -> str:
    """The route of the series side's b_n.

    Quadrature within its cap (d = 1); hard rods use the closed coefficients
    beyond (they are the same numbers the quadrature reproduces to ~1e-12),
    since the direct side of the comparison should not be starved of
    orders; other coefficients are sampled by Monte Carlo within its cap.
    Past every cap it raises CapacityError naming k_max = n - 1, the order
    whose coefficient needs b_n, and the largest k_max that runs.
    """
    quadrature = ROUTE_CAPS["quadrature"]["connected"] if p.dimension == 1 else 0
    monte_carlo = ROUTE_CAPS["monte_carlo"]["connected"]
    if n <= quadrature:
        return "quadrature"
    if p.kind == "hard_rod":
        return "tonks_closed"
    if n <= monte_carlo:
        return "monte_carlo"
    raise CapacityError(
        f"k_max={n - 1} needs b_{n}, which has no route for {p.kind} in d={p.dimension}; "
        f"the largest k_max that runs is {max(quadrature, monte_carlo) - 1}")


def _mayer_table_for_series(p: PairPotential, beta: float, n_max: int,
                            seed: Optional[int], samples: int, chunk: int,
                            workers: Optional[int] = None) -> Dict[int, float]:
    """Infinite-volume fugacity coefficients b_1..b_n_max for the series
    side, each by its ``_series_route``; Monte Carlo takes the comparison's
    seed, samples and chunk."""
    out = {1: 1.0}
    for n in range(2, n_max + 1):
        route = _series_route(p, n)
        if route == "tonks_closed":
            out[n] = tonks.bn_value(n, p.sigma)
        elif route == "quadrature":
            out[n], _ = mayer_bn(p, beta, n, method="quadrature")
        else:
            out[n], _ = mayer_bn(p, beta, n, method="monte_carlo", seed=seed,
                                 samples=samples, chunk=chunk, workers=workers)
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
    samples: int = MC_SAMPLES,
    chunk: int = MC_CHUNK,
    workers: Optional[int] = None,
) -> ComparisonReport:
    """Compare (1/V) ln ztilde against the truncated density series.

    The density convention is rho = N/V on the series side; the finite-N
    mismatch against the direct side is part of the comparison budget
    (2 |Q| / N), together with the certified series tail and three standard
    errors of the direct estimate.  The series side's highest order,
    b_(k_max+1), is checked for a route before anything is computed.
    """
    k_max = _integer("series order k_max", k_max, 1, DomainError)
    _series_route(p, k_max + 1)
    direct = ztilde_direct(
        p, beta, L, N, direct_method, seed=seed, samples=samples, chunk=chunk,
        workers=workers,
    )
    q_direct, N = q_lambda(direct), direct.N  # N as the int ztilde_direct made it
    # propagate the ztilde error into Q: d(ln z)/z over the volume
    q_err = direct.error / max(direct.ztilde, 1e-300) / direct.volume

    rho = N / L ** p.dimension
    bmap = _mayer_table_for_series(p, beta, k_max + 1, seed, samples, chunk, workers)
    coeffs = {k: float(virial_from_mayer(bmap, k)) for k in range(1, k_max + 1)}
    cb, _ = c_beta(p, beta)
    estimate = free_energy_series(rho, coeffs, k_max, beta, p.B, cb)
    q_series = estimate.value
    tail = estimate.tail_bound  # NaN exactly where the series is not certified

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
