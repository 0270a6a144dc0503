"""Closed forms for the one-dimensional hard-rod gas (the exact oracle).

Everything here follows from two classical facts:

* In a box [0, L] with free boundaries, ordering the rods and substituting
  y_i = x_i - (i-1)*sigma maps the allowed configurations onto an ordered
  simplex of side L - (N-1)*sigma, so the normalized configurational
  integral is (1 - (N-1)*sigma/L)^N.

* The grand-canonical pressure w = beta*P solves w*e^(sigma*w) = lambda, so
  its fugacity series is the tree function: the n-th coefficient equals
  (-1)^(n-1) n^(n-1) sigma^(n-1) / n!.  Eliminating the fugacity against
  rho = lambda dw/dlambda gives beta*P = rho/(1 - rho*sigma), hence the
  density-series coefficients -(k+1)*sigma^k / k.

Each closed form checks its arguments by the rules of ``errors`` and
raises a refusal as a DomainError naming the argument.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, JammedError, _finite, _integer, _positive


def bn_exact(n: int) -> Fraction:
    """Fugacity-series coefficient b_n for sigma = 1, as an exact rational."""
    n = _integer("order n", n, 1, DomainError)
    if n == 1:
        return Fraction(1)
    return Fraction((-1) ** (n - 1) * n ** (n - 1), math.factorial(n))


def bn_value(n: int, sigma: float = 1.0) -> float:
    """Fugacity-series coefficient b_n = (-1)^(n-1) n^(n-1) sigma^(n-1)/n!."""
    n = _integer("order n", n, 1, DomainError)
    _positive("sigma", sigma, DomainError)
    return float(bn_exact(n)) * sigma ** (n - 1)


def beta_k_exact(k: int) -> Fraction:
    """Density-series coefficient beta_k for sigma = 1: -(k+1)/k."""
    k = _integer("order k", k, 1, DomainError)
    return Fraction(-(k + 1), k)


def beta_k_value(k: int, sigma: float = 1.0) -> float:
    k = _integer("order k", k, 1, DomainError)
    _positive("sigma", sigma, DomainError)
    return float(beta_k_exact(k)) * sigma ** k


def _jammed(rho: float, sigma: float) -> None:
    """Check rho and sigma; JammedError at or above close packing."""
    _finite("density rho", rho, DomainError)
    _positive("sigma", sigma, DomainError)
    if rho * sigma >= 1.0:
        raise JammedError("density at or above close packing")


def pressure(rho: float, sigma: float = 1.0) -> float:
    """Equation of state beta*P = rho / (1 - rho*sigma)."""
    _jammed(rho, sigma)
    return rho / (1.0 - rho * sigma)


def q_infinite_volume(rho: float, sigma: float = 1.0) -> float:
    """Interaction part of the free energy per volume: rho * ln(1 - rho*sigma)."""
    _jammed(rho, sigma)
    return rho * math.log(1.0 - rho * sigma)


def ztilde_closed(N: int, L: float, sigma: float = 1.0) -> float:
    """Normalized configurational integral (1 - (N-1)*sigma/L)^N."""
    N = _integer("particle count N", N, 1, DomainError)
    _positive("L", L, DomainError)
    _positive("sigma", sigma, DomainError)
    free = 1.0 - (N - 1) * sigma / L
    if free <= 0.0:
        raise JammedError(f"box of side {L} cannot hold {N} rods of size {sigma}")
    return free ** N
