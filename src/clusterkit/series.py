"""Power-series layer: density-series coefficients from fugacity-series ones.

One production route and one independent oracle give the same coefficients:

* ``virial_from_mayer`` evaluates Mayer's sum over partitions in its
  Lagrange-Buermann form.  With g(z) = sum_n n b_n z^(n-1), so that the
  density is rho = z g(z),

      beta_k = -(1/k) [z^k] g(z)^(-k),

  whose multinomial expansion is exactly Mayer's partition sum.  The power
  g^(-k) comes from J.C.P. Miller's recurrence for powers of a series,

      p_0 = 1,  p_m = (1/m) sum_{j=1..m} ((1-k) j - m) g_j p_(m-j),

  O(k^2) exact rational operations per order.

* ``invert_mayer_oracle`` eliminates the fugacity between the pressure
  series sum b_n z^n and the density series sum n b_n z^n by formal power
  series reversion, then reads the density-series coefficients off the
  pressure-vs-density expansion.  It returns them as ``.values``, a dict
  from order k to beta_k, of a ``VirialCoefficients`` named tuple.

Both routes are exact on exact input (``errors._exact``), so the identity
between them is asserted with ``==``.  The transform converts float input
to its exact rationals and rounds its result once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from .errors import DomainError, InputError, _coefficients, _exact, _finite, _integer
from . import radii as radii_mod

Number = Union[int, float, Fraction]


class VirialCoefficients(NamedTuple):
    """Density-series coefficients keyed by order."""

    values: Dict[int, Number]


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

def virial_from_mayer(b, k: int) -> Number:
    """Order-k density-series coefficient beta_k from b_2..b_(k+1).

    Exact arithmetic throughout: a Fraction when every input coefficient is
    exact (``errors._exact``: numpy ints too), else the float nearest the
    exact value for the given floats; DomainError where that overflows.
    """
    k = _integer("order k", k, 1, DomainError)
    bm = _coefficients(b, 2, k + 1)
    exact = all(_exact(bm[i]) is not None for i in range(2, k + 2))
    g = [Fraction(1)] + [n * Fraction(bm[n]) for n in range(2, k + 2)]  # g_j = (j+1) b_(j+1)
    p = [Fraction(1)]  # coefficients of g^(-k)
    for m in range(1, k + 1):
        p.append(sum(((1 - k) * j - m) * g[j] * p[m - j] for j in range(1, m + 1)) / m)
    value = -p[k] / k
    try:
        return value if exact else float(value)
    except OverflowError:
        raise DomainError(f"beta_{k} overflows a float") from None


# ---------------------------------------------------------------------------
# formal inversion oracle
# ---------------------------------------------------------------------------

def _poly_mul(a: List[Number], b: List[Number], order: int) -> List[Number]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        top = min(order - i, len(b) - 1)
        for j in range(top + 1):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return out


def invert_mayer_oracle(b, k_max: int) -> VirialCoefficients:
    """Density-series coefficients by formal reversion of the density series.

    Reverts rho(z) = sum n b_n z^n to z(rho), composes the pressure series
    sum b_n z^n with it, and reads beta_k = -(k+1)/k times the rho^(k+1)
    pressure coefficient.  Exact in rational arithmetic for exact input; a
    float result that is not finite raises DomainError naming its order.
    """
    k_max = _integer("order k_max", k_max, 1, DomainError)
    order = k_max + 1
    bm = _coefficients(b, 1, order)
    if bm[1] != 1:
        raise InputError("the order-1 fugacity coefficient must equal 1")
    exact = all(_exact(bm[i]) is not None for i in range(1, order + 1))
    conv = Fraction if exact else float

    c = [0] + [conv(n * bm[n]) for n in range(1, order + 1)]  # rho(z) coefficients
    # reversion: z(rho) = sum a_j rho^j with a_1 = 1/c_1 = 1
    a: List[Number] = [0] * (order + 1)
    a[1] = conv(1)
    for j in range(2, order + 1):
        zpow = [0, *a[1:j]] + [0] * (order - j + 1)  # z(rho) truncated below j
        acc = [0] * (order + 1)
        power = zpow
        for i in range(2, j + 1):
            power = _poly_mul(power, zpow, order)
            if c[i] != 0:
                for t in range(order + 1):
                    acc[t] += c[i] * power[t]
        a[j] = -acc[j]
    # pressure series composed with z(rho)
    p = [0] * (order + 1)
    power = [0] * (order + 1)
    power[0] = conv(1)
    for n in range(1, order + 1):
        power = _poly_mul(power, a, order)
        if bm[n] != 0:
            for t in range(order + 1):
                p[t] += conv(bm[n]) * power[t]
    values = {k: -(conv(k + 1) / k) * p[k + 1] for k in range(1, k_max + 1)}
    for k, v in values.items():
        if not (exact or math.isfinite(v)):
            raise DomainError(f"beta_{k} is {v!r} in floating point: the float reversion overflows")
    return VirialCoefficients(values)


# ---------------------------------------------------------------------------
# exact combinatorial identity
# ---------------------------------------------------------------------------

def combi_identity_check(t: Sequence[int], n: int, k: int) -> Tuple[int, int]:
    """Both sides of the bounded-composition binomial identity, exactly.

    lhs: sum over (l_1..l_n) >= 0 with sum l = n-2 and l_i <= t_i of
    prod C(t_i, l_i);  rhs: C(k-1+n, n-2).  Valid input: t_1 >= 1,
    t_i >= 2 for i >= 2, and sum t_i = n+k-1.
    """
    t = tuple(_integer("every t_i", x, 1, InputError) for x in t)
    n = _integer("n", n, 2, InputError)
    k = _integer("k", k, 1, InputError)
    if len(t) != n:
        raise InputError(f"tuple length {len(t)} != n = {n}")
    if t[0] < 1 or any(ti < 2 for ti in t[1:]):
        raise InputError("need t_1 >= 1 and t_i >= 2 for i >= 2")
    if sum(t) != n + k - 1:
        raise InputError(f"tuple must sum to n+k-1 = {n + k - 1}, got {sum(t)}")

    target = n - 2
    lhs = 0

    def rec(i: int, rem: int, prod: int):
        nonlocal lhs
        if i == n:
            if rem == 0:
                lhs += prod
            return
        for li in range(min(rem, t[i]) + 1):
            rec(i + 1, rem - li, prod * math.comb(t[i], li))

    rec(0, target, 1)
    rhs = math.comb(k - 1 + n, n - 2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# free-energy series assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Partial free-energy series with a geometric tail majorant.

    ``certified`` is False when the density exceeds the certified radius (or
    the geometric ratio reaches one); the tail bound is then meaningless and
    set to NaN rather than invented.
    """

    value: float
    tail_bound: float
    certified: bool


def free_energy_series(
    rho: float,
    coeffs,
    k_max: int,
    beta: float,
    B: float,
    cbeta: float,
) -> FreeEnergyEstimate:
    """Partial sum of sum_k C_k/(k+1) rho^(k+1) with a certified tail bound.

    The tail majorant uses the uniform coefficient bound at the computed
    maximizer a*: successive bound terms shrink at least geometrically with
    ratio |rho| * e^(1+a*) * e^(2 beta B) * C(beta), which is below one for
    |rho| inside the certified radius.
    """
    k_max = _integer("order k_max", k_max, 1, DomainError)
    cm = _coefficients(coeffs, 1, k_max, "density-series coefficient", "C")
    _finite("density rho", rho, DomainError)
    value = math.fsum(float(cm[k]) / (k + 1) * rho ** (k + 1) for k in range(1, k_max + 1))
    u = radii_mod._checked_u(beta, B, cbeta)
    F, a_star = radii_mod.F_of_u(u)
    rstar = radii_mod._radius("density", F / (u * cbeta), cbeta)
    ratio = abs(rho) * math.exp(1.0 + a_star) * u * cbeta
    certified = abs(rho) <= rstar and ratio < 1.0
    if rho == 0.0:
        tail = 0.0
        certified = True
    elif certified:
        k = k_max + 1
        head = radii_mod._bound(k, beta, B, cbeta, a_star, u).ours / (k + 1) * abs(rho) ** (k + 1)
        tail = head / (1.0 - ratio)
    else:
        tail = math.nan
    return FreeEnergyEstimate(value, tail, certified)
