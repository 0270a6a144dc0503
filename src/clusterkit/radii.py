"""Convergence radii and coefficient bounds for the density expansions.

Everything is driven by one scalar optimum in the combined variable
u = e^(2 beta B) >= 1, which has two forms:

    F(u) = max_{a>0} ln(1 + u(1 - e^-a)) / (e^a (1 + u(1 - e^-a)))
    g(u) = max_{0<w<ln(1+u)} ((1+u) e^-w - 1) w / u

The two maxima agree (substitute w = ln(1 + u(1 - e^-a))).  g is stationary
where (1 - w) e^(1-w) = e/(1+u), so with W = W0(e/(1+u)) on the principal
branch of Lambert W the optimum is in closed form:

    w* = 1 - W,   F = g = (1 - W)^2 e^(W-1) (1+u)/u,   a* = -log1p(-expm1(w*)/u).

W is found by Halley steps (Corless et al., "On the Lambert W function",
Adv. Comput. Math. 5, 329 (1996)); F, a* and w* come out within about 1e-15
relative of the true values for u from 1 to the largest float.  This form
of F uses W e^W = e/(1+u) in place of a division by W, which is subnormal
once u > ~1.2e308.  ``verify`` checks the closed form against a direct
maximization of the a form.  The certified density radius is
F(u) / (u C(beta)); the fugacity-series radius is 1 / (e^(2 beta B + 1)
C(beta)).

K* = 1/F(u) is also recomputed through its defining tree-function series
S(x) = sum_{n>=1} n^(n-1)/n! x^(n-1) as an independent check, without ln c,
the closed form or Lambert W.  K* is the minimum over a of e^a / x with
S(x) = c = 1 + u(1 - e^-a); it is stationary where T'(x) = 1 + u for the
tree function T = x S, and there K* = u / (x (1 + u - S(x))).
``tree_series_excess`` encloses S(x) - 1 and T'(x) - 1: a 2047-term head
summed from a log-coefficient table, plus tails bounded above and below in
closed form from Robbins' Stirling bounds and the integral test (about
1e-9 wide for S at x = 1/e, where T' diverges).  The head exponentiates
only its terms in the normal float range, the rest being 0, with the bits
of the head that exponentiates them all.  The root of the upper bound on
T' - 1 is bracketed by regula falsi in s = sqrt(1 - e x), in a handful of
steps, and the recomputed K* matches the closed form to about
6e-12 relative for u from 1 to 1e300.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DomainError, _integer, _positive, _stability

#: externally quoted zero-coupling maximizer, kept for comparison output; it
#: disagrees with the computed optimum (~0.4623) and is flagged, not adopted.
REFERENCE_A_ZERO_COUPLING = 0.426

#: denominator constant of the comparison bound on k * beta_k
LP_BOUND_DENOMINATOR = 0.28952

# ---------------------------------------------------------------------------
# the optimum in closed form
# ---------------------------------------------------------------------------

#: Halley steps on W0 from log1p(x): on 0 < x <= e/2 the second leaves W
#: within 1e-9 relative and the third at full precision; the fourth is margin
_HALLEY_STEPS = 4


def _optimum(u: float) -> Tuple[float, float, float]:
    """(F, a*, w*) at u >= 1 from W = W0(e/(1+u)); g = F and g's maximizer is w*."""
    if not 1.0 <= u < math.inf:
        raise DomainError(f"u = e^(2 beta B) must be finite and >= 1, not {u!r}")
    x = math.e / (1.0 + u)
    W = math.log1p(x)
    for _ in range(_HALLEY_STEPS):
        ew = math.exp(W)
        f = W * ew - x
        W -= f / (ew * (W + 1.0) - (W + 2.0) * f / (2.0 * W + 2.0))
    w_star = 1.0 - W
    F = w_star * w_star * math.exp(-w_star) * ((1.0 + u) / u)
    a_star = -math.log1p(-math.expm1(w_star) / u)
    return F, a_star, w_star


def F_of_u(u: float) -> Tuple[float, float]:
    """Maximum and maximizer of ln(c)/(e^a c) with c = 1 + u(1 - e^-a).

    In closed form through Lambert W (see the module docstring).  Valid for
    u >= 1 (u = e^(2 beta B) can never be smaller).
    """
    F, a_star, _ = _optimum(u)
    return F, a_star


# ---------------------------------------------------------------------------
# the certified tree-function series and the recomputed K*
# ---------------------------------------------------------------------------

#: the tree series converges on 0 < x <= 1/e, where it sums to e
_X_MAX = 1.0 / math.e
#: 1/e - _X_MAX (40-digit arithmetic): with it x - 1/e is exact near 1/e
_X_MAX_LO = -1.2428753672788363e-17
#: the last term of the head; the terms past it are bounded in closed form
_HEAD_TERMS = 2048
#: log s_n for n = 2 .. _HEAD_TERMS, s_n = n^(n-1) e^-(n-1) / n!, so that
#: term n is s_n z^(n-1) with z = e x; the term n = 1 is the 1 that S - 1 drops
_LOG_S = np.array([(n - 1) * (math.log(n) - 1.0) - math.lgamma(n + 1)
                   for n in range(2, _HEAD_TERMS + 1)])
_N_MINUS_1 = np.arange(1, _HEAD_TERMS, dtype=float)
_N = _N_MINUS_1 + 1.0
#: ln of the smallest normal float: the head evaluates only the terms whose
#: exponents reach it, and sets the rest to 0
_LOG_NORMAL_MIN = math.log(sys.float_info.min)
#: the head is widened by this share of itself on both sides: a majorant for
#: the rounding of _LOG_S (at most 3.4e-12 against 40-digit arithmetic), of
#: the exponentials and of the sum
_HEAD_ROUNDING = 1e-11
#: Robbins: s_n = _STIRLING n^(-3/2) e^(-r_n) with 1/(12n+1) < r_n < 1/(12n)
_STIRLING = math.e / math.sqrt(2.0 * math.pi)
#: relative width in s = sqrt(1 - e x) at which the root of the upper bound
#: on T' - 1 is accepted; K* is stationary there, so it errs by about the
#: square of this
_ROOT_TOL = 1e-12
#: step cap of the root search; it takes at most 10 steps for u = 1 ... 1e300
_ROOT_STEPS = 100


def _tail_integrals(lam: float, A: float) -> Tuple[float, float, float]:
    """Integrals from A to infinity of e^(-lam (t-1)) t^(-p) for p = 3/2, 5/2, 1/2.

    Closed forms by parts and erfc; the p = 1/2 integral is infinite at lam = 0.
    """
    w = math.exp(-lam * (A - 1.0))
    if lam == 0.0:
        return 2.0 / math.sqrt(A), (2.0 / 3.0) * A ** -1.5, math.inf
    i1 = math.exp(lam) * math.sqrt(math.pi / lam) * math.erfc(math.sqrt(lam * A))
    i3 = 2.0 * w / math.sqrt(A) - 2.0 * lam * i1
    i5 = (2.0 / 3.0) * (w * A ** -1.5 - lam * i3)
    return i3, i5, i1


def tree_series_excess(x: float) -> Tuple[float, float, float, float]:
    """Certified enclosures of S(x) - 1 and of T'(x) - 1 for the tree function.

    S(x) = sum_{n>=1} n^(n-1)/n! x^(n-1) converges on 0 < x <= 1/e; the tree
    function T = x S has T'(x) = sum_{n>=1} n^n/n! x^(n-1), which diverges at
    x = 1/e.  The enclosures cover x from the smallest normal float (below it
    the rounding allowance no longer holds) to 1/e; the float nearest 1/e,
    which lies just above it, is taken as 1/e.  Leaving out the leading 1s
    keeps full relative precision as x -> 0.

    With z = e x = e^-lam, term n of S is s_n z^(n-1) and that of T' is
    n s_n z^(n-1).  Terms 2 .. 2048 are summed from a log-coefficient table;
    only those at or above the smallest normal float are exponentiated, and
    the rest, too small to reach the bits of the sums, are 0.
    Robbins' bounds on Stirling's remainder give
    1 - 1/(12n) <= e^(-r_n) <= 1 - 1/(12n) + 1/(96 n^2), which reduce the
    tails to sums of the convex, decreasing phi_p(t) = z^(t-1) t^-p, with
    p = 3/2 for S and one power of n lower for T'.  Each such sum from N+1
    on lies between int_{N+1}^inf phi_p + phi_p(N+1)/2 and
    int_{N+1/2}^inf phi_p, both in closed form through erfc.  No term is
    dropped unreported: the enclosure of S - 1 is about 1.1e-9 wide at
    x = 1/e, and 2e-11 (S(x) - 1) wide (the rounding allowance) once the
    tail is negligible; both bounds on T' - 1 are infinite at x = 1/e.

    Returns (lo, hi, lo', hi') with lo <= S(x) - 1 <= hi and
    lo' <= T'(x) - 1 <= hi'.
    """
    if not sys.float_info.min <= x <= _X_MAX:
        raise DomainError(f"the tree series is enclosed for x from the smallest normal "
                          f"float to 1/e, not at x = {x!r}")
    lam = _lam(x)
    terms = _N_MINUS_1 * -lam
    terms += _LOG_S
    # Only the leading exponents >= ln(2^-1022), those of the normal-range
    # terms, are exponentiated (the exponents fall with n); numpy's exp is
    # far slower on underflowing ones.  The rest stay 0 with the bits of the
    # full head: for x > e^-400 ~ 2^-577 each is below 2^-1022 and n times
    # it below 2^-1011, so together they are under 2^-1000, while the first
    # term puts half an ulp of the sum and of the dot above 2^-630; for
    # smaller x every exponent past the first is below -800, and its term 0
    # in the full head too.  The first term is always kept, however its
    # exponent rounds at the smallest normal x.
    k = max(1, int(np.count_nonzero(terms >= _LOG_NORMAL_MIN)))
    np.exp(terms[:k], out=terms[:k])
    terms[k:] = 0.0
    head = float(terms.sum())
    head_t = float(terms @ _N)
    lo = head * (1.0 - _HEAD_ROUNDING)
    hi = head * (1.0 + _HEAD_ROUNDING)
    lo_t = head_t * (1.0 - _HEAD_ROUNDING)
    hi_t = head_t * (1.0 + _HEAD_ROUNDING)
    tail = _tail_bounds(lam)
    return lo + tail[0], hi + tail[1], lo_t + tail[2], hi_t + tail[3]


def _lam(x: float) -> float:
    """lam = -ln z = -1 - ln x, with z = e x, for x in the series' domain."""
    if x >= 0.5 * _X_MAX:
        # ln z from x - 1/e: -1 - log(x) would leave it to log's rounding,
        # and S - 1 ~ e - 1 - e sqrt(2 lam) is steep in lam near 1/e
        return max(-math.log1p(math.e * ((x - _X_MAX) - _X_MAX_LO)), 0.0)
    return -1.0 - math.log(x)


def _tail_bounds(lam: float) -> Tuple[float, float, float, float]:
    """What the terms past the head add to the bounds on S - 1 and on T' - 1.

    l*/u* bound the sums of phi_p from below/above.
    """
    N = _HEAD_TERMS
    first, mid = N + 1.0, N + 0.5
    w = math.exp(-lam * N)
    l3, l5, l1 = _tail_integrals(lam, first)
    u3, u5, u1 = _tail_integrals(lam, mid)
    l1 += 0.5 * w * first ** -0.5
    l3 += 0.5 * w * first ** -1.5
    l5 += 0.5 * w * first ** -2.5
    u7 = math.exp(-lam * (N - 0.5)) * 0.4 * mid ** -2.5
    return (_STIRLING * (l3 - u5 / 12.0), _STIRLING * (u3 - l5 / 12.0 + u7 / 96.0),
            _STIRLING * (l1 - u3 / 12.0), _STIRLING * (u1 - l3 / 12.0 + u5 / 96.0))


def _largest_x(u: float) -> Tuple[float, float]:
    """Largest x in (0, 1/e] whose upper bound on T'(x) - 1 is at most u >= 1.

    Returns x and the upper bound on S(x) - 1 there.  In s = sqrt(1 - e x),
    1 / T' = (1 - T) e^-T rises smoothly from 0 at s = 0 (x = 1/e) to 1 at
    s = 1 (x = 0), about like sqrt(2) s / e near s = 0, so the root of
    1 / (1 + hi') = 1 / (1 + u) is bracketed in s by regula falsi with the
    Illinois halving, starting from the asymptote s = e / (sqrt(2) (1 + u)).
    Each step is taken on the float x it maps to; a step that maps onto an
    end of the bracket moves to the float next to it.  The search stops
    when the bracket is at most _ROOT_TOL wide in s, relative, and returns
    its left end, or when no float lies inside; if the right end is then
    1/e, where hi' is infinite, it snaps x to 1/e.
    """
    target = 1.0 / (1.0 + u)
    # the ends: left has hi' <= u (x = 0, s = 1, to start), right hi' > u
    x_left, s_left, f_left, s1_left = 0.0, 1.0, 1.0 - target, 0.0
    x_right, s_right, f_right = _X_MAX, 0.0, -target
    s = math.e / (math.sqrt(2.0) * (1.0 + u))
    side = 0
    for _ in range(_ROOT_STEPS):
        x = (1.0 - s) * (1.0 + s) / math.e
        # a step onto or past an end moves to the float next to that end
        if x >= x_right:
            x = math.nextafter(x_right, 0.0)
        elif x <= x_left:
            x = math.nextafter(x_left, 1.0)
        if not x_left < x < x_right:
            if x_right == _X_MAX:
                return _X_MAX, tree_series_excess(_X_MAX)[1]
            return x_left, s1_left
        _, s1, _, t1 = tree_series_excess(x)
        f = 1.0 / (1.0 + t1) - target
        if math.isnan(f):
            raise DomainError(f"the bound on T' - 1 is not a number at x = {x!r}")
        s = math.sqrt(-math.expm1(-_lam(x)))
        if f >= 0.0:
            x_left, s_left, f_left, s1_left = x, s, f, s1
            if side == 1:
                f_right *= 0.5
            side = 1
        else:
            x_right, s_right, f_right = x, s, f
            if side == -1:
                f_left *= 0.5
            side = -1
        if s_left - s_right <= _ROOT_TOL * s_left:
            return x_left, s1_left
        s = s_right + (s_left - s_right) * f_right / (f_right - f_left)
    raise DomainError(f"the root of T'(x) = 1 + u at u = {u!r} is not bracketed "
                      f"to {_ROOT_TOL:g} in {_ROOT_STEPS} steps")


def K_star(u: float) -> Tuple[float, float]:
    """The explicit minimum e^a c / ln c over a, and its series recomputation.

    The closed form is the reciprocal of F(u).  The series check replays the
    defining condition without ln c, the closed form or Lambert W: K* is the
    minimum over a of kappa(a) = e^a / x*(c), with c = 1 + u(1 - e^-a) and
    S(x*) = c.  d kappa / da = 0 gives S + x S' = 1 + u, that is
    T'(x) = 1 + u for the tree function T = x S, whose root is unique since
    T' - 1 has positive coefficients.  There K* = u / (x (1 + u - S(x))),
    which is stationary in x.  The root is that of the certified upper bound
    on T' - 1 (``tree_series_excess``), and S takes its upper bound, so the
    value errs towards a larger K*, by under 1e-11 relative for u from 1 to
    1e300 (mostly the rounding allowance).  The two values must agree to 1e-8.
    """
    val, _ = F_of_u(u)
    return 1.0 / val, _k_star_series(u)


def _k_star_series(u: float) -> float:
    """K* recomputed through the tree series (``K_star``'s second value)."""
    x, s1 = _largest_x(u)
    return u / (x * (u - s1))


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------

def _checked_u(beta: float, B: float, cbeta: float) -> float:
    """u = e^(2 beta B) once C(beta), beta and B pass their rules."""
    _positive("C(beta)", cbeta, DomainError)
    _positive("beta", beta, DomainError)
    _stability(B, DomainError)
    return _exp_beta_B(2.0 * beta * B, beta, B)


def _exp_beta_B(x: float, beta: float, B: float) -> float:
    """e^x for an exponent x built from beta*B; a result that is not finite names beta*B."""
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"beta*B = {beta * B:g} overflows e^(2 beta B)")
    return value


def _radius(name: str, value: float, cbeta: float) -> float:
    """``value``, or DomainError naming C(beta) where a radius overflows."""
    if not math.isfinite(value):
        raise DomainError(f"the {name} radius overflows at C(beta) = {cbeta!r}")
    return value


def rho_star(beta: float, B: float, cbeta: float) -> float:
    """Certified density radius F(e^(2 beta B)) / (e^(2 beta B) C(beta))."""
    u = _checked_u(beta, B, cbeta)
    val, _ = F_of_u(u)
    return _radius("density", val / (u * cbeta), cbeta)


def mayer_radius(beta: float, B: float, cbeta: float) -> float:
    """Fugacity-series radius 1 / (e^(2 beta B + 1) C(beta))."""
    _checked_u(beta, B, cbeta)
    return _fugacity_radius(beta, B, cbeta)


def _fugacity_radius(beta: float, B: float, cbeta: float) -> float:
    """``mayer_radius`` on checked arguments."""
    return _radius("fugacity", 1.0 / (_exp_beta_B(2.0 * beta * B + 1.0, beta, B) * cbeta), cbeta)


# ---------------------------------------------------------------------------
# coefficient bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientBound:
    """Order-k density-coefficient bounds: this toolkit's and the comparison one."""

    k: int
    ours: float
    lp: float
    base_ours: float
    base_lp: float


def ck_bound(k: int, beta: float, B: float, cbeta: float, a_star: float) -> CoefficientBound:
    """Uniform bound on |C_k| plus the comparison bound on beta_k.

    ours: [1/(k+1) + (e^a* - 1) e^(a* k)] e^(2 beta B (k-1)) (k+1)^k / k! C^k
    lp:   [(e^(2 beta B) + 1) C / 0.28952]^k / k

    base_* are the asymptotic geometric bases (k-th root limits).
    """
    k = _integer("order k", k, 1, DomainError)
    _positive("a*", a_star, DomainError)
    return _bound(k, beta, B, cbeta, a_star, _checked_u(beta, B, cbeta))


def _bound(k: int, beta: float, B: float, cbeta: float, a_star: float,
           u: float) -> CoefficientBound:
    """``ck_bound`` on checked arguments, with u = e^(2 beta B)."""
    try:
        # int true division: (k+1)^k / k! correctly rounded, an OverflowError
        # from k = 713 on
        comb = (k + 1) ** k / math.factorial(k)
        bracket = 1.0 / (k + 1) + math.expm1(a_star) * math.exp(a_star * k)
        ours = bracket * math.exp(2.0 * beta * B * (k - 1)) * comb * cbeta ** k
        lp = ((u + 1.0) * cbeta / LP_BOUND_DENOMINATOR) ** k / k
    except OverflowError:
        ours = lp = math.inf
    if math.isinf(ours) or math.isinf(lp):
        raise DomainError(
            f"the order-{k} coefficient bounds overflow at u = {u:g}, C(beta) = {cbeta:g}")
    base_ours = math.exp(1.0 + a_star) * u * cbeta
    base_lp = (u + 1.0) * cbeta / LP_BOUND_DENOMINATOR
    return CoefficientBound(k, ours, lp, base_ours, base_lp)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusReport:
    """All radius and bound quantities for one (beta, B, C(beta)) input."""

    beta: float
    B: float
    cbeta: float
    u: float
    F: float
    a_star: float
    g: float
    w_star: float
    k_star_closed: float
    k_star_series: float
    rho_star: float
    mayer_radius: float
    bounds: Tuple[CoefficientBound, ...]
    base_constant: float          # 1 / e^(1 + a*), from the computed maximizer
    base_constant_reference: float  # 1 / e^(1 + 0.426), the quoted arithmetic
    a_reference: float
    a_discrepancy_flagged: bool

    def to_dict(self) -> dict:
        return asdict(self)


def radius_report(beta: float, B: float, cbeta: float,
                  k_orders: Sequence[int] = tuple(range(1, 9))) -> RadiusReport:
    """Assemble the full radius report for one thermodynamic input.

    Always reports both the computed maximizer a* and the quoted reference
    value 0.426 with its arithmetic 1/e^(1+0.426) = 0.24026...; when the two
    disagree beyond 1e-3 the discrepancy flag is set (it is, at u = 1).
    """
    u = _checked_u(beta, B, cbeta)
    mradius = _fugacity_radius(beta, B, cbeta)
    F, a_star, w_star = _optimum(u)
    closed, series = 1.0 / F, _k_star_series(u)
    rstar = F / (u * cbeta)  # below mradius, since F < 1/e
    bounds = tuple(_bound(_integer("order k", k, 1, DomainError), beta, B, cbeta, a_star, u)
                   for k in k_orders)
    return RadiusReport(
        beta=beta,
        B=B,
        cbeta=cbeta,
        u=u,
        F=F,
        a_star=a_star,
        g=F,
        w_star=w_star,
        k_star_closed=closed,
        k_star_series=series,
        rho_star=rstar,
        mayer_radius=mradius,
        bounds=bounds,
        base_constant=1.0 / math.exp(1.0 + a_star),
        base_constant_reference=1.0 / math.exp(1.0 + REFERENCE_A_ZERO_COUPLING),
        a_reference=REFERENCE_A_ZERO_COUPLING,
        a_discrepancy_flagged=abs(a_star - REFERENCE_A_ZERO_COUPLING) > 1e-3,
    )
