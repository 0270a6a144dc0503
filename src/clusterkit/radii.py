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
the closed form or Lambert W.  ``tree_series_excess`` encloses S(x) - 1: a
head summed from a log-coefficient table, plus a tail bounded above and
below in closed form from Robbins' Stirling bounds and the integral test,
about 1e-9 wide at x = 1/e.  Term n falls like e^(-lam n) with lam =
-1 - ln x, so the head's length is chosen per x: the shortest of a few
lengths from 32 to 2047 terms past which every term is below e^-45 of
those kept.  Near x = 1/e that is the full 2047 terms.  What it leaves out
never reaches the bits of the sum, and the tail bound holds for any
length.  The largest x whose upper bound is at most c - 1 is found by
bracketed Newton steps to 1e-14 relative; the minimum over a is taken by
a 64-point bracketing scan (with a unimodality guard), starting at
a = min(1e-6, 1/u) so that the minimizer a* ~ (e - 1)/u stays inside it,
then a golden-section search.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DomainError

#: externally quoted zero-coupling maximizer, kept for comparison output; it
#: disagrees with the computed optimum (~0.4623) and is flagged, not adopted.
REFERENCE_A_ZERO_COUPLING = 0.426

#: denominator constant of the comparison bound on k * beta_k
LP_BOUND_DENOMINATOR = 0.28952

# ---------------------------------------------------------------------------
# scan plus golden section: K*'s series minimization and the verify oracle
# ---------------------------------------------------------------------------

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


def _maximize(f, grid) -> Tuple[float, float]:
    lo, hi = _grid_max(f, list(grid))
    return _golden_max(f, lo, hi)


def _log_grid(lo: float, hi: float, count: int = 64):
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + step * i) for i in range(count)]


def _a_grid(u: float):
    """Scan grid for a; a* ~ (e - 1)/u must lie above its lower end."""
    return _log_grid(min(1e-6, 1.0 / u), 20.0)


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
#: the last term of the longest head; the terms past the head are bounded
#: in closed form
_HEAD_TERMS = 2048
#: log s_n for n = 2 .. _HEAD_TERMS, s_n = n^(n-1) e^-(n-1) / n!, so that
#: term n is s_n z^(n-1) with z = e x; the term n = 1 is the 1 that S - 1 drops
_LOG_S = np.array([(n - 1) * (math.log(n) - 1.0) - math.lgamma(n + 1)
                   for n in range(2, _HEAD_TERMS + 1)])
_N_MINUS_1 = np.arange(1, _HEAD_TERMS, dtype=float)
#: head lengths in terms, the shortest first.  numpy sums an array pairwise,
#: splitting it at half its length rounded down to a multiple of 8 and
#: summing blocks of at most 128 in 8 interleaved partial sums, so the full
#: 2047-term head splits at 1016, 504, 248 and 120 terms.  The sum of each
#: shorter head here is a left part of that tree, so it keeps the full
#: head's bits whenever the terms it leaves out are below half an ulp of
#: what they are added to.  Below 120 the lengths are multiples of 32,
#: which OpenBLAS's AVX dot kernels take in whole blocks, so that the slope
#: keeps its bits there too.
_HEAD_LENGTHS = (32, 64, 96, 248, 504, 1016, _HEAD_TERMS - 1)
#: a head of m terms is used once lam m >= _HEAD_MARGIN.  Term n + d is
#: below e^(-lam d) of term n, so every term left out is below e^-45 =
#: 2.9e-20 of the one it meets in the sum, and all of them together are
#: below 23 times that share of the first term (lam >= 45/1016 wherever a
#: term is left out): far inside both half an ulp (5.5e-17 relative at
#: least) and the 1e-11 rounding allowance.  The tail bound holds for any
#: head length, but its integral-test overshoot grows like e^(lam/2)/lam:
#: a one-term head at lam = 20.5 raises hi by 1.3e-6 relative, and hi
#: would fall where a longer head takes over.  With this margin the tail
#: stays out of the bits of lo and hi.
_HEAD_MARGIN = 45.0
#: (m, log s_n, n - 1) over the first m head terms, per head length
_HEADS = tuple((m, _LOG_S[:m], _N_MINUS_1[:m]) for m in _HEAD_LENGTHS)
#: the head is widened by this share of itself on both sides: a majorant for
#: the rounding of _LOG_S (at most 3.4e-12 against 40-digit arithmetic), of
#: the exponentials and of the sum
_HEAD_ROUNDING = 1e-11
#: Robbins: s_n = _STIRLING n^(-3/2) e^(-r_n) with 1/(12n+1) < r_n < 1/(12n)
_STIRLING = math.e / math.sqrt(2.0 * math.pi)
#: relative bracket width at which the root of the upper bound is accepted
_ROOT_TOL = 1e-14


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


def tree_series_excess(x: float) -> Tuple[float, float, float]:
    """Certified enclosure lo <= S(x) - 1 <= hi of the tree-function series.

    S(x) = sum_{n>=1} n^(n-1)/n! x^(n-1) converges on 0 < x <= 1/e.  The
    enclosure covers x from the smallest normal float (below it the rounding
    allowance no longer holds) to 1/e; the float nearest 1/e, which lies just
    above it, is taken as 1/e.  Leaving out the leading 1 keeps full relative
    precision as x -> 0.

    With z = e x = e^-lam, term n is s_n z^(n-1).  Terms 2 .. m + 1 are
    summed from a log-coefficient table, m being the shortest of
    ``_HEAD_LENGTHS`` (32 ... 2047) with lam m >= 45, past which no term
    reaches the bits of the full 2047-term head's sum; x near 1/e takes
    all 2047.  Only then is the rest added: past a shorter head it is below
    e^-44 of the head, inside the rounding allowance.  Robbins' bounds on
    Stirling's remainder give
    1 - 1/(12n) <= e^(-r_n) <= 1 - 1/(12n) + 1/(96 n^2), which reduce the
    tail to sums of the convex, decreasing phi_p(t) = z^(t-1) t^-p.
    Each such sum from N+1 on lies between int_{N+1}^inf phi_p + phi_p(N+1)/2
    and int_{N+1/2}^inf phi_p, both in closed form through erfc.  No term is
    dropped unreported: the enclosure is about 1.1e-9 wide at x = 1/e, and
    2e-11 (S(x) - 1) wide (the rounding allowance) once the tail is negligible.

    Returns (lo, hi, slope); slope approximates d hi / dx by the derivatives
    of the head and of the leading tail integral, and only proposes steps.
    """
    if not sys.float_info.min <= x <= _X_MAX:
        raise DomainError(f"the tree series is enclosed for x from the smallest normal "
                          f"float to 1/e, not at x = {x!r}")
    lam = _lam(x)
    m, log_s, n_minus_1 = _head(lam)
    terms = np.exp(log_s - n_minus_1 * lam)
    head = float(terms.sum())
    lo = head * (1.0 - _HEAD_ROUNDING)
    hi = head * (1.0 + _HEAD_ROUNDING)
    slope = float(terms @ n_minus_1) / x * (1.0 + _HEAD_ROUNDING)
    # a shorter head has lam m >= 45, which puts the tail below e^-44 of the
    # head: inside the rounding allowance, and below the bits of lo and hi
    if m == _HEAD_TERMS - 1:
        tail_lo, tail_hi, tail_slope = _tail_bounds(lam, m + 1, x)
        lo += tail_lo
        hi += tail_hi
        slope += tail_slope
    return lo, hi, slope


def _lam(x: float) -> float:
    """lam = -ln z = -1 - ln x, with z = e x, for x in the series' domain."""
    if x >= 0.5 * _X_MAX:
        # ln z from x - 1/e: -1 - log(x) would leave it to log's rounding,
        # and S - 1 ~ e - 1 - e sqrt(2 lam) is steep in lam near 1/e
        return max(-math.log1p(math.e * ((x - _X_MAX) - _X_MAX_LO)), 0.0)
    return -1.0 - math.log(x)


def _head(lam: float) -> Tuple[int, np.ndarray, np.ndarray]:
    """The shortest head with lam m >= _HEAD_MARGIN, else the full head."""
    for head in _HEADS:
        if lam * head[0] >= _HEAD_MARGIN:
            return head
    return _HEADS[-1]


def _tail_bounds(lam: float, N: int, x: float) -> Tuple[float, float, float]:
    """What the terms past N add to lo, hi and the slope of the enclosure.

    l*/u* bound the sums of phi_p from below/above.
    """
    first, mid = N + 1.0, N + 0.5
    w = math.exp(-lam * N)
    l3, l5, _ = _tail_integrals(lam, first)
    u3, u5, u1 = _tail_integrals(lam, mid)
    l3 += 0.5 * w * first ** -1.5
    l5 += 0.5 * w * first ** -2.5
    u7 = math.exp(-lam * (N - 0.5)) * 0.4 * mid ** -2.5
    return (_STIRLING * (l3 - u5 / 12.0), _STIRLING * (u3 - l5 / 12.0 + u7 / 96.0),
            _STIRLING * (u1 - u3) / x)


def _largest_x(c1: float, top: float) -> float:
    """Largest x in (0, 1/e] whose upper bound on S(x) - 1 is at most c1 > 0.

    top is that bound at x = 1/e.  Below it, Newton steps on the upper bound,
    taken in s = sqrt(1 - e x), are clamped inside the bracket (else the
    bracket is bisected) and aimed a quarter of the tolerance past their own
    estimate, so that the bracket closes from both sides; the loop exits only
    when the bracket is at most 1e-14 wide, relative, and returns its left end.
    """
    if top <= c1:
        return _X_MAX
    lo, hi = 0.0, _X_MAX
    # S(x) >= 1/(1 - x), and S >= e (1 - sqrt(2) s) in s = sqrt(1 - e x),
    # where S is convex: both guesses lie at or right of the root.  For
    # c >= e the root lies within the tolerance of 1/e.
    s0 = (1.0 - (1.0 + c1) / math.e) / math.sqrt(2.0)
    x = min(c1 / (1.0 + c1), (1.0 - s0 * s0) / math.e if s0 > 0.0
            else _X_MAX * (1.0 - 0.5 * _ROOT_TOL))
    for _ in range(200):
        _, f, slope = tree_series_excess(x)
        if f <= c1:
            lo = x
        else:
            hi = x
        if hi - lo <= _ROOT_TOL * hi:
            return lo
        # the Newton step r in x, redone in s, where S stays smooth up to
        # x = 1/e: s changes by q s, so x by -r (1 + q/2); q <= -1 would step
        # past x = 1/e, and that or an out-of-bracket proposal bisects instead
        r = (f - c1) / slope
        s2 = 1.0 - math.e * x
        q = math.e * r / (2.0 * s2) if s2 > 0.0 else -math.inf
        x_new = (x - r * (1.0 + 0.5 * q) if q > -1.0 else hi) \
            - math.copysign(0.25 * _ROOT_TOL * x, f - c1)
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise DomainError(f"tree-series root at c - 1 = {c1!r} not bracketed to 1e-14 in 200 steps")


def K_star(u: float) -> Tuple[float, float]:
    """The explicit minimum e^a c / ln c over a, and its series recomputation.

    The closed form is the reciprocal of F(u).  The series check replays the
    defining condition and never uses ln c: kappa(a) = e^a / x*(c) with
    c = 1 + u(1 - e^-a) and x*(c) the largest x whose certified upper bound
    on the tree series (``tree_series_excess``) is at most c, found by
    bracketed Newton steps to 1e-14; kappa is minimized over a by a scan
    plus golden-section search, which serves only this check (and the
    oracle in ``verify``).  The upper bound errs towards a
    larger kappa, by under 1e-11 relative over u = 1 ... 1e12 (mostly the
    rounding allowance).  The two values must agree to 1e-8.
    """
    val, _ = F_of_u(u)
    closed = 1.0 / val
    _, top, _ = tree_series_excess(_X_MAX)

    def neg_kappa(a: float) -> float:
        return -math.exp(a) / _largest_x(-u * math.expm1(-a), top)

    _, neg_val = _maximize(neg_kappa, _a_grid(u))
    return closed, -neg_val


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------

def _exp_beta_B(x: float, beta: float, B: float) -> float:
    """e^x for an exponent x built from beta*B; an overflow names beta*B."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"beta*B = {beta * B:g} overflows e^(2 beta B)") from None


def rho_star(beta: float, B: float, cbeta: float) -> float:
    """Certified density radius F(e^(2 beta B)) / (e^(2 beta B) C(beta))."""
    if not cbeta > 0:
        raise DomainError("C(beta) must be positive")
    u = _exp_beta_B(2.0 * beta * B, beta, B)
    val, _ = F_of_u(u)
    return val / (u * cbeta)


def mayer_radius(beta: float, B: float, cbeta: float) -> float:
    """Fugacity-series radius 1 / (e^(2 beta B + 1) C(beta))."""
    if not cbeta > 0:
        raise DomainError("C(beta) must be positive")
    return 1.0 / (_exp_beta_B(2.0 * beta * B + 1.0, beta, B) * cbeta)


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
    if k < 1:
        raise DomainError("order must be >= 1")
    u = _exp_beta_B(2.0 * beta * B, beta, B)
    comb = Fraction((k + 1) ** k, math.factorial(k))
    try:
        bracket = 1.0 / (k + 1) + math.expm1(a_star) * math.exp(a_star * k)
        ours = bracket * math.exp(2.0 * beta * B * (k - 1)) * float(comb) * cbeta ** k
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
    u = _exp_beta_B(2.0 * beta * B, beta, B)
    mradius = mayer_radius(beta, B, cbeta)
    F, a_star, w_star = _optimum(u)
    closed, series = K_star(u)
    rstar = F / (u * cbeta)
    bounds = tuple(ck_bound(k, beta, B, cbeta, a_star) for k in k_orders)
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
