"""Hard-core gas of subsets of [N] with cardinality-dependent activities.

The partition function sums, over collections of pairwise disjoint subsets
of [N] of size >= 2, the product of their activities.  Its logarithm expands
over ordered subset tuples weighted by the alternating connected-subgraph
sum of their intersection graph.  This module evaluates the partition
function exactly by an O(N^2) recursion and checks the summability criterion

    sum_{m=2..N} e^(a m) |zeta_m| C(N-1, m-1) <= e^a - 1.

One exact kernel, ``_xi_log``, takes log Xi_N graded by polymer count, part
size or density; its coefficients are the log-expansion terms, the finite-N
tree-counting factors

    P(s_1..s_n) = N^-(k+1) * sum over rooted trees on [n] and subset tuples
                  with |R_i| = s_i of [tree is a singleton-preimage tree of
                  the intersection graph],  k = sum s_i - n,

which the Penrose identity makes signed Ursell values, and the finite-N
density-series coefficients C_k(N), these two exact at any N >= 1.  All
combinatorial values are exact rationals; activities may be Fractions
(exact results) or floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .errors import (CapacityError, DomainError, InputError, _coefficients, _exact, _integer,
                     _integral, _positive, _real)

Number = Union[int, float, Fraction]

XI_BRUTEFORCE_MAX_N = 8
URSELL_MAX_N = 64
URSELL_MAX_ORDER = 12
P_EXACT_MAX_PARTS = 3
P_EXACT_MAX_TOTAL = 8
CK_FINITE_MAX_K = 40
#: log 2^-1075 - 1: a product whose log magnitude lies below this rounds to
#: 0.0 (2^-1075 itself rounds to even, 0.0), with a margin of 1 for the
#: rounding of the logs
_LOG_ZERO = -1075 * math.log(2) - 1


def _log_ratio(a: int, d: int) -> float:
    """log|a/d| of ints of any size, -inf at a = 0 (``math.log`` reads a
    large int by its bit length)."""
    return math.log(abs(a)) - math.log(d) if a else -math.inf


@dataclass(frozen=True)
class ActivityProfile:
    """Cardinality-dependent activities zeta_m, m = 2..N (sparse, may be negative;
    a zero is dropped wherever it sits)."""

    N: int
    zeta: Mapping[int, Number]

    def __post_init__(self):
        N, zeta = _integer("ground-set size N", self.N, 1, InputError), dict(self.zeta)
        bad = [m for m, v in zeta.items() if v != 0 and not (_integral(m) and 2 <= m <= N)]
        if bad:
            raise InputError(f"activities {bad} need integer indices in 2..{N}")
        for m, v in zeta.items():
            _real(f"activity zeta_{m}", v, InputError)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "zeta", {int(m): v if (q := _exact(v)) is None else q
                                          for m, v in zeta.items() if v != 0})

    @classmethod
    def from_mayer(cls, b, N: int, rho: float) -> "ActivityProfile":
        """Activities induced by fugacity-series coefficients at density rho.

        zeta_s = rho^(s-1) * mu_s with mu_s = b_s s!/N^(s-1); equivalently
        zeta_s = b_s s!/V^(s-1) with V = N/rho.  Where those float steps
        overflow (N^(s-1) passes the float range for every N >= 144), the
        activity is the exact product of rho, b_s, s! and N^-(s-1), rounded
        once by one int true division of the numerators' product by the
        denominators'; an activity that is itself past the float range is
        refused by rho.  That product is skipped where the activity rounds
        to 0.0, which the profile drops anyway: where log|zeta_s| =
        (s-1)(log|rho| - log N) + log|b_s| + lgamma(s+1), from the exact
        numerators and denominators, lies below ``_LOG_ZERO``.  So the
        profile keeps every key and bit; for hard rods at N = 3000 and
        rho = 0.1, where 138 of the 2,999 activities are nonzero, the call
        takes 0.014 s instead of 8 s (a shared 2-core x86 machine).  A b_s
        that is not a finite real is refused by name, and so is an N that
        is not an integer >= 1.
        """
        N = _integer("ground-set size N", N, 1, InputError)
        _real("density rho", rho, InputError)
        p, q = Fraction(rho).as_integer_ratio()
        log_rho_n = _log_ratio(p, q) - math.log(N)
        zeta = {}
        for s, val in dict(b).items():
            if s < 2 or s > N:
                continue
            _real(f"fugacity coefficient b_{s}", val, InputError)
            try:
                z = rho ** (s - 1) * val
                # 170! is the last factorial in the float range: a float
                # times s! overflows past it, to the exact product
                z = math.inf if isinstance(z, float) and s > 170 else (
                    z * math.factorial(s) / N ** (s - 1))
            except OverflowError:
                z = math.inf
            if isinstance(z, float) and math.isinf(z):
                a, d = Fraction(val).as_integer_ratio()
                if (s - 1) * log_rho_n + _log_ratio(a, d) + math.lgamma(s + 1) < _LOG_ZERO:
                    continue
                try:
                    z = p ** (s - 1) * a * math.factorial(s) / (q ** (s - 1) * d * N ** (s - 1))
                except OverflowError:
                    raise InputError(f"density rho={rho!r} overflows the float activity "
                                     f"zeta_{s} at N={N}") from None
            zeta[s] = z
        return cls(N, zeta)

    def c_rho(self, m: int) -> float:
        """Summability weight |zeta_m| C(N-1, m-1)."""
        return abs(float(self.zeta.get(m, 0))) * math.comb(self.N - 1, m - 1)


# ---------------------------------------------------------------------------
# exact partition function
# ---------------------------------------------------------------------------

def xi_exact(N: int, profile: ActivityProfile, method: str = "recursion") -> Number:
    """Partition function over disjoint subset families (sizes >= 2).

    Both methods run on R_S = Xi_S D^|S| with scaled activities
    c_m = zeta_m D^m, where D is the common denominator of the activities
    that fit in [N] when all of them are exact (``errors._exact``): then every R is
    a Python int, no sum is normalized on the way, and Xi_N = R_N / D^N is
    one division at the end (a Fraction if some activity is one, an int if
    all are).  Any other profile (a float anywhere, or another number type)
    runs the same loops with D = 1 and c_m = zeta_m; a factor D = 1 leaves
    every value as it is, so the float bits are those of the unscaled
    recursions.

    ``recursion`` conditions on the polymer containing the largest element:
    R_j = D R_{j-1} + sum_m C(j-1, m-1) c_m R_{j-m}, R_0 = 1, R_1 = D, with
    the binomials of each j one Pascal row, cut at the largest m.
    ``bruteforce`` (N <= XI_BRUTEFORCE_MAX_N) works on the subsets of [N]:
    R of a subset S is D R(S - low) plus, over the nonempty U in S - low,
    c_(|U|+1) R(S - low - U): the lowest element alone or in a polymer with
    U.  Each subset is solved once per call and kept in a memo local to it.
    The subsets reached are [N] and those of {2..N}, so the cost is about
    3^(N-1)/2 terms; each subset's terms are summed in one fixed order, so
    float activities give the same bits as the unmemoized walk.  The brute
    force is the recursion's oracle: the two agree exactly for exact
    activities.  An inexact Xi that is not finite (its float steps
    overflowed) raises DomainError; exact activities give its value.
    """
    N = _integer("ground-set size N", N, 0, InputError)
    if method not in ("recursion", "bruteforce"):
        raise InputError(f"unknown method {method!r}")
    if method == "bruteforce" and N > XI_BRUTEFORCE_MAX_N:
        raise CapacityError(f"brute force capped at N={XI_BRUTEFORCE_MAX_N}")
    zeta = {m: z for m, z in profile.zeta.items() if m <= N}  # larger sizes have no subsets
    exact = all(_exact(z) is not None for z in zeta.values())
    D = math.lcm(*(z.denominator for z in zeta.values())) if exact else 1
    c = {m: z.numerator * (D // z.denominator) * D ** (m - 1)
         for m, z in zeta.items()} if exact else zeta
    if method == "recursion":
        R = [1, D] + [0] * max(0, N - 1)
        top = max(c, default=1) - 1  # the largest binomial index read
        row = [1]  # C(j-1, k) for k = 0..min(j-1, top)
        for j in range(2, N + 1):
            row = [1] + [x + y for x, y in zip(row, row[1:])] + ([1] if len(row) <= top else [])
            acc = D * R[j - 1]
            for m, cm in c.items():
                if m <= j:
                    acc = acc + row[m - 1] * cm * R[j - m]
            R[j] = acc
        x = R[N]
    else:
        by_size = [c.get(size) for size in range(N + 1)]
        memo: Dict[int, Number] = {0: 1}

        def rec(mask: int) -> Number:
            if mask in memo:
                return memo[mask]
            rest = mask & (mask - 1)  # the lowest element left out
            total = D * rec(rest)  # lowest element stays unpolymerized
            # any subset of the remaining elements joins the lowest element
            sub = rest
            while sub:
                cm = by_size[sub.bit_count() + 1]
                if cm is not None:
                    total = total + cm * rec(rest ^ sub)
                sub = (sub - 1) & rest
            memo[mask] = total
            return total

        x = rec((1 << N) - 1)
    if exact and any(isinstance(z, Fraction) for z in zeta.values()):
        return Fraction(x, D ** N)
    if not exact and not math.isfinite(x):
        raise DomainError(f"Xi_{N} is {x!r} in floating point; exact (int or Fraction) "
                          "activities give its value")
    return x


# ---------------------------------------------------------------------------
# log Xi_N, graded: the log-expansion terms, P(s) and C_k(N) are its coefficients
# ---------------------------------------------------------------------------

def _xi_log(N: int, act: Mapping[int, Tuple[int, int, int]], cap: Sequence[int]) -> List[int]:
    """|e|! [x^e] log Xi_N for every grade vector e <= cap, in integers.

    A polymer of size m weighs a_m x_i^g, (a_m, i, g) = act[m] with a_m an
    int and g >= 1.  f_e[j] sums the families that cover exactly [j] with
    grade vector e; by the polymer holding j, f_e[j] = sum_m C(j-1, m-1) a_m
    f_(e - g u_i)[j-m], and [x^e] Xi_N = sum_j C(N, j) f_e[j], so N enters
    only through C(N, j), j up to the most elements grades <= cap cover.
    With y_e = |e|! [x^e] Xi_N the log is F' = F (log F)' in |e|:
    l_e = y_e - sum_(0 < e' < e) C(|e|-1, |e'|-1) l_e' y_(e-e').  l_e sits
    at index sum_i e_i prod_(i' < i) (cap_i' + 1): e = cap is the last
    entry, and one variable's l_n is entry n.
    """
    strides = [math.prod(c + 1 for c in cap[:i]) for i in range(len(cap))]
    size = math.prod(c + 1 for c in cap)
    digits = [[e // st % (c + 1) for st, c in zip(strides, cap)] for e in range(size)]
    moves = {m: (a, [(e, e - g * strides[i]) for e in range(size) if digits[e][i] >= g])
             for m, (a, i, g) in act.items()}
    top = min(N, sum(max([c * m // g for m, (_, v, g) in act.items() if v == i], default=0)
                     for i, c in enumerate(cap)))
    f = [[1] + [0] * (size - 1)]
    xi = list(f[0])
    for j in range(1, top + 1):
        row = [0] * size
        for m, (a, pairs) in moves.items():
            if m <= j:
                w, src = math.comb(j - 1, m - 1) * a, f[j - m]
                for e, e0 in pairs:
                    row[e] += w * src[e0]
        f.append(row)
        cj = math.comb(N, j)
        xi = [x + cj * r for x, r in zip(xi, row)]
    degree = [sum(d) for d in digits]
    y = [math.factorial(n) * x for n, x in zip(degree, xi)]
    log = [0] * size
    for e in range(1, size):
        log[e] = y[e] - sum(math.comb(degree[e] - 1, degree[p] - 1) * log[p] * y[e - p]
                            for p in range(1, e)
                            if all(a <= b for a, b in zip(digits[p], digits[e])))
    return log


def log_xi_ursell(N: int, profile: ActivityProfile, n_max: int) -> Dict[int, Number]:
    """Order-by-order terms of log Xi, n = 1..n_max.

    Term n is (1/n!) times the sum over ordered n-tuples of subsets (sizes
    >= 2) of the alternating connected-subgraph sum of their intersection
    graph times the activity product.  It is homogeneous of degree n in the
    activities, so it is [t^n] log Xi(t) with zeta -> t zeta: ``_xi_log``
    with one variable t, grade 1 per polymer.  Scaling the activities by
    their common denominator D keeps the kernel in integers; term n is
    divided by n! D^n.  Float activities are taken as their exact
    Fractions, and each term is rounded to float once.
    """
    n_max = _integer("expansion order", n_max, 1, InputError)
    N = _integer("ground-set size N", N, 0, InputError)
    if N > URSELL_MAX_N:
        raise CapacityError(f"log-expansion capped at N={URSELL_MAX_N}")
    if n_max > URSELL_MAX_ORDER:
        raise CapacityError(f"expansion order capped at {URSELL_MAX_ORDER}")
    zeta = {m: z for m, z in profile.zeta.items() if m <= N}  # larger sizes have no subsets
    if not zeta:
        return {n: 0 for n in range(1, n_max + 1)}
    inexact = any(_exact(z) is None for z in zeta.values())
    exact = {m: Fraction(float(z) if _exact(z) is None else z) for m, z in zeta.items()}
    D = math.lcm(*(z.denominator for z in exact.values()))
    log = _xi_log(N, {m: (z.numerator * (D // z.denominator), 0, 1) for m, z in exact.items()},
                  (n_max,))
    terms: Dict[int, Number] = {}
    for k in range(1, n_max + 1):
        term = Fraction(log[k], math.factorial(k) * D ** k)
        try:
            terms[k] = float(term) if inexact else term
        except OverflowError:
            raise DomainError(f"log-expansion term of order {k} overflows a float") from None
    return terms


# ---------------------------------------------------------------------------
# summability criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FPCheckResult:
    lhs: float
    rhs: float
    holds: bool


def fp_check(profile: ActivityProfile, a: float) -> FPCheckResult:
    """Evaluate sum_m e^(a m) |zeta_m| C(N-1, m-1) against e^a - 1.

    An a whose e^(a m) overflows is refused by a; a term, or their sum,
    that passes the float range is refused by its activity zeta_m and N.
    """
    _positive("the weight parameter a", a, InputError)
    try:
        weights = [math.exp(a * m) for m in profile.zeta]
    except OverflowError:
        raise InputError(f"the weight parameter a={a!r} overflows e^(a m) at "
                         f"m={max(profile.zeta)}") from None
    terms = []
    for w, m in zip(weights, profile.zeta):
        try:
            term = w * profile.c_rho(m)
        except OverflowError:
            term = math.inf
        if math.isinf(term):
            raise InputError(f"the summability term of zeta_{m} passes the float range "
                             f"at N={profile.N}")
        terms.append(term)
    try:
        lhs = math.fsum(terms)
    except OverflowError:
        raise InputError(f"the summability sum over zeta_m passes the float range "
                         f"at N={profile.N}") from None
    rhs = math.expm1(a)
    return FPCheckResult(lhs, rhs, lhs <= rhs)


# ---------------------------------------------------------------------------
# finite-N tree-counting factors and density-series coefficients
# ---------------------------------------------------------------------------

def p_exact(N: int, s: Sequence[int]) -> Fraction:
    """Exact tree-counting factor P(s_1..s_n) at ground-set size N.

    Averages, over rooted trees on [n] and ordered subset tuples of the
    prescribed sizes, the indicator that the tree survives as a
    singleton-preimage tree of the intersection graph; normalized by
    N^(k+1) with k = sum(s) - n.  Exact rational.

    By the Penrose identity a connected intersection graph has |its Ursell
    value| singleton trees, and that value has the sign (-1)^(n-1); a
    disconnected one has neither.  Summed over the tuples, the values are a
    coefficient of log Xi_N with one activity zeta_m per distinct part size
    m, held c_m times, read off ``_xi_log`` at unit weights:

        P(s) = (-1)^(n-1) prod_m c_m! N^-(k+1) [prod_m zeta_m^(c_m)] log Xi_N.

    The cost does not grow with N, and a part above N gives 0.
    """
    N = _integer("ground-set size N", N, 1, InputError)
    s = tuple(_integer("every part", x, 2, InputError) for x in s)
    n = _integer("the number of parts", len(s), 1, InputError)
    if n > P_EXACT_MAX_PARTS or sum(s) > P_EXACT_MAX_TOTAL:
        raise CapacityError(f"exact enumeration capped at n<={P_EXACT_MAX_PARTS}, "
                            f"sum(s)<={P_EXACT_MAX_TOTAL}")
    c = Counter(s)
    log = _xi_log(N, {m: (1, i, 1) for i, m in enumerate(c)}, tuple(c.values()))
    sign = (-1) ** (n - 1) * math.prod(map(math.factorial, c.values()))
    return Fraction(sign * log[-1], math.factorial(n) * N ** (sum(s) - n + 1))


def p_limit(s: Sequence[int]) -> Fraction:
    """Large-N limit of the tree-counting factor.

    (n-2)! C(k-1+n, n-2) / prod (s_i - 1)! for n >= 2 (k = sum s - n); the
    single-part case is 1/s!.
    """
    s = tuple(_integer("every part", x, 2, InputError) for x in s)
    n = _integer("the number of parts", len(s), 1, InputError)
    if n == 1:
        return Fraction(1, math.factorial(s[0]))
    k = sum(s) - n
    num = math.factorial(n - 2) * math.comb(k - 1 + n, n - 2)
    return Fraction(num, math.prod(math.factorial(x - 1) for x in s))


def ck_finite_N(N: int, b, k: int) -> Number:
    """Finite-N density-series coefficient C_k(N) = (k+1)/N [rho^k] log Xi_N(rho).

    At the activities of ``from_mayer``, zeta_s = t^(s-1) s! b_s with t =
    rho/N, so C_k(N) is (k+1) N^-(k+1) [t^k] log Xi_N: ``_xi_log`` with one
    variable t and, per polymer of size s, grade s-1 and weight s! b_s (b
    scaled by their common denominator D, t -> D t, to run in integers).
    Degree <= k covers at most 2k elements, so N enters only through
    C(N, j), j <= 2k: the cost does not grow with N, and C_k(N) is a
    polynomial of degree <= k in 1/N whose value at 1/N = 0 is beta_k.
    Exact b (``errors._exact``) give a Fraction; float b are taken exactly and
    rounded once at the end.
    """
    k = _integer("order k", k, 1, InputError)
    if k > CK_FINITE_MAX_K:
        raise CapacityError(f"finite-N coefficients capped at k={CK_FINITE_MAX_K}")
    bm = _coefficients(b, 2, k + 1)
    N = _integer("ground-set size N", N, 1, InputError)
    exact = {s: Fraction(bm[s]) for s in range(2, k + 2)}
    D = math.lcm(*(q.denominator for q in exact.values()))
    act = {s: (math.factorial(s) * q.numerator * (D // q.denominator) * D ** (s - 2), 0, s - 1)
           for s, q in exact.items() if q}
    value = Fraction((k + 1) * _xi_log(N, act, (k,))[k],
                     math.factorial(k) * D ** k * N ** (k + 1))
    rational = all(_exact(bm[s]) is not None for s in range(2, k + 2))
    try:
        return value if rational else float(value)
    except OverflowError:
        raise DomainError(f"C_{k}({N}) overflows a float") from None
