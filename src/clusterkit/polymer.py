"""Hard-core gas of subsets of [N] with cardinality-dependent activities.

The partition function sums, over collections of pairwise disjoint subsets
of [N] of size >= 2, the product of their activities.  Its logarithm expands
over ordered subset tuples weighted by the alternating connected-subgraph
sum of their intersection graph.  This module evaluates the partition
function exactly by an O(N^2) recursion, takes the log-expansion term by
term as a formal log of that recursion, checks the summability criterion

    sum_{m=2..N} e^(a m) |zeta_m| C(N-1, m-1) <= e^a - 1,

and computes the finite-N tree-counting factors

    P(s_1..s_n) = N^-(k+1) * sum over rooted trees on [n] and subset tuples
                  with |R_i| = s_i of [tree is a singleton-preimage tree of
                  the intersection graph],  k = sum s_i - n,

counted by Venn-region occupancy, exactly at any N >= 1, and the finite-N
density-series coefficients C_k(N) from one closed form in N.  All
combinatorial values are exact rationals; activities may be Fractions
(exact results) or floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Mapping, Sequence, Union

from .errors import CapacityError, DomainError, InputError
from .graphs import ursell_values, vertex_pairs

Number = Union[int, float, Fraction]

XI_BRUTEFORCE_MAX_N = 8
URSELL_MAX_N = 64
URSELL_MAX_ORDER = 12
P_EXACT_MAX_PARTS = 3
P_EXACT_MAX_TOTAL = 8
CK_FINITE_MAX_K = 40


def _integral(x) -> bool:
    """True for an int or an integral float, not for a bool."""
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite_real(x) -> bool:
    """True for an int, a Fraction or a finite float, not for a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return isinstance(x, numbers.Rational) or math.isfinite(x)


@dataclass(frozen=True)
class ActivityProfile:
    """Cardinality-dependent activities zeta_m, m = 2..N (sparse, may be negative;
    a zero is dropped wherever it sits)."""

    N: int
    zeta: Mapping[int, Number]

    def __post_init__(self):
        N, zeta = self.N, dict(self.zeta)
        if not (_integral(N) and N >= 1):
            raise InputError(f"ground-set size N must be an integer >= 1, got {N!r}")
        bad = {m: v for m, v in zeta.items()
               if not _finite_real(v) or v != 0 and not (_integral(m) and 2 <= m <= N)}
        if bad:
            raise InputError(f"activities {bad} need integer indices in 2..{N} "
                             "and finite real values")
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "zeta", {int(m): v for m, v in zeta.items() if v != 0})

    @classmethod
    def from_mayer(cls, b, N: int, rho: float) -> "ActivityProfile":
        """Activities induced by fugacity-series coefficients at density rho.

        zeta_s = rho^(s-1) * mu_s with mu_s = b_s s!/N^(s-1); equivalently
        zeta_s = b_s s!/V^(s-1) with V = N/rho.  Where those float steps
        overflow (N^(s-1) passes the float range for every N >= 144), the
        activity is the exact product of rho, b_s, s! and N^-(s-1), rounded
        once by one int true division of the numerators' product by the
        denominators'; an activity that is itself past the float range is
        refused by rho.  A b_s that is not a finite real is refused by name.
        """
        if not _finite_real(rho):
            raise InputError(f"density rho must be a finite real, got {rho!r}")
        p, q = Fraction(rho).as_integer_ratio()
        zeta = {}
        for s, val in dict(b).items():
            if s < 2 or s > N:
                continue
            if not _finite_real(val):
                raise InputError(f"fugacity coefficient b_{s} must be a finite real, got {val!r}")
            try:
                z = rho ** (s - 1) * val * math.factorial(s) / N ** (s - 1)
            except OverflowError:
                z = math.inf
            if isinstance(z, float) and math.isinf(z):
                try:
                    a, d = Fraction(val).as_integer_ratio()
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
    that fit in [N] when all of them are ints or Fractions: then every R is
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
    if N < 0:
        raise InputError("N must be nonnegative")
    if method not in ("recursion", "bruteforce"):
        raise InputError(f"unknown method {method!r}")
    if method == "bruteforce" and N > XI_BRUTEFORCE_MAX_N:
        raise CapacityError(f"brute force capped at N={XI_BRUTEFORCE_MAX_N}")
    zeta = {m: z for m, z in profile.zeta.items() if m <= N}  # larger sizes have no subsets
    exact = all(isinstance(z, (int, Fraction)) for z in zeta.values())
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
# log-expansion by polymer count
# ---------------------------------------------------------------------------

def log_xi_ursell(N: int, profile: ActivityProfile, n_max: int) -> Dict[int, Number]:
    """Order-by-order terms of log Xi, n = 1..n_max.

    Term n is (1/n!) times the sum over ordered n-tuples of subsets (sizes
    >= 2) of the alternating connected-subgraph sum of their intersection
    graph times the activity product.  It is homogeneous of degree n in the
    activities, so it is [t^n] log Xi(t) with zeta -> t zeta: the ``xi_exact``
    recursion runs on coefficient lists in t cut at degree n_max, and a
    formal log of Xi_N gives the terms.  Scaling the activities by the
    common denominator D keeps the recursion in integers; term n is divided
    by D^n.  Float activities are taken as their exact Fractions, and each
    term is rounded to float once.
    """
    if n_max < 1:
        raise InputError("expansion order must be >= 1")
    if N > URSELL_MAX_N:
        raise CapacityError(f"log-expansion capped at N={URSELL_MAX_N}")
    if n_max > URSELL_MAX_ORDER:
        raise CapacityError(f"expansion order capped at {URSELL_MAX_ORDER}")
    zeta = {m: z for m, z in profile.zeta.items() if m <= N}  # larger sizes have no subsets
    if not zeta:
        return {n: 0 for n in range(1, n_max + 1)}
    inexact = any(not isinstance(z, numbers.Rational) for z in zeta.values())
    exact = {m: Fraction(z) if isinstance(z, numbers.Rational) else Fraction(float(z))
             for m, z in zeta.items()}
    D = math.lcm(*(z.denominator for z in exact.values()))
    scaled = {m: z.numerator * (D // z.denominator) for m, z in exact.items()}
    xi = [[1] + [0] * n_max] * 2  # Xi_0 = Xi_1 = 1; rows are never mutated
    for j in range(2, N + 1):
        row = list(xi[j - 1])
        for m, a in scaled.items():
            if m <= j:
                w = math.comb(j - 1, m - 1) * a
                for k, c in enumerate(xi[j - m][:n_max], 1):  # one factor t per activity
                    row[k] += w * c
        xi.append(row)
    log = _log_egf([math.factorial(k) * c for k, c in enumerate(xi[N])])
    terms: Dict[int, Number] = {}
    for k in range(1, n_max + 1):
        term = Fraction(log[k], math.factorial(k) * D ** k)
        try:
            terms[k] = float(term) if inexact else term
        except OverflowError:
            raise DomainError(f"log-expansion term of order {k} overflows a float") from None
    return terms


def _log_egf(y: Sequence[int]) -> List[int]:
    """l with sum l_n u^n/n! = log sum y_n u^n/n! (y_0 = 1), in integers: F' = F (log F)'."""
    log = [0] * len(y)
    for n in range(1, len(y)):
        log[n] = y[n] - sum(math.comb(n - 1, j - 1) * log[j] * y[n - j] for j in range(1, n))
    return log


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
    if not 0 < a < math.inf:
        raise InputError(f"the weight parameter a must be positive and finite, got {a!r}")
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
# finite-N tree-counting factors
# ---------------------------------------------------------------------------

def _occupancies(rem: Sequence[int], regions: Sequence[int]):
    """Ways to spread rem[i] elements of each part i over the Venn regions.

    Yields (counts, rest): counts[j] elements lie in exactly the parts of
    regions[j], a bitmask over the parts, and rest[i] in part i alone.
    """
    if not regions:
        yield (), tuple(rem)
        return
    R = regions[0]
    for c in range(min(r for i, r in enumerate(rem) if R >> i & 1) + 1):
        left = [r - c if R >> i & 1 else r for i, r in enumerate(rem)]
        for counts, rest in _occupancies(left, regions[1:]):
            yield (c,) + counts, rest


def p_exact(N: int, s: Sequence[int]) -> Fraction:
    """Exact tree-counting factor P(s_1..s_n) at ground-set size N.

    Averages, over rooted trees on [n] and ordered subset tuples of the
    prescribed sizes, the indicator that the tree survives as a
    singleton-preimage tree of the intersection graph; normalized by
    N^(k+1) with k = sum(s) - n.  Exact rational.

    The intersection graph depends only on which Venn regions of the tuple
    hold elements, and c_R elements in exactly the subsets of each region R
    arise from perm(N, sum c) / prod c_R! tuples.  So the tuples are counted
    by occupancy, at a cost that does not grow with N; a part above N gives 0.
    The counts are summed per intersection graph, whose singleton trees
    number the size of its Ursell value (the Penrose identity), taken for
    all the graphs by one ``ursell_values`` call.
    """
    s = tuple(int(x) for x in s)
    n = len(s)
    if N < 1:
        raise InputError("ground-set size must be >= 1")
    if n < 1:
        raise InputError("need at least one part")
    if any(x < 2 for x in s):
        raise InputError("every part must be >= 2")
    if n > P_EXACT_MAX_PARTS or sum(s) > P_EXACT_MAX_TOTAL:
        raise CapacityError(
            f"exact enumeration capped at n<={P_EXACT_MAX_PARTS}, sum(s)<={P_EXACT_MAX_TOTAL}"
        )
    pairs = vertex_pairs(n)
    shared = [R for R in range(1, 1 << n) if R & (R - 1)]  # regions of >= 2 parts
    edges = [sum(1 << idx for idx, (a, b) in enumerate(pairs)
                 if R >> (a - 1) & 1 and R >> (b - 1) & 1) for R in shared]
    tuples: Dict[int, int] = {}
    for counts, rest in _occupancies(s, shared):
        emask = reduce(int.__or__, (e for c, e in zip(counts, edges) if c), 0)
        tuples[emask] = tuples.get(emask, 0) + (
            math.perm(N, sum(counts + rest)) // math.prod(map(math.factorial, counts + rest)))
    values = ursell_values(n, list(tuples)).tolist()
    total = sum(t * abs(v) for t, v in zip(tuples.values(), values))
    return Fraction(total, N ** (sum(s) - n + 1))


def p_limit(s: Sequence[int]) -> Fraction:
    """Large-N limit of the tree-counting factor.

    (n-2)! C(k-1+n, n-2) / prod (s_i - 1)! for n >= 2 (k = sum s - n); the
    single-part case is 1/s!.
    """
    s = tuple(int(x) for x in s)
    n = len(s)
    if n < 1 or any(x < 2 for x in s):
        raise InputError("parts must all be >= 2")
    if n == 1:
        return Fraction(1, math.factorial(s[0]))
    k = sum(s) - n
    num = math.factorial(n - 2) * math.comb(k - 1 + n, n - 2)
    den = 1
    for x in s:
        den *= math.factorial(x - 1)
    return Fraction(num, den)


def ck_finite_N(N: int, b, k: int) -> Number:
    """Finite-N density-series coefficient C_k(N) = (k+1)/N [rho^k] log Xi_N(rho).

    At the activities of ``from_mayer`` and t = rho/N, Xi_N = N! [x^N]
    exp(x + x B(t x)) with B(u) = sum_{i>=1} b_(i+1) u^i, so Xi_N = sum_d t^d
    sum_{m<=d} perm(N, d+m) [u^d] B(u)^m/m!.  N enters only through perm(N, j),
    j <= 2k: the cost does not grow with N, and C_k(N) is a polynomial of
    degree <= k in 1/N whose value at 1/N = 0 is beta_k.  Rational b give an
    exact Fraction; float b are taken exactly and rounded once at the end.
    """
    if k < 1:
        raise InputError("order must be >= 1")
    if k > CK_FINITE_MAX_K:
        raise CapacityError(f"finite-N coefficients capped at k={CK_FINITE_MAX_K}")
    bm = dict(b)
    missing = [i for i in range(2, k + 2) if i not in bm]
    if missing:
        raise InputError(f"missing fugacity coefficients: {missing}")
    for s in range(2, k + 2):
        if not _finite_real(bm[s]):
            raise InputError(f"fugacity coefficient b_{s} must be a finite real, got {bm[s]!r}")
    if N < 1:
        raise InputError("ground-set size must be >= 1")
    exact = [Fraction(bm[s]) for s in range(2, k + 2)]
    D = math.lcm(*(q.denominator for q in exact))
    # A(u) = B(D u) and y_d = d! D^d [t^d] Xi_N, both in integers (m <= d)
    A = [0] + [q.numerator * (D // q.denominator) * D ** i for i, q in enumerate(exact)]
    Am, y = [1] + [0] * k, [1] + [0] * k
    for m in range(1, k + 1):
        Am = [sum(Am[j] * A[d - j] for j in range(m - 1, d)) for d in range(k + 1)]  # A^m
        for d in range(m, k + 1):
            y[d] += math.perm(N, d + m) * math.perm(d, d - m) * Am[d]
    value = Fraction((k + 1) * _log_egf(y)[k], math.factorial(k) * D ** k * N ** (k + 1))
    rational = all(isinstance(bm[s], numbers.Rational) for s in range(2, k + 2))
    try:
        return value if rational else float(value)
    except OverflowError:
        raise DomainError(f"C_{k}({N}) overflows a float") from None
