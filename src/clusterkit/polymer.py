"""Hard-core gas of subsets of [N] with cardinality-dependent activities.

The partition function sums, over collections of pairwise disjoint subsets
of [N] of size >= 2, the product of their activities.  Its logarithm expands
over ordered subset tuples weighted by the alternating connected-subgraph
sum of their intersection graph; this module evaluates both sides exactly at
desk scale, checks the summability criterion

    sum_{m=2..N} e^(a m) |zeta_m| C(N-1, m-1) <= e^a - 1,

and computes the finite-N tree-counting factors

    P(s_1..s_n) = N^-(k+1) * sum over rooted trees on [n] and subset tuples
                  with |R_i| = s_i of [tree is a singleton-preimage tree of
                  the intersection graph],  k = sum s_i - n,

together with the finite-N density-series coefficients built from them.
P is counted by Venn-region occupancy, exactly at any N >= 1.  All
combinatorial values are exact rationals; activities may be Fractions
(exact results) or floats.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, Mapping, Sequence, Union

import numpy as np

from .errors import CapacityError, InputError
from .graphs import submask_tree_classes, ursell_table, vertex_pairs

Number = Union[int, float, Fraction]

XI_BRUTEFORCE_MAX_N = 8
URSELL_MAX_N = 8
URSELL_MAX_ORDER = 4
P_EXACT_MAX_PARTS = 3
P_EXACT_MAX_TOTAL = 8
CK_FINITE_MAX_K = 3


@dataclass(frozen=True)
class ActivityProfile:
    """Cardinality-dependent activities zeta_m, m = 2..N (sparse, may be negative)."""

    N: int
    zeta: Mapping[int, Number]

    def __post_init__(self):
        if self.N < 1:
            raise InputError("ground-set size must be >= 1")
        z = {int(m): v for m, v in dict(self.zeta).items() if v != 0}
        bad = [m for m in z if m < 2 or m > self.N]
        if bad:
            raise InputError(f"activity indices {bad} outside 2..{self.N}")
        object.__setattr__(self, "zeta", z)

    @classmethod
    def from_mayer(cls, b, N: int, rho: float) -> "ActivityProfile":
        """Activities induced by fugacity-series coefficients at density rho.

        zeta_s = rho^(s-1) * mu_s with mu_s = b_s s!/N^(s-1); equivalently
        zeta_s = b_s s!/V^(s-1) with V = N/rho.
        """
        zeta = {}
        for s, val in dict(b).items():
            if s < 2 or s > N:
                continue
            zeta[s] = rho ** (s - 1) * val * math.factorial(s) / N ** (s - 1)
        return cls(N, zeta)

    def activity(self, m: int) -> Number:
        return self.zeta.get(m, 0)

    def c_rho(self, m: int) -> float:
        """Summability weight |zeta_m| C(N-1, m-1)."""
        return abs(float(self.activity(m))) * math.comb(self.N - 1, m - 1)


# ---------------------------------------------------------------------------
# exact partition function
# ---------------------------------------------------------------------------

def xi_exact(N: int, profile: ActivityProfile, method: str = "recursion") -> Number:
    """Partition function over disjoint subset families (sizes >= 2).

    ``recursion`` conditions on the polymer containing the largest element:
    Xi_j = Xi_{j-1} + sum_m C(j-1, m-1) zeta_m Xi_{j-m}, Xi_0 = Xi_1 = 1.
    ``bruteforce`` enumerates every family explicitly (N <= 8); both agree
    exactly for exact activities.
    """
    if N < 0:
        raise InputError("N must be nonnegative")
    if method == "recursion":
        xi = [1, 1] + [0] * max(0, N - 1)
        for j in range(2, N + 1):
            acc = xi[j - 1]
            for m, z in profile.zeta.items():
                if m <= j:
                    acc = acc + math.comb(j - 1, m - 1) * z * xi[j - m]
            xi[j] = acc
        return xi[N] if N >= 1 else 1
    if method == "bruteforce":
        if N > XI_BRUTEFORCE_MAX_N:
            raise CapacityError(f"brute force capped at N={XI_BRUTEFORCE_MAX_N}")
        zeta = profile.zeta

        def rec(mask: int) -> Number:
            if mask == 0:
                return 1
            low = mask & -mask
            total = rec(mask ^ low)  # lowest element stays unpolymerized
            rest = mask ^ low
            # any subset of the remaining elements joins the lowest element
            sub = rest
            while True:
                size = bin(sub).count("1") + 1
                if size >= 2 and size in zeta:
                    total = total + zeta[size] * rec(rest ^ sub)
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            return total

        return rec((1 << N) - 1)
    raise InputError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# log-expansion by polymer count
# ---------------------------------------------------------------------------

def log_xi_ursell(N: int, profile: ActivityProfile, n_max: int) -> Dict[int, Number]:
    """Order-by-order terms of log Xi over ordered subset tuples.

    Term n is (1/n!) times the sum over ordered n-tuples of subsets (sizes
    >= 2) of the alternating connected-subgraph sum of their intersection
    graph times the activity product; tuples with disconnected intersection
    graph contribute nothing.  The brute force runs as numpy blocks: see
    ``_ursell_class_sums``.  The integer sums per size signature are then
    combined exactly; float activities are taken as their exact Fractions,
    and the term is rounded to float once.
    """
    if N > URSELL_MAX_N:
        raise CapacityError(f"log-expansion brute force capped at N={URSELL_MAX_N}")
    if n_max > URSELL_MAX_ORDER:
        raise CapacityError(f"expansion order capped at {URSELL_MAX_ORDER}")
    sizes = sorted(m for m in profile.zeta if m <= N)  # larger sizes have no subsets
    if not sizes:
        return {n: 0 for n in range(1, n_max + 1)}
    zeta = [profile.zeta[m] for m in sizes]
    inexact = any(not isinstance(z, numbers.Rational) for z in zeta)
    exact = [Fraction(z) if isinstance(z, numbers.Rational) else Fraction(float(z)) for z in zeta]
    # every subset of [N] with an activity, as a bitmask, grouped by size
    masks = [sum(1 << x for x in combo)
             for m in sizes for combo in itertools.combinations(range(N), m)]
    starts = np.cumsum([0] + [math.comb(N, m) for m in sizes[:-1]])
    meet = (np.bitwise_and.outer(masks, masks) != 0).astype(np.intp)
    terms: Dict[int, Number] = {}
    for n in range(1, n_max + 1):
        sums = _ursell_class_sums(n, meet, starts)
        by_signature: Dict[tuple, int] = {}
        for key, value in np.ndenumerate(sums):
            sig = tuple(sorted(key))
            by_signature[sig] = by_signature.get(sig, 0) + int(value)
        total: Number = 0
        for sig, count in by_signature.items():
            if count:
                prod = Fraction(count, math.factorial(n))
                for c in sig:
                    prod *= exact[c]
                total = total + prod
        terms[n] = float(total) if inexact else total
    return terms


def _ursell_class_sums(n: int, meet: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of Ursell values over ordered n-tuples of subsets, by size class.

    ``meet`` is the 0/1 subset-intersection matrix, its rows grouped by size
    class starting at ``starts``.  Entry [c_1, ..., c_n] of the result sums
    ursell_table(n)[intersection graph] over tuples whose i-th subset is in
    class c_i.  The first n-2 subsets are fixed one head at a time; the last
    two span the grid of all subset pairs, whose edge masks are looked up in
    the table and summed over class blocks.
    """
    K = len(starts)
    class_sizes = np.diff(np.append(starts, meet.shape[0]))
    if n == 1:
        return class_sizes
    table = ursell_table(n)
    bit = {pair: 1 << k for k, pair in enumerate(vertex_pairs(n))}
    cls = np.repeat(np.arange(K), class_sizes)
    last = meet * bit[(n - 1, n)]
    out = np.zeros((K,) * n, dtype=np.int64)
    for head in itertools.product(range(len(cls)), repeat=n - 2):
        emask = last + sum(bit[(a + 1, b + 1)] * int(meet[head[a], head[b]])
                           for a in range(n - 2) for b in range(a + 1, n - 2))
        for a, h in enumerate(head):
            emask = emask + (meet[h] * bit[(a + 1, n - 1)])[:, None]
            emask = emask + (meet[h] * bit[(a + 1, n)])[None, :]
        block = np.add.reduceat(np.add.reduceat(table[emask], starts, axis=0), starts, axis=1)
        out[tuple(cls[list(head)])] += block
    return out


# ---------------------------------------------------------------------------
# summability criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FPCheckResult:
    lhs: float
    rhs: float
    holds: bool


def fp_check(profile: ActivityProfile, a: float) -> FPCheckResult:
    """Evaluate sum_m e^(a m) |zeta_m| C(N-1, m-1) against e^a - 1."""
    if a <= 0:
        raise InputError("the weight parameter a must be positive")
    lhs = math.fsum(
        math.exp(a * m) * profile.c_rho(m) for m in profile.zeta
    )
    rhs = math.expm1(a)
    return FPCheckResult(lhs, rhs, lhs <= rhs)


# ---------------------------------------------------------------------------
# finite-N tree-counting factors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _penrose_count(n: int, emask: int) -> int:
    """Number of singleton-preimage trees of the graph on [n] with edge mask ``emask``."""
    _, _, preimages = submask_tree_classes(n, emask)
    return int(np.count_nonzero(preimages == 1))


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
    total = 0
    for counts, rest in _occupancies(s, shared):
        emask = reduce(int.__or__, (e for c, e in zip(counts, edges) if c), 0)
        tuples = math.perm(N, sum(counts + rest)) // math.prod(map(math.factorial, counts + rest))
        total += tuples * _penrose_count(n, emask)
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
    """Finite-N density-series coefficient from exact tree-counting factors.

    C_k(N) = sum_{n=1..k} (-1)^(n-1) (k+1)/n! *
             sum over ordered (s_1..s_n), s_i >= 2, sum s = k+n of
             prod b_{s_i} s_i!  *  P(s_1..s_n).

    Converges to the multiset-transform coefficient as N grows, with O(1/N)
    residual.  Exact when the b input is rational.
    """
    if k < 1:
        raise InputError("order must be >= 1")
    if k > CK_FINITE_MAX_K:
        raise CapacityError(f"finite-N coefficients capped at k={CK_FINITE_MAX_K}")
    bm = dict(b)
    missing = [i for i in range(2, k + 2) if i not in bm]
    if missing:
        raise InputError(f"missing fugacity coefficients: {missing}")
    total: Number = 0
    for n in range(1, k + 1):
        coeff = Fraction(k + 1, math.factorial(n))
        inner: Number = 0
        for s in _compositions(k + n, n):
            prod: Number = 1
            for si in s:
                prod = prod * bm[si] * math.factorial(si)
            inner = inner + prod * p_exact(N, s)
        term = coeff * inner if isinstance(inner, Fraction) else float(coeff) * inner
        total = total + (term if n % 2 == 1 else -term)
    return total


def _compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` integers >= 2 summing to ``total``."""
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
