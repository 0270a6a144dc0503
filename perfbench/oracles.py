"""Reference values computed apart from clusterkit.

Nothing here imports clusterkit.  Each oracle follows a different route from
the program's:

* the one-dimensional nearest-neighbour gas (square well with lambda_w < 2,
  and hard rods as its epsilon = 0 case) through the isobaric ensemble:
  Lagrange inversion of p = z g(p) for the Mayer b_n, and of
  1/rho = 1/p - g'(p)/g(p) for the virial coefficients;
* the same gas in a box of side L through an exact sum over Heaviside
  convolutions;
* hard rods in a box through the rational grand partition function;
* hard spheres in d = 3 through the literature B_2, B_3, B_4;
* the abstract polymer gas through exponential generating functions;
* graph counts and Ursell values by brute force over edge subsets;
* the radius function F(u) through the stationarity condition of the g form.

Series are lists of coefficients; they work over Fraction or float.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


def series_mul(a: Sequence, b: Sequence, order: int) -> List:
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_pow(a: Sequence, m: int, order: int) -> List:
    out = [1] + [0] * order
    for _ in range(m):
        out = series_mul(out, a, order)
    return out


def series_exp(a: Sequence, order: int) -> List:
    """exp of a series with zero constant term: n e_n = sum_k k a_k e_(n-k)."""
    if a[0] != 0:
        raise ValueError("series_exp needs a zero constant term")
    a = list(a) + [0] * (order + 1 - len(a))
    e = [1] + [0] * order
    for n in range(1, order + 1):
        e[n] = sum(k * a[k] * e[n - k] for k in range(1, n + 1)) / n
    return e


def series_log(a: Sequence, order: int) -> List:
    """log of a series with constant term 1: a l' = a'."""
    if a[0] != 1:
        raise ValueError("series_log needs a unit constant term")
    a = list(a) + [0] * (order + 1 - len(a))
    out = [0] * (order + 1)
    for n in range(1, order + 1):
        acc = n * a[n] - sum(k * out[k] * a[n - k] for k in range(1, n))
        out[n] = acc / n
    return out


def series_inv(a: Sequence, order: int) -> List:
    """1/a for a series with constant term 1."""
    a = list(a) + [0] * (order + 1 - len(a))
    out = [1] + [0] * order
    for n in range(1, order + 1):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1))
    return out


def _exp_linear(c, order: int) -> List:
    """Coefficients of e^(c t)."""
    return [c ** k / math.factorial(k) for k in range(order + 1)]


# ---------------------------------------------------------------------------
# one-dimensional nearest-neighbour gas (square well, lambda_w < 2)
# ---------------------------------------------------------------------------


def _nn_steps(w, sigma, lam) -> List[Tuple[object, object]]:
    """The gap Boltzmann factor as a sum of steps c * H(t - a).

    h(t) = 0 below sigma, w on (sigma, lam sigma), 1 beyond.
    """
    if lam >= 2:
        raise ValueError("nearest-neighbour reduction needs lambda_w < 2")
    return [(w, sigma), (1 - w, lam * sigma)]


def nn_gap_series(w, sigma, lam, order: int) -> List:
    """g(t) = w (e^(-sigma t) - e^(-lam sigma t)) + e^(-lam sigma t)."""
    g = [0] * (order + 1)
    for c, a in _nn_steps(w, sigma, lam):
        for k, ek in enumerate(_exp_linear(-a, order)):
            g[k] += c * ek
    return g


def nn_mayer_b(w, sigma, lam, n_max: int) -> Dict[int, object]:
    """b_n = [t^(n-1)] g(t)^n / n: Lagrange inversion of p = z g(p)."""
    g = nn_gap_series(w, sigma, lam, n_max)
    return {n: series_pow(g, n, n - 1)[n - 1] / n for n in range(1, n_max + 1)}


def nn_virial_beta(w, sigma, lam, k_max: int) -> Dict[int, object]:
    """Mayer's beta_k from the isobaric relation 1/rho = 1/p - g'(p)/g(p).

    rho(p) = p / D(p) with D = 1 - p g'/g, so by Lagrange inversion the
    pressure coefficient B_n = [p^(n-1)] D^n / n, and beta_k = -(k+1)/k B_(k+1).
    """
    order = k_max + 1
    g = nn_gap_series(w, sigma, lam, order)
    dg = [(k + 1) * g[k + 1] for k in range(order)] + [0]
    ratio = series_mul(dg, series_inv(g, order), order)
    D = [1] + [-ratio[k - 1] for k in range(1, order + 1)]
    out = {}
    for k in range(1, k_max + 1):
        n = k + 1
        B_n = series_pow(D, n, n - 1)[n - 1] / n
        out[k] = -(k + 1) * B_n / k
    return out


def nn_ztilde_box(w, sigma, lam, L, N: int):
    """(1/L^N) times the configurational integral of N particles in [0, L].

    Ordering the particles gives N!/L^N times the integral over N - 1 gaps
    of prod h(t_i) (L - sum t)_+; expanding h into steps, each choice of
    steps a_1..a_(N-1) integrates to (L - sum a)_+^N / N!.
    """
    if N == 1:
        return 1
    steps = _nn_steps(w, sigma, lam)
    total = 0
    for k in range(N):  # k gaps take the outer step
        (c0, a0), (c1, a1) = steps
        span = (N - 1 - k) * a0 + k * a1
        if span >= L:
            continue
        total += math.comb(N - 1, k) * c0 ** (N - 1 - k) * c1 ** k * ((L - span) / L) ** N
    return total


# ---------------------------------------------------------------------------
# hard rods
# ---------------------------------------------------------------------------


def tonks_b(n: int) -> Fraction:
    """Infinite-volume hard-rod b_n = (-n)^(n-1)/n! for sigma = 1."""
    return Fraction((-n) ** (n - 1), math.factorial(n))


def rod_box_b(L: Fraction, n_max: int) -> Dict[int, Fraction]:
    """b_n(L) = (1/L) [x^n] log sum_N x^N (L - N + 1)_+^N / N!, sigma = 1."""
    L = Fraction(L)
    xi = [max(L - N + 1, 0) ** N / math.factorial(N) for N in range(n_max + 1)]
    logxi = series_log(xi, n_max)
    return {n: logxi[n] / L for n in range(1, n_max + 1)}


# ---------------------------------------------------------------------------
# hard spheres in d = 3 (sigma = 1)
# ---------------------------------------------------------------------------


def hard_sphere_virial() -> Dict[int, float]:
    """Pressure coefficients B_2, B_3, B_4 of hard spheres, sigma = 1.

    B_2 = 2 pi / 3, B_3 / B_2^2 = 5/8, and B_4 / B_2^3 = 2707/4480 +
    219 sqrt(2) / (2240 pi) - 4131 arccos(1/3) / (4480 pi) = 0.2869495...
    """
    B2 = 2.0 * math.pi / 3.0
    r4 = (2707.0 / 4480.0 + 219.0 * math.sqrt(2.0) / (2240.0 * math.pi)
          - 4131.0 * math.acos(1.0 / 3.0) / (4480.0 * math.pi))
    return {2: B2, 3: 0.625 * B2 ** 2, 4: r4 * B2 ** 3}


def mayer_from_virial(B: Dict[int, object], n_max: int) -> Dict[int, object]:
    """b_n from the pressure coefficients B_n (B_1 = 1).

    ln z = ln rho + sum_k (k+1)/k B_(k+1) rho^k, i.e. z = rho E(rho); by
    Lagrange-Buermann [z^n] P(rho(z)) = [rho^(n-1)] P'(rho) E(rho)^(-n) / n.
    """
    order = n_max
    mu = [0] + [(k + 1) * B[k + 1] / k for k in range(1, order)] + [0]
    E_inv = series_exp([-c for c in mu], order)
    dP = [1] + [(n + 1) * B[n + 1] for n in range(1, order)] + [0]
    out = {1: 1}
    for n in range(2, n_max + 1):
        out[n] = series_mul(dP, series_pow(E_inv, n, n - 1), n - 1)[n - 1] / n
    return out


def beta_from_pressure(B: Dict[int, object], k: int):
    """Mayer's beta_k = -(k+1)/k B_(k+1)."""
    return -(k + 1) * B[k + 1] / k


# ---------------------------------------------------------------------------
# abstract polymer gas on [N]
# ---------------------------------------------------------------------------


def polymer_xi(N: int, zeta: Dict[int, Fraction]) -> Fraction:
    """Xi = N! [x^N] exp(x + sum_m zeta_m x^m / m!)."""
    a = [Fraction(0)] * (N + 1)
    if N >= 1:
        a[1] = Fraction(1)
    for m, z in zeta.items():
        if m <= N:
            a[m] += Fraction(z) / math.factorial(m)
    return series_exp(a, N)[N] * math.factorial(N)


def polymer_log_terms(N: int, zeta: Dict[int, Fraction], n_max: int) -> Dict[int, Fraction]:
    """[t^n] log Xi(t) with zeta -> t zeta: the n-polymer terms of log Xi.

    Xi(t) = N! [x^N] e^x exp(t A(x)) with A(x) = sum_m zeta_m x^m/m!, so the
    t^j coefficient is N! [x^N] e^x A(x)^j / j!.
    """
    A = [Fraction(0)] * (N + 1)
    for m, z in zeta.items():
        if m <= N:
            A[m] = Fraction(z) / math.factorial(m)
    ex = [Fraction(1, math.factorial(k)) for k in range(N + 1)]
    xi_t = []
    for j in range(n_max + 1):
        coeff = series_mul(ex, series_pow(A, j, N), N)[N]
        xi_t.append(coeff * math.factorial(N) / math.factorial(j))
    logt = series_log(xi_t, n_max)
    return {n: logt[n] for n in range(1, n_max + 1)}


def _intersection_edges(subsets: Sequence[frozenset]) -> List[Tuple[int, int]]:
    n = len(subsets)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if subsets[i - 1] & subsets[j - 1]]


def tree_factor(N: int, s: Sequence[int]) -> Fraction:
    """P(s_1..s_n): |Ursell| of the intersection graph summed over tuples.

    Sums |ursell(G(S_1..S_n))| over ordered tuples of subsets of [N] with
    |S_i| = s_i, normalized by N^(sum s - n + 1).  Relabeling [N] leaves the
    sum unchanged, so S_1 is fixed to {1..s_1} and the rest is multiplied
    by C(N, s_1).
    """
    n = len(s)
    first = frozenset(range(1, s[0] + 1))
    choices = [[frozenset(c) for c in itertools.combinations(range(1, N + 1), k)]
               for k in s[1:]]
    memo: Dict[Tuple, int] = {}
    total = 0
    for rest in itertools.product(*choices):
        edges = tuple(_intersection_edges((first,) + rest))
        val = memo.get(edges)
        if val is None:
            val = memo[edges] = abs(ursell(n, edges))
        total += val
    return Fraction(math.comb(N, s[0]) * total, N ** (sum(s) - n + 1))


def compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` integers >= 2 summing to ``total``."""
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def finite_n_coefficient(N: int, b: Dict[int, Fraction], k: int) -> Fraction:
    """C_k(N) = sum_n (-1)^(n-1) (k+1)/n! sum_s prod b_si si! P(s)."""
    total = Fraction(0)
    for n in range(1, k + 1):
        inner = Fraction(0)
        for s in compositions(k + n, n):
            prod = Fraction(1)
            for si in s:
                prod *= Fraction(b[si]) * math.factorial(si)
            inner += prod * tree_factor(N, s)
        term = Fraction(k + 1, math.factorial(n)) * inner
        total += term if n % 2 == 1 else -term
    return total


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def is_connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    parts = n
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            parts -= 1
    return parts == 1


def ursell(n: int, edges: Sequence[Tuple[int, int]]) -> int:
    """Sum of (-1)^|S| over edge subsets S spanning a connected graph on [n]."""
    if n == 1:
        return 1
    edges = list(edges)
    total = 0
    for r in range(n - 1, len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            if is_connected(n, sub):
                total += -1 if r % 2 else 1
    return total


def connected_graphs(n: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Edge tuples of every connected labeled graph on [n]."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for r in range(n - 1, len(pairs) + 1):
        for sub in itertools.combinations(pairs, r):
            if is_connected(n, sub):
                out.append(sub)
    return out


def count_connected_labeled(n: int) -> int:
    """c_n = 2^C(n,2) - sum_k C(n-1, k-1) c_k 2^C(n-k,2)."""
    c = [0, 1]
    for m in range(2, n + 1):
        acc = 2 ** math.comb(m, 2)
        for k in range(1, m):
            acc -= math.comb(m - 1, k - 1) * c[k] * 2 ** math.comb(m - k, 2)
        c.append(acc)
    return c[n]


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------


def radius_F(u: float) -> Tuple[float, float, float]:
    """F(u) with its maximizers a* and w*, from the stationarity condition.

    g(u) = max_w ((1+u) e^-w - 1) w / u is stationary where
    (1+u) e^-w (1 - w) = 1, whose left side falls monotonically on (0, 1);
    the root is bisected to the last bit.  a* follows from the substitution
    w = ln(1 + u (1 - e^-a)).
    """
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (1.0 + u) * math.exp(-mid) * (1.0 - mid) > 1.0:
            lo = mid
        else:
            hi = mid
    w = lo
    F = ((1.0 + u) * math.exp(-w) - 1.0) * w / u
    a = -math.log1p(-math.expm1(w) / u)
    return F, a, w


def coefficient_bound(k: int, beta: float, B: float, cbeta: float, a: float) -> Tuple[float, float]:
    """The order-k bound pair: this paper's on |C_k| and Lebowitz-Penrose's.

    ours = [1/(k+1) + (e^a - 1) e^(a k)] e^(2 beta B (k-1)) (k+1)^k / k! C^k
    lp   = [(e^(2 beta B) + 1) C / 0.28952]^k / k
    """
    ours = ((1.0 / (k + 1) + math.expm1(a) * math.exp(a * k))
            * math.exp(2.0 * beta * B * (k - 1))
            * (k + 1) ** k / math.factorial(k) * cbeta ** k)
    lp = ((math.exp(2.0 * beta * B) + 1.0) * cbeta / 0.28952) ** k / k
    return ours, lp
