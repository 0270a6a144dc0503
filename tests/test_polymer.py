import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from clusterkit import graphs, polymer, tonks
from clusterkit.errors import CapacityError, DomainError, InputError
from clusterkit.graphs import ursell_table, vertex_pairs
from clusterkit.polymer import (
    ActivityProfile,
    ck_finite_N,
    fp_check,
    log_xi_ursell,
    p_exact,
    p_limit,
    xi_exact,
)
from clusterkit.radii import F_of_u
from clusterkit.series import virial_from_mayer
from clusterkit.verify import _fit_slope


def test_profile_validation():
    with pytest.raises(InputError):
        ActivityProfile(3, {5: 1.0})
    with pytest.raises(InputError):
        ActivityProfile(3, {1: 1.0})
    prof = ActivityProfile(4, {2: 0.5, 3: 0.0})
    assert prof.zeta == {2: 0.5}  # zero activities dropped


def test_profile_from_mayer_consistency():
    N, rho = 10, 0.05
    V = N / rho
    b = {s: tonks.bn_value(s) for s in range(2, 6)}
    prof = ActivityProfile.from_mayer(b, N, rho)
    for s in range(2, 6):
        assert prof.activity(s) == pytest.approx(
            b[s] * math.factorial(s) / V ** (s - 1), rel=1e-12)


def test_c_rho_weights():
    prof = ActivityProfile(5, {2: -0.25, 3: 0.5})
    assert prof.c_rho(2) == pytest.approx(0.25 * math.comb(4, 1))
    assert prof.c_rho(3) == pytest.approx(0.5 * math.comb(4, 2))


# ---------------------------------------------------------------------------
# partition function
# ---------------------------------------------------------------------------

def test_xi_small_closed_forms():
    z, w, y = Fraction(1, 3), Fraction(-1, 4), Fraction(2, 7)
    assert xi_exact(2, ActivityProfile(2, {2: z})) == 1 + z
    assert xi_exact(3, ActivityProfile(3, {2: z, 3: w})) == 1 + 3 * z + w
    got = xi_exact(4, ActivityProfile(4, {2: z, 3: w, 4: y}))
    assert got == 1 + 6 * z + 4 * w + y + 3 * z * z


def test_xi_bruteforce_capacity():
    with pytest.raises(CapacityError):
        xi_exact(9, ActivityProfile(9, {2: 0.1}), "bruteforce")


def _xi_families(mask, zeta):
    """Xi over the subsets of ``mask``, unmemoized: the lowest element alone, or in a polymer."""
    if mask == 0:
        return 1
    low = mask & -mask
    rest = mask ^ low
    total = _xi_families(rest, zeta)
    sub = rest
    while sub:
        size = bin(sub).count("1") + 1
        if size in zeta:
            total = total + zeta[size] * _xi_families(rest ^ sub, zeta)
        sub = (sub - 1) & rest
    return total


@st.composite
def xi_profiles(draw):
    # N <= 8 (the brute-force cap), sizes left out at random, any sign
    N = draw(st.integers(0, 8))
    sizes = draw(st.lists(st.integers(2, max(N, 2)), unique=True)) if N >= 2 else []
    zeta = {m: Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 40))) for m in sizes}
    return N, ActivityProfile(max(N, 1), zeta)


def _cache_sizes():
    return {(mod.__name__, name): fn.cache_info().currsize
            for mod in (graphs, polymer) for name, fn in vars(mod).items()
            if hasattr(fn, "cache_info")}


@settings(max_examples=40, deadline=None)
@given(xi_profiles())
def test_xi_bruteforce_equals_recursion_exactly(case):
    N, prof = case
    before = _cache_sizes()
    assert xi_exact(N, prof, "bruteforce") == xi_exact(N, prof, "recursion")
    # the memo lives and dies with the call
    assert _cache_sizes() == before


def test_xi_bruteforce_memo_is_per_call():
    # the same subsets under new activities: a memo kept across calls
    # would return the first profile's values
    for zeta in ({2: Fraction(1, 3), 3: Fraction(-1, 4)}, {2: Fraction(-2, 5), 4: Fraction(3, 7)}):
        prof = ActivityProfile(6, zeta)
        assert xi_exact(6, prof, "bruteforce") == xi_exact(6, prof, "recursion")


def test_xi_bruteforce_float_bits_are_the_unmemoized_recursion():
    rng = random.Random(35)
    for N in range(2, 9):
        zeta = {m: rng.uniform(-1.0, 1.0) for m in range(2, N + 1) if rng.random() < 0.8}
        got = xi_exact(N, ActivityProfile(N, zeta), "bruteforce")
        assert repr(got) == repr(_xi_families((1 << N) - 1, zeta))


# ---------------------------------------------------------------------------
# log expansion
# ---------------------------------------------------------------------------

def test_log_xi_orders_exact():
    z, w = Fraction(1, 5), Fraction(-2, 9)
    prof = ActivityProfile(3, {2: z, 3: w})
    terms = log_xi_ursell(3, prof, 2)
    assert terms[1] == 3 * z + w
    assert terms[2] == -Fraction(9, 2) * z * z - 3 * z * w - Fraction(1, 2) * w * w


def test_log_xi_order1_is_linear_sum():
    prof = ActivityProfile(5, {2: 0.2, 3: -0.1, 4: 0.05})
    terms = log_xi_ursell(5, prof, 1)
    want = sum(math.comb(5, m) * z for m, z in prof.zeta.items())
    assert float(terms[1]) == pytest.approx(want, rel=1e-12)


def test_log_xi_matches_taylor_of_exact():
    # ln(1 + 3z + w) through second order in the activity scale
    z, w = 1e-3, -2e-3
    prof = ActivityProfile(3, {2: z, 3: w})
    terms = log_xi_ursell(3, prof, 2)
    exact = math.log(float(xi_exact(3, prof)))
    assert float(terms[1]) + float(terms[2]) == pytest.approx(exact, abs=1e-8)


def test_truncation_scales_as_fourth_power():
    base = ActivityProfile(4, {2: 0.03, 3: -0.02, 4: 0.015})
    xs, ys = [], []
    for lam in (1.0, 0.5, 0.25, 0.125):
        prof = ActivityProfile(4, {m: lam * v for m, v in base.zeta.items()})
        partial = sum(float(t) for t in log_xi_ursell(4, prof, 3).values())
        resid = abs(math.log(float(xi_exact(4, prof))) - partial)
        xs.append(math.log(lam))
        ys.append(math.log(resid))
    assert _fit_slope(xs, ys) == pytest.approx(4.0, abs=0.2)


def _log_naive(N, zeta, order):
    """Term ``order`` of log Xi summed over multisets of subsets of [N], outright.

    Each multiset of ``order`` subsets with activities weighs the Ursell value
    of its intersection graph times the activity product, over the product
    of its multiplicities' factorials.
    """
    subsets = [(frozenset(c), z) for m, z in zeta.items() if m <= N
               for c in itertools.combinations(range(N), m)]
    pairs = vertex_pairs(order)
    table = ursell_table(order)
    total = Fraction(0)
    for picks in itertools.combinations_with_replacement(range(len(subsets)), order):
        emask = sum(1 << k for k, (a, b) in enumerate(pairs)
                    if subsets[picks[a - 1]][0] & subsets[picks[b - 1]][0])
        weight = Fraction(int(table[emask]))
        for i in picks:
            weight *= subsets[i][1]
        for mult in Counter(picks).values():
            weight /= math.factorial(mult)
        total += weight
    return total


@st.composite
def rational_profiles(draw):
    N = draw(st.integers(2, 5))
    nonzero = st.integers(-60, 60).filter(bool)
    sizes = draw(st.sets(st.integers(2, N), min_size=1))
    zeta = {m: Fraction(draw(nonzero), draw(st.integers(1, 40))) for m in sizes}
    return N, zeta, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(rational_profiles())
# three disjoint polymers fit only from N = 6 on: few sizes keep the oracle quick
@example((6, {2: Fraction(1, 3), 3: Fraction(-2, 5)}, 3))
@example((7, {2: Fraction(-3, 7)}, 3))
def test_log_xi_equals_tuple_oracle(case):
    N, zeta, order = case
    terms = log_xi_ursell(N, ActivityProfile(N, zeta), order)
    assert [terms[n] for n in range(1, order + 1)] == [
        _log_naive(N, zeta, n) for n in range(1, order + 1)]


@pytest.mark.parametrize("N", [5, 17, 64])
def test_log_xi_orders_1_and_2_closed_form(N):
    # term 1 counts subsets; term 2 counts ordered pairs of subsets that meet
    rng = random.Random(N)
    zeta = {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 99)) for m in range(2, N + 1)}
    terms = log_xi_ursell(N, ActivityProfile(N, zeta), 2)
    assert terms[1] == sum(math.comb(N, m) * z for m, z in zeta.items())
    assert terms[2] == -Fraction(1, 2) * sum(
        z * y * math.comb(N, m) * (math.comb(N, q) - math.comb(N - m, q))
        for m, z in zeta.items() for q, y in zeta.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(lambda N: st.tuples(
    st.just(N),
    st.dictionaries(st.integers(2, N),
                    st.floats(-2.0, 2.0, allow_nan=False).filter(bool), min_size=1),
    st.integers(1, 3))))
def test_log_xi_float_is_rounded_exact(case):
    N, zeta, order = case
    got = log_xi_ursell(N, ActivityProfile(N, zeta), order)
    exact = log_xi_ursell(N, ActivityProfile(N, {m: Fraction(z) for m, z in zeta.items()}), order)
    for n in range(1, order + 1):
        assert isinstance(exact[n], Fraction)
        assert type(got[n]) is float and got[n] == float(exact[n])


def test_log_xi_capacity():
    with pytest.raises(CapacityError):
        log_xi_ursell(65, ActivityProfile(65, {2: 0.1}), 2)
    with pytest.raises(CapacityError):
        log_xi_ursell(4, ActivityProfile(4, {2: 0.1}), 13)


@pytest.mark.parametrize("order", [0, -2])
def test_log_xi_refuses_order_below_one(order):
    with pytest.raises(InputError, match="expansion order must be >= 1"):
        log_xi_ursell(3, ActivityProfile(3, {2: Fraction(1, 3)}), order)


def test_log_xi_float_overflow_names_the_order():
    # term 1 is 3e200; term 2 is -4.5e400, beyond any float
    with pytest.raises(DomainError, match="order 2"):
        log_xi_ursell(3, ActivityProfile(3, {2: 1e200}), 2)


# ---------------------------------------------------------------------------
# summability check
# ---------------------------------------------------------------------------

def test_fp_check_tonks_profile():
    _, a_star = F_of_u(1.0)
    N = 20
    b = {s: tonks.bn_value(s) for s in range(2, N + 1)}
    ok = fp_check(ActivityProfile.from_mayer(b, N, 0.05), a_star)
    assert ok.holds and ok.lhs <= ok.rhs
    bad = fp_check(ActivityProfile.from_mayer(b, N, 0.5), a_star)
    assert not bad.holds


def test_fp_check_zero_profile():
    res = fp_check(ActivityProfile(5, {}), 0.3)
    assert res.lhs == 0.0 and res.holds


def test_fp_check_needs_positive_weight():
    with pytest.raises(InputError):
        fp_check(ActivityProfile(5, {2: 0.1}), 0.0)


# ---------------------------------------------------------------------------
# tree-counting factors
# ---------------------------------------------------------------------------

def test_p_exact_single_part():
    for N in (4, 7, 10):
        for s in (2, 3, 4):
            assert p_exact(N, (s,)) == Fraction(math.comb(N, s), N ** s)
    assert p_limit((4,)) == Fraction(1, 24)


def test_p_exact_pair_counts():
    # two 2-subsets must intersect; count pairs directly
    for N in (4, 6, 8):
        total = math.comb(N, 2) * (math.comb(N, 2) - math.comb(N - 2, 2))
        assert p_exact(N, (2, 2)) == Fraction(total, N ** 3)


def test_p_exact_symmetric():
    for N in (6, 8):
        assert p_exact(N, (2, 3)) == p_exact(N, (3, 2))
        assert p_exact(N, (2, 2, 3)) == p_exact(N, (3, 2, 2))


def _p_naive(N, s):
    # no symmetry shortcuts: every ordered subset tuple enumerated outright
    from clusterkit.graphs import _mask_connected, _slack_free_tree_masks, edge_mask, prufer_tree_masks

    n = len(s)
    pairs = vertex_pairs(n)
    trees = [0] if n == 1 else prufer_tree_masks(n).tolist()
    choices = [
        [frozenset(c) for c in itertools.combinations(range(1, N + 1), sz)]
        for sz in s
    ]
    count = 0
    for subs in itertools.product(*choices):
        edges = set()
        for idx, (a, b) in enumerate(pairs):
            if subs[a - 1] & subs[b - 1]:
                edges.add((a, b))
        g = edge_mask(n, edges)
        if not _mask_connected(n, g):
            continue
        members = set(_slack_free_tree_masks(n, g, 1))
        count += sum(1 for t in trees if t in members)
    return Fraction(count, N ** (sum(s) - n + 1))


@pytest.mark.parametrize("N,s", [
    (4, (2, 2)), (5, (2, 2)), (5, (2, 3)), (4, (2, 2, 2)), (6, (3, 2)), (2, (3, 2)),
])
def test_p_exact_matches_naive_enumerator(N, s):
    assert p_exact(N, s) == _p_naive(N, s)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(1, 5),
       s=st.lists(st.integers(2, 5), min_size=1, max_size=3).filter(lambda s: sum(s) <= 7))
def test_p_exact_equals_naive_enumerator_at_any_size(N, s):
    # parts above N are drawn too: they have no subsets, so P is 0
    assert p_exact(N, s) == _p_naive(N, s)


def test_p_limit_values():
    assert p_limit((2, 2)) == 1
    assert p_limit((2, 3)) == Fraction(math.comb(4, 0), 2)  # (0)! C(4,0) / (1! 2!)
    assert p_limit((2, 2, 2)) == Fraction(math.factorial(1) * math.comb(5, 1), 1)


def test_p_exact_converges_to_limit():
    lim = float(p_limit((2, 2)))
    resid = [abs(float(p_exact(N, (2, 2))) - lim) for N in (6, 8, 10)]
    assert resid[0] > resid[1] > resid[2]
    # O(1/N): scaled residuals stay bounded and steady
    scaled = [r * N for r, N in zip(resid, (6, 8, 10))]
    assert max(scaled) / min(scaled) < 1.3


def test_p_exact_capacity():
    with pytest.raises(CapacityError):
        p_exact(8, (2, 2, 2, 2))
    with pytest.raises(InputError):
        p_exact(8, (1, 2))
    with pytest.raises(InputError, match="ground-set size"):
        p_exact(0, (2, 2))


# ---------------------------------------------------------------------------
# finite-N coefficients
# ---------------------------------------------------------------------------

def test_ck_finite_k1_closed_form():
    # for rods C_k(N) = beta_k (1 - 1/N) exactly, N <= k included
    b = {n: tonks.bn_exact(n) for n in range(2, 5)}
    for k in (1, 2, 3):
        for N in (*range(1, 13), 10**9):
            assert ck_finite_N(N, b, k) == tonks.beta_k_exact(k) * (1 - Fraction(1, N))


def test_ck_finite_k2_converges():
    b = {n: tonks.bn_exact(n) for n in range(2, 4)}
    resid = [abs(float(ck_finite_N(N, b, 2)) + 1.5) for N in (6, 8, 10)]
    scaled = [r * N for r, N in zip(resid, (6, 8, 10))]
    assert max(scaled) / min(scaled) < 1.05  # residual is essentially c/N


def test_ck_finite_limit_equals_transform():
    b = {n: tonks.bn_exact(n) for n in range(2, 5)}
    c3_limit = virial_from_mayer(b, 3)
    vals = [float(ck_finite_N(N, b, 3)) for N in (8, 10)]
    assert abs(vals[1] - float(c3_limit)) < abs(vals[0] - float(c3_limit))


def test_ck_finite_validation():
    with pytest.raises(CapacityError):
        ck_finite_N(8, {n: 1.0 for n in range(2, 7)}, 4)
    with pytest.raises(InputError):
        ck_finite_N(8, {2: 1.0}, 2)
