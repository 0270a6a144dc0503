import functools
import itertools
import math
import random
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clusterkit import graphs, polymer, tonks
from clusterkit.errors import CapacityError, DomainError, InputError, _real
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
from clusterkit.series import invert_mayer_oracle, virial_from_mayer
from clusterkit.verify import _compositions, _fit_slope


def test_profile_validation():
    with pytest.raises(InputError):
        ActivityProfile(3, {5: 1.0})
    with pytest.raises(InputError):
        ActivityProfile(3, {1: 1.0})
    prof = ActivityProfile(4, {2: 0.5, 3: 0.0})
    assert prof.zeta == {2: 0.5}  # zero activities dropped
    assert ActivityProfile(3, {5: 0}).zeta == {}  # wherever they sit
    # integral floats are the integers; anything else is refused, not truncated
    prof = ActivityProfile(4.0, {2.0: 1.0, 3: Fraction(1, 2)})
    assert (prof.N, prof.zeta) == (4, {2: 1.0, 3: Fraction(1, 2)})
    assert type(prof.N) is int and all(type(m) is int for m in prof.zeta)
    for N, zeta, named in ((4, {2.5: 1.0, 3: True}, "2.5"), (4, {2: 1.0, 3: True}, "True"),
                           (4, {2: False}, "False"), (4, {2: "0.5"}, "'0.5'"),
                           (4, {"2": 0.5}, "'2'"), (4.5, {2: 1.0}, "4.5"),
                           (True, {}, "True"), (math.inf, {}, "inf"),
                           (4, {2: math.nan}, "nan"), (4, {3: math.inf}, "inf"),
                           (4, {2: 0.5, 4: -math.inf}, "-inf"), (4, {2: 1j}, "1j")):
        with pytest.raises(InputError) as exc:
            ActivityProfile(N, zeta)
        assert named in str(exc.value)
    # a density that is not a finite real is refused by name, before any activity
    for rho in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="density rho"):
            ActivityProfile.from_mayer({2: -1.0, 3: 1.5}, 4, rho)
    # ... and so is a finite one whose float activity overflows
    with pytest.raises(InputError, match=r"density rho=1e\+200 overflows .* zeta_3"):
        ActivityProfile.from_mayer({2: -1.0, 3: 1.5}, 4, 1e200)
    # a b_s that is not a finite real is refused by its own name, not by the valid rho
    for val in (math.nan, math.inf):
        with pytest.raises(InputError, match=r"\bb_200 must be a finite real"):
            ActivityProfile.from_mayer({2: -1.0, 200: val}, 200, 0.1)
    with pytest.raises(InputError, match=r"\bb_3 must be a finite real, got nan"):
        ActivityProfile.from_mayer({2: -1.0, 3: math.nan}, 4, 0.1)


def test_profile_from_mayer_consistency():
    N, rho = 10, 0.05
    V = N / rho
    b = {s: tonks.bn_value(s) for s in range(2, 6)}
    prof = ActivityProfile.from_mayer(b, N, rho)
    for s in range(2, 6):
        assert prof.zeta[s] == pytest.approx(
            b[s] * math.factorial(s) / V ** (s - 1), rel=1e-12)


@pytest.mark.parametrize("N", [144, 145, 200])
def test_from_mayer_rounds_the_exact_activity_where_the_float_steps_overflow(N):
    # N^(s-1) passes the float range at s = N for every N >= 144; those
    # activities are the exact product rounded once, the rest keep their bits
    rho = 0.1
    b = {s: tonks.bn_value(s) for s in range(2, N + 1)}
    prof = ActivityProfile.from_mayer(b, N, rho)
    rounded = 0
    for s, val in b.items():
        try:
            want = rho ** (s - 1) * val * math.factorial(s) / N ** (s - 1)
        except OverflowError:
            want = float(Fraction(rho) ** (s - 1) * Fraction(val) * math.factorial(s)
                         / N ** (s - 1))
            rounded += 1
        assert prof.zeta[s] == want
    assert rounded >= 1
    # the hard-rod activities of [N] give Xi = (1 - rho)^(N-1)
    assert xi_exact(N, prof) == pytest.approx((1 - rho) ** (N - 1), rel=1e-13)


def test_from_mayer_keeps_an_activity_whose_rho_power_overflows():
    # rho^2 overflows on the way, but the activity 1e320 * 1e-20 * 6/16 fits
    prof = ActivityProfile.from_mayer({2: -1.0, 3: 1e-20}, 4, 1e160)
    assert prof.zeta[3] == float(Fraction(1e160) ** 2 * Fraction(1e-20) * 6 / 16)


def _from_mayer_forming_every_product(b, N, rho):
    """``ActivityProfile.from_mayer``'s loop as it was before it skipped the
    exact products of activities that round to 0.0."""
    _real("density rho", rho, InputError)
    p, q = Fraction(rho).as_integer_ratio()
    zeta = {}
    for s, val in dict(b).items():
        if s < 2 or s > N:
            continue
        _real(f"fugacity coefficient b_{s}", val, InputError)
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
    return ActivityProfile(N, zeta)


def _profile_or_refusal(build, b, N, rho):
    try:
        return repr(build(b, N, rho).zeta)
    except InputError as exc:
        return repr(exc)


_B_VALUES = st.one_of(
    st.floats(), st.integers(-10 ** 400, 10 ** 400),
    st.builds(Fraction, st.integers(-10 ** 500, 10 ** 500), st.integers(1, 10 ** 400)))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(2, 400), rho=st.floats(-1, 1, exclude_min=True, exclude_max=True),
       b=st.data())
def test_from_mayer_skip_keeps_every_key_bit_and_refusal(N, rho, b):
    # past s = 170 the exact product is skipped where log|zeta_s| proves a 0.0
    sizes = b.draw(st.lists(st.integers(2, N), max_size=12)) + list(range(max(2, N - 3), N + 1))
    b = {s: b.draw(_B_VALUES) for s in sizes}
    assert (_profile_or_refusal(ActivityProfile.from_mayer, b, N, rho)
            == _profile_or_refusal(_from_mayer_forming_every_product, b, N, rho))


@pytest.mark.parametrize("exponent, kept", [(-1074, 5e-324), (-1075, None), (-1077, None)])
def test_from_mayer_keeps_the_smallest_subnormal_activity(exponent, kept):
    # b_200 makes zeta_200 = 2^exponent exactly: 2^-1074 is kept, 2^-1075
    # rounds to even (0.0) and 2^-1077 is skipped, both dropped
    N, s, rho = 200, 200, 0.5
    val = Fraction(N ** (s - 1) * 2 ** (s - 1), math.factorial(s)) * Fraction(2) ** exponent
    b = {2: -1.0, s: val}
    prof = ActivityProfile.from_mayer(b, N, rho)
    assert prof.zeta.get(s) == kept
    assert repr(prof.zeta) == repr(_from_mayer_forming_every_product(b, N, rho).zeta)


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


def _xi_unscaled_recursion(N, zeta):
    """The Xi recursion with every activity entering as it is, in this order."""
    xi = [1, 1] + [0] * max(0, N - 1)
    for j in range(2, N + 1):
        acc = xi[j - 1]
        for m, z in zeta.items():
            if m <= j:
                acc = acc + math.comb(j - 1, m - 1) * z * xi[j - m]
        xi[j] = acc
    return xi[N] if N >= 1 else 1


ACTIVITIES = {
    "int": st.integers(-60, 60),
    "fraction": st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40)),
    "float": st.floats(-4.0, 4.0),
}


@st.composite
def typed_profiles(draw, max_n):
    # one activity type or a mix; the profile may hold sizes past N
    N = draw(st.integers(0, max_n))
    kinds = draw(st.lists(st.sampled_from(sorted(ACTIVITIES)), min_size=1, unique=True))
    value = st.one_of(*(ACTIVITIES[k] for k in kinds))
    ground = max(N, 1) + draw(st.integers(0, 2))
    sizes = draw(st.lists(st.integers(2, ground), unique=True)) if ground >= 2 else []
    return N, ActivityProfile(ground, {m: draw(value) for m in sizes})


def _assert_same_number(got, want):
    assert type(got) is type(want)
    assert got == want and repr(got) == repr(want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)


@settings(max_examples=150, deadline=None)
@given(typed_profiles(8), st.sampled_from(["recursion", "bruteforce"]))
def test_xi_scaled_loops_match_the_unscaled_ones(case, method):
    # same type, value, repr and float bits as the loops on the activities as they are
    N, prof = case
    want = (_xi_unscaled_recursion(N, prof.zeta) if method == "recursion"
            else _xi_families((1 << N) - 1, prof.zeta))
    _assert_same_number(xi_exact(N, prof, method), want)


@settings(max_examples=60, deadline=None)
@given(typed_profiles(24))
def test_xi_scaled_recursion_matches_the_unscaled_one_up_to_24(case):
    N, prof = case
    _assert_same_number(xi_exact(N, prof), _xi_unscaled_recursion(N, prof.zeta))


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


def _numbers(value):
    """The numbers of a result: itself, or a dict's values."""
    return list(value.values()) if isinstance(value, dict) else [value]


@pytest.mark.parametrize("route", [
    lambda b: xi_exact(40, ActivityProfile(40, {2: b[2], 3: b[3]})),
    lambda b: log_xi_ursell(40, ActivityProfile(40, {2: b[2], 3: b[3]}), 3),
    lambda b: ck_finite_N(40, b, 3),
    lambda b: virial_from_mayer(b, 3),
    lambda b: invert_mayer_oracle(b, 3).values,
], ids=["xi", "log_xi", "ckn", "transform", "inversion"])
def test_numpy_ints_give_the_exact_value_of_python_ints(route):
    # a numpy int ran as inexact: Xi_40 wrapped around in int64, and the
    # transform and its inversion returned floats
    b = {1: 1, 2: -1, 3: 2, 4: 3}
    want = _numbers(route(b))
    got = _numbers(route({n: np.int64(v) for n, v in b.items()}))
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is type(w) and type(w) in (int, Fraction)
        assert type(getattr(g, "numerator", g)) is int


@pytest.mark.parametrize("order", [0, -2])
def test_log_xi_refuses_order_below_one(order):
    with pytest.raises(InputError, match="expansion order must be an integer >= 1"):
        log_xi_ursell(3, ActivityProfile(3, {2: Fraction(1, 3)}), order)


@pytest.mark.parametrize("method", ["recursion", "bruteforce"])
@pytest.mark.parametrize("a", [10 ** 200, -10 ** 200])
def test_xi_float_overflow_is_a_domain_error(method, a):
    # Xi_4 = 1 + 6a + 3a^2 is past the float range: the exact activity gives it
    with pytest.raises(DomainError, match="Xi_4 is inf in floating point; exact"):
        xi_exact(4, ActivityProfile(4, {2: float(a)}), method)
    assert xi_exact(4, ActivityProfile(4, {2: a}), method) == 1 + 6 * a + 3 * a ** 2


def test_xi_float_cancellation_is_a_domain_error():
    # --n-ground 400 --zeta 2=-0.7 reaches inf - inf; 3000 --zeta 2=5.0 reaches inf
    with pytest.raises(DomainError, match="Xi_400 is nan"):
        xi_exact(400, ActivityProfile(400, {2: -0.7}))
    with pytest.raises(DomainError, match="Xi_3000 is inf"):
        xi_exact(3000, ActivityProfile(3000, {2: 5.0}))


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
    # at a = inf both sides were inf and the check "held" for any profile
    for a in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="weight parameter a"):
            fp_check(ActivityProfile(6, {2: 0.5, 3: -0.2}), a)


def test_fp_check_refuses_a_weight_that_overflows():
    # e^(2a) overflows a float from about a = 355 on
    prof = ActivityProfile(4, {2: 0.1})
    assert fp_check(prof, 354.0).lhs < math.inf
    with pytest.raises(InputError, match=r"weight parameter a=800.0 overflows e\^\(a m\) at m=2"):
        fp_check(prof, 800.0)


@pytest.mark.parametrize("N, zeta, a, named", [
    pytest.param(2000, {1000: 0.5}, 0.1, "zeta_1000", id="binomial"),
    pytest.param(4, {2: Fraction(10 ** 400)}, 0.1, "zeta_2", id="exact_activity"),
    pytest.param(4, {2: 1e300}, 300.0, "zeta_2", id="product"),
    pytest.param(4, {2: 5e307, 3: 5e307}, 0.01, "zeta_m", id="sum"),
])
def test_fp_check_refuses_a_term_past_the_float_range(N, zeta, a, named):
    with pytest.raises(InputError, match=rf"\b{named}\b passes the float range at N={N}"):
        fp_check(ActivityProfile(N, zeta), a)


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


def _occupancies(rem, regions):
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


def _p_venn(N, s):
    """P(s) by Venn-region occupancy, at any N and with no cap on the parts.

    The intersection graph depends only on which Venn regions of the tuple
    hold elements, and c_R elements in exactly the subsets of each region R
    arise from perm(N, sum c) / prod c_R! tuples.  The counts are summed per
    intersection graph, whose singleton trees number |its Ursell value|.
    """
    n = len(s)
    pairs = vertex_pairs(n)
    shared = [R for R in range(1, 1 << n) if R & (R - 1)]  # regions of >= 2 parts
    edges = [sum(1 << idx for idx, (a, b) in enumerate(pairs)
                 if R >> (a - 1) & 1 and R >> (b - 1) & 1) for R in shared]
    tuples = Counter()
    for counts, rest in _occupancies(s, shared):
        emask = functools.reduce(int.__or__, (e for c, e in zip(counts, edges) if c), 0)
        tuples[emask] += math.perm(N, sum(counts + rest)) // math.prod(
            map(math.factorial, counts + rest))
    values = graphs.ursell_values(n, list(tuples)).tolist()
    total = sum(t * abs(v) for t, v in zip(tuples.values(), values))
    return Fraction(total, N ** (sum(s) - n + 1))


# every ordered s within P_EXACT_MAX_PARTS and P_EXACT_MAX_TOTAL
P_EXACT_PARTS = [s for n in range(1, polymer.P_EXACT_MAX_PARTS + 1)
                 for s in itertools.product(range(2, polymer.P_EXACT_MAX_TOTAL + 1), repeat=n)
                 if sum(s) <= polymer.P_EXACT_MAX_TOTAL]


@settings(max_examples=25, deadline=None)
@given(N=st.one_of(st.integers(1, 17), st.integers(1, 10 ** 9)))
@example(N=10 ** 9)
def test_p_exact_equals_the_venn_count_within_the_caps(N):
    for s in P_EXACT_PARTS:
        assert p_exact(N, s) == _p_venn(N, s), s


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


def test_front_ends_refuse_what_they_would_truncate():
    # an integral float is its integer; a fractional float or a bool is refused
    # by name, not truncated, and none reaches a bare TypeError
    b = {2: Fraction(-1), 3: Fraction(3, 2), 4: Fraction(-8, 3)}
    prof = ActivityProfile(4, {2: Fraction(1, 3), 3: Fraction(-1, 4)})
    assert p_exact(10.0, (2.0, 3)) == p_exact(10, (2, 3))
    assert p_limit((2.0, 3)) == p_limit((2, 3))
    assert ck_finite_N(10.0, b, 2.0) == ck_finite_N(10, b, 2)
    assert log_xi_ursell(4.0, prof, 3.0) == log_xi_ursell(4, prof, 3)
    for call, named in ((lambda: p_exact(10, (2.5, 3)), "every part .* got 2.5"),
                        (lambda: p_exact(10, (2, True)), "every part .* got True"),
                        (lambda: p_exact(10.5, (2, 3)), "ground-set size .* got 10.5"),
                        (lambda: p_exact(True, (2, 3)), "ground-set size .* got True"),
                        (lambda: p_limit((2.9, 3)), "every part .* got 2.9"),
                        (lambda: p_limit(()), "number of parts .* got 0"),
                        (lambda: ck_finite_N(True, b, 1), "ground-set size .* got True"),
                        (lambda: ck_finite_N(10.5, b, 1), "ground-set size .* got 10.5"),
                        (lambda: ck_finite_N(10, b, 2.5), "order .* got 2.5"),
                        (lambda: ck_finite_N(10, b, True), "order .* got True"),
                        (lambda: log_xi_ursell(4, prof, 2.5), "expansion order .* got 2.5"),
                        (lambda: log_xi_ursell(3.5, prof, 2), "ground-set size N .* got 3.5"),
                        (lambda: log_xi_ursell(-1, prof, 2), "ground-set size N .* got -1")):
        with pytest.raises(InputError, match=named):
            call()


# ---------------------------------------------------------------------------
# finite-N coefficients
# ---------------------------------------------------------------------------

def test_ck_finite_k1_closed_form():
    # for rods C_k(N) = beta_k (1 - 1/N) exactly, N <= k included
    b = {n: tonks.bn_exact(n) for n in range(2, 14)}
    for k in range(1, 13):
        for N in (*range(1, 13), 10**9):
            assert ck_finite_N(N, b, k) == tonks.beta_k_exact(k) * (1 - Fraction(1, N))


def _ck_composition_sum(N, b, k):
    # the tree-counting route: sum_n (-1)^(n-1) (k+1)/n! times the sum over ordered
    # (s_1..s_n), s_i >= 2, sum s = k+n, of prod b_(s_i) s_i! P(s_1..s_n), with P
    # from the Venn count, not from the log Xi kernel it checks
    total = Fraction(0)
    for n in range(1, k + 1):
        inner = sum(math.prod(b[si] * math.factorial(si) for si in s) * _p_venn(N, s)
                    for s in _compositions(k + n, n))
        total += (-1) ** (n - 1) * Fraction(k + 1, math.factorial(n)) * inner
    return total


@settings(max_examples=30, deadline=None)
@given(b=st.lists(st.fractions(-3, 3, max_denominator=9), min_size=4, max_size=4),
       N=st.integers(1, 12), k=st.integers(1, 4))
def test_ck_finite_equals_the_composition_sum(b, N, k):
    b = dict(zip(range(2, 6), b))
    assert ck_finite_N(N, b, k) == _ck_composition_sum(N, b, k)


def test_ck_finite_float_b_is_the_exact_value_rounded_once():
    b = {2: -1.0, 3: 0.1, 4: 1 / 3, 5: -2.5e-3}
    for k in range(1, 5):
        for N in (1, 3, 10, 10**9):
            value = ck_finite_N(N, b, k)
            assert type(value) is float
            assert value == float(ck_finite_N(N, {s: Fraction(v) for s, v in b.items()}, k))
    with pytest.raises(DomainError, match=r"C_1\(10\) overflows a float"):
        ck_finite_N(10, {2: 1e308}, 1)  # 2 b_2 (1 - 1/N) = 1.8e308


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
        ck_finite_N(8, {n: 1.0 for n in range(2, 43)}, 41)
    with pytest.raises(InputError):
        ck_finite_N(8, {2: 1.0}, 2)
    with pytest.raises(InputError, match="order"):
        ck_finite_N(8, {2: 1.0}, 0)
    with pytest.raises(InputError, match="ground-set size"):
        ck_finite_N(0, {2: 1.0}, 1)
    # a non-finite b_s is refused by its name, not returned as nan
    for b, named in (({2: math.nan, 3: 1.0, 4: 1.0}, "b_2"), ({2: 1.0, 3: -math.inf}, "b_3"),
                     ({2: 1.0, 3: "0.5"}, "b_3")):
        with pytest.raises(InputError, match=rf"\b{named} must be a finite real"):
            ck_finite_N(5, b, len(b))
