import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from clusterkit import radii
from clusterkit.errors import DomainError
from clusterkit.radii import (
    F_of_u,
    K_star,
    LP_BOUND_DENOMINATOR,
    REFERENCE_A_ZERO_COUPLING,
    ck_bound,
    mayer_radius,
    radius_report,
    rho_star,
    tree_series_excess,
)
from clusterkit.verify import KSTAR_U

#: large u outside verify's K* grid
LARGE_U = (1e7, 1e8, 1e12)

# frozen from a 40-digit Newton refinement of the two stationary points
F1_EXACT = 0.14476699807000783
A_STAR_EXACT = 0.46227975024132334
W_STAR_EXACT = 0.31492305784540605
K_STAR_EXACT = 6.907651697774449

#: u -> (F, a*, w*) from W0(e/(1+u)) in 60-digit arithmetic, to 40 digits
OPTIMUM_40 = {
    1.0: ("0.1447669980700078299739158924603052531180",
          "0.4622797502413233447006165121573919393763",
          "0.3149230578454060539717505194623698115859"),
    7.5: ("0.3015117596024204237148651530606492329039",
          "0.1615148333093780733480770106761640922578",
          "0.7507534503463051051094858979720125377771"),
    1e6: ("0.3678788090522426301299290916240350535231",
          "0.000001718275915675679121907731090390677750995",
          "0.9999972817282788312577157879379069174356"),
    1e12: ("0.3678794411708102010366965716239706169164",
           "0.000000000001718281828453132425482389612955716901528",
           "0.9999999999972817181715510621025670545994"),
    1e100: ("0.3678794411714423215955237701614608674458",
            "1.718281828459045208034638657489295917278e-100", "1"),
    1e300: ("0.3678794411714423215955237701614608674458",
            "1.718281828459045145142312017236209467121e-300", "1"),
    1.7e308: ("0.3678794411714423215955237701614608674458",
              "1.010754016740614880698415487524424453879e-308", "1"),
}


def test_F_at_one():
    F, a = F_of_u(1.0)
    assert F == pytest.approx(F1_EXACT, abs=1e-11)
    assert a == pytest.approx(A_STAR_EXACT, rel=1e-14)
    # the printed approximations
    assert F == pytest.approx(0.1448, abs=5e-4)
    assert a == pytest.approx(0.4627, abs=1e-3)


def test_F_large_u_limit():
    F, _ = F_of_u(1e6)
    assert F == pytest.approx(1.0 / math.e, abs=1e-2)


def test_F_domain():
    for u in (0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            F_of_u(u)


def test_g_at_one():
    rep = radius_report(1.0, 0.0, 1.0, k_orders=())
    assert rep.g == pytest.approx(F1_EXACT, abs=1e-11)
    assert rep.w_star == pytest.approx(W_STAR_EXACT, rel=1e-14)
    # stationarity of the quoted form: 2 e^-w (1 - w) = 1
    assert 2.0 * math.exp(-rep.w_star) * (1.0 - rep.w_star) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("u", [1.0, 2.0, 5.0, 10.0, 100.0, *LARGE_U])
def test_g_equals_F(u):
    # both objectives, each at its closed-form maximizer, give F
    F, a, w = radii._optimum(u)
    c = 1.0 - u * math.expm1(-a)
    assert math.log(c) / (math.exp(a) * c) == pytest.approx(F, rel=2e-15)
    assert ((1.0 + u) * math.exp(-w) - 1.0) * w / u == pytest.approx(F, rel=2e-15)


@pytest.mark.parametrize("u", OPTIMUM_40)
def test_optimum_matches_40_digits(u):
    F, a = F_of_u(u)
    _, _, w = radii._optimum(u)
    for got, want in zip((F, a, w), OPTIMUM_40[u]):
        assert got == pytest.approx(float(want), rel=2e-15)


@settings(deadline=None)
@given(st.floats(min_value=1.0, max_value=1e300))
def test_a_star_is_stationary(u):
    # h has the sign of the a form's derivative: it changes sign at a*
    def h(a):
        c = 1.0 - u * math.expm1(-a)
        return u * math.exp(-a) * (1.0 - math.log(c)) - c * math.log(c)

    _, a = F_of_u(u)
    assert h(a * (1.0 - 1e-10)) > 0.0 > h(a * (1.0 + 1e-10))


@pytest.mark.parametrize("u", KSTAR_U + LARGE_U)
def test_K_star(u):
    closed, series = K_star(u)
    assert closed == pytest.approx(1.0 / F_of_u(u)[0], rel=1e-12)
    assert abs(closed - series) < 1e-8
    if u == 1.0:
        assert closed == pytest.approx(K_STAR_EXACT, abs=1e-8)
    if u >= 1e6:
        # K*(u) = e + O(1/u), about e + 4.7/u
        assert abs(closed - math.e) <= 10.0 / u


# (closed, series): the closed element from the Lambert W form of F, the
# series from the root of T'(x) = 1 + u
K_STAR_PINS = {
    1.0: (6.9076516977744475, 6.907651697815044),
    2.0: (4.86310374469909, 4.863103744719761),
    10.0: (3.1704705176523715, 3.170470517656783),
    1e2: (2.764795068692055, 2.7647950687000087),
    1e3: (2.7229505931545432, 2.722950593155603),
    1e4: (2.71874888572299, 2.718748885723096),
    1e5: (2.718328536000051, 2.718328536000062),
    1e6: (2.7182864992312985, 2.7182864992313),
    1e7: (2.7182822955364516, 2.718282295536452),
    1e8: (2.718281875166788, 2.718281875166788),
    1e12: (2.718281828463716, 2.7182818284637156),
    1e20: (2.718281828459045, 2.718281828459045),
}


@pytest.mark.parametrize("u", KSTAR_U + LARGE_U)
def test_k_star_pinned_bits(u):
    assert K_star(u) == K_STAR_PINS[u]


@settings(deadline=None)
@given(st.floats(min_value=1.0, max_value=1e300))
def test_k_star_series_matches_closed_form(u):
    closed, series = K_star(u)
    assert series == pytest.approx(1.0 / F_of_u(u)[0], rel=1e-10)
    # the upper bounds on S and T' err towards a larger K*
    assert series >= closed * (1.0 - 1e-15)


def test_rho_star_examples():
    assert rho_star(1.0, 0.0, 2.0) == pytest.approx(0.0723835, abs=1e-6)
    assert rho_star(1.0, 0.0, 4.0 * math.pi / 3.0) == pytest.approx(0.0345606, abs=1e-6)
    assert rho_star(1.0, 0.0, 4.0) == pytest.approx(rho_star(1.0, 0.0, 2.0) / 2.0,
                                                    rel=1e-12)


def test_mayer_radius_examples():
    assert mayer_radius(1.0, 0.0, 2.0) == pytest.approx(1.0 / (2.0 * math.e), rel=1e-12)
    assert mayer_radius(1.0, 0.0, 4.0 * math.pi / 3.0) == pytest.approx(0.0878247, abs=1e-6)
    # beta B = 0.5 shrinks the radius by e
    assert mayer_radius(0.5, 1.0, 2.0) == pytest.approx(
        mayer_radius(1.0, 0.0, 2.0) / math.e, rel=1e-12)


@pytest.mark.parametrize("fn", [mayer_radius, rho_star, radius_report])
def test_overflowing_beta_B_raises(fn):
    # 2 beta B = inf: e^inf does not raise OverflowError, it returns inf
    with pytest.raises(DomainError, match=r"beta\*B"):
        fn(1.0, 1e308, 1.0)


@pytest.mark.parametrize("fn, name", [(rho_star, "density"), (mayer_radius, "fugacity"),
                                      (radius_report, "fugacity")])
@pytest.mark.parametrize("cbeta", [1e-320, 5e-324])
def test_a_radius_past_the_float_range_names_c_beta(fn, name, cbeta):
    # the radii were inf, which the CLI's JSON refused without a name
    with pytest.raises(DomainError,
                       match=rf"the {name} radius overflows at C\(beta\) = {cbeta!r}$"):
        fn(1.0, 0.0, cbeta)


def test_ck_bound_k1():
    _, a_star = F_of_u(1.0)
    b = ck_bound(1, 1.0, 0.0, 2.0, a_star)
    assert b.ours == pytest.approx(5.732, abs=2e-2)
    assert b.lp == pytest.approx(4.0 / 0.28952, rel=1e-12)
    assert b.ours >= 2.0  # dominates |beta_1| for hard rods
    assert b.base_lp == pytest.approx(2.0 * 2.0 / 0.28952, rel=1e-12)
    assert b.base_ours == pytest.approx(math.exp(1.0 + a_star) * 2.0, rel=1e-12)


def test_ck_bound_quotient_is_the_rounded_rational():
    # (k+1)^k / k! by int true division is float(Fraction(...)) up to k = 712,
    # and so are the bits of ours; k = 713 overflows and is refused
    # a small a* keeps bracket * comb finite to k = 712
    beta, B, cbeta, a_star = 1.0, 0.0, 0.3, 1e-3
    for k in range(1, 713):
        comb = float(Fraction((k + 1) ** k, math.factorial(k)))
        assert (k + 1) ** k / math.factorial(k) == comb
        bracket = 1.0 / (k + 1) + math.expm1(a_star) * math.exp(a_star * k)
        ours = bracket * math.exp(2.0 * beta * B * (k - 1)) * comb * cbeta ** k
        assert repr(ck_bound(k, beta, B, cbeta, a_star).ours) == repr(ours)
    with pytest.raises(DomainError, match="order-713 coefficient bounds overflow"):
        ck_bound(713, beta, B, 1e-300, a_star)


@pytest.mark.parametrize("cbeta", [-1.0, 0.0, math.nan])
def test_ck_bound_refuses_a_c_beta_that_is_not_positive(cbeta):
    with pytest.raises(DomainError, match=r"C\(beta\) must be positive"):
        ck_bound(2, 1.0, 0.0, cbeta, A_STAR_EXACT)


def test_reference_arithmetic():
    assert 1.0 / math.exp(1.0 + REFERENCE_A_ZERO_COUPLING) == pytest.approx(
        0.24026, abs=1e-5)
    assert 1.0 / LP_BOUND_DENOMINATOR == pytest.approx(1.0 / 0.28952, rel=1e-15)
    _, a_star = F_of_u(1.0)
    assert 1.0 / math.exp(1.0 + a_star) == pytest.approx(0.2316, abs=1e-3)
    # computed base still beats the comparison constant at u = 1
    assert math.exp(1.0 + a_star) < 2.0 / 0.28952


def test_monotonicity_grid():
    us = [1.0, 2.0, 5.0, 20.0, 100.0, 1e3, 1e4]
    pairs = [F_of_u(u) for u in us]
    Fs = [p[0] for p in pairs]
    As = [p[1] for p in pairs]
    assert all(b > a for a, b in zip(Fs, Fs[1:]))
    assert all(b < a for a, b in zip(As, As[1:]))


def test_radius_report_structure():
    rep = radius_report(1.0, 0.0, 2.0, k_orders=(1, 2, 3))
    assert rep.u == 1.0
    assert rep.g == rep.F
    assert rep.k_star_closed * rep.F == pytest.approx(1.0, rel=1e-10)
    assert 0.0 < rep.F < 1.0 / math.e
    assert rep.rho_star == pytest.approx(rep.F / (rep.u * rep.cbeta), rel=1e-12)
    assert rep.a_star == pytest.approx(A_STAR_EXACT, rel=1e-14)
    assert rep.base_constant_reference == pytest.approx(0.24026, abs=1e-5)
    assert rep.a_discrepancy_flagged
    d = rep.to_dict()
    assert len(d["bounds"]) == 3
    assert d["a_reference"] == REFERENCE_A_ZERO_COUPLING


# ---------------------------------------------------------------------------
# the certified tree-series enclosure
# ---------------------------------------------------------------------------

X_MAX = 1.0 / math.e
xs = st.floats(min_value=sys.float_info.min, max_value=X_MAX)


@settings(deadline=None)
@given(xs, xs)
def test_tree_series_enclosure_ordered_and_increasing(x1, x2):
    x1, x2 = sorted((x1, x2))
    lo1, hi1, tlo1, thi1 = tree_series_excess(x1)
    lo2, hi2, tlo2, thi2 = tree_series_excess(x2)
    assert 0.0 < lo1 <= hi1 and lo2 <= hi2
    assert 0.0 < tlo1 <= thi1 and tlo2 <= thi2
    # adjacent floats may differ by the tail formula's rounding alone
    assume(x2 >= x1 * (1.0 + 1e-12))
    assert lo1 <= lo2 and hi1 <= hi2
    assert tlo1 <= tlo2 and thi1 <= thi2


def test_tree_series_contains_e_at_one_over_e():
    lo, hi, tlo, thi = tree_series_excess(X_MAX)
    assert lo <= math.e - 1.0 <= hi
    assert hi - lo < 2e-9
    # T' = T / (x (1 - T)) diverges as T -> 1
    assert tlo == thi == math.inf


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 40, 300, 10 ** 4, 10 ** 7, 10 ** 10])
def test_tree_series_near_one_over_e(steps):
    # steps floats below 1/e, S - 1 = e (1 - p + 5p^2/6 - 47p^3/72) - 1 + O(p^4)
    # with p = sqrt(2 (1 - e x)): steep in x, so ln z must not carry the
    # rounding of log(x)
    x = X_MAX - steps * 2.0 ** -54
    with localcontext() as ctx:
        ctx.prec = 40
        e = Decimal(1).exp()
        p = (2 * (1 - e * Decimal(x))).sqrt()
        want = e * (1 - p + p * p * 5 / 6 - p ** 3 * 47 / 72) - 1
    lo, hi, _, _ = tree_series_excess(x)
    assert Decimal(lo) <= want <= Decimal(hi)


@pytest.mark.parametrize("x", [0.2, 0.3, 0.35, 0.367,
                               *(X_MAX - k * 2.0 ** -54 for k in (1, 40, 10 ** 4, 10 ** 10))])
def test_tree_derivative_against_lambert_root(x):
    # T e^-T = x by Newton from T = 1 - p + p^2/3 - 11 p^3/72, p = sqrt(2 (1 - e x)),
    # then T' - 1 = T / (x (1 - T)) - 1
    with localcontext() as ctx:
        ctx.prec = 60
        X = Decimal(x)
        p = (2 * (1 - Decimal(1).exp() * X)).sqrt()
        T = 1 - p + p * p / 3 - p ** 3 * 11 / 72
        for _ in range(100):
            T -= (T - X * T.exp()) / (1 - X * T.exp())
        want = T / (X * (1 - T)) - 1
    _, _, lo, hi = tree_series_excess(x)
    assert Decimal(lo) <= want <= Decimal(hi)
    # the p = 1/2 tail integrals are the loosest near lam * 2048 ~ 1 (x ~ 0.3677),
    # where the enclosure is about 1e-8 wide, relative
    assert hi - lo <= 2e-8 * hi


def test_one_over_e_split():
    with localcontext() as ctx:
        ctx.prec = 40
        inv_e = Fraction(Decimal(-1).exp())
    assert abs(Fraction(X_MAX) + Fraction(radii._X_MAX_LO) - inv_e) < Fraction(1, 10 ** 32)


def _assert_contains_exact_sum(x: float, power: int):
    # the exact head S - 1 (or T' - 1) up to the first term whose remainder
    # bound falls below 2^-80 of the head: far inside the 1e-11 relative
    # widening of the enclosure, so the two assertions lose no power
    head, term, n = Fraction(0), Fraction(1), 1
    while True:
        n += 1
        term = term * Fraction(x) * Fraction(n ** (n - 1 + power), n * (n - 1) ** (n - 2 + power))
        # term ratios x (1 + 1/n)^(n-1+power) stay below e x < 2.72 x
        rest = term / (1 - Fraction(272, 100) * Fraction(x))
        if head and rest < head / 2 ** 80:
            break
        head += term
    lo, hi = tree_series_excess(x)[2 * power:2 * power + 2]
    assert Fraction(lo) <= head + rest
    assert head <= Fraction(hi)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=sys.float_info.min, max_value=0.2))
def test_tree_series_contains_exact_sum(x):
    _assert_contains_exact_sum(x, 0)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=sys.float_info.min, max_value=0.2))
def test_tree_derivative_contains_exact_sum(x):
    _assert_contains_exact_sum(x, 1)


@pytest.mark.parametrize("x", [0.0, 5e-324, -0.1, 0.4, math.nan])
def test_tree_series_domain(x):
    with pytest.raises(DomainError):
        tree_series_excess(x)


def _full_head_excess(x: float):
    """``tree_series_excess`` with every head term taken by np.exp, subnormal
    and underflowing ones too."""
    lam = radii._lam(x)
    terms = np.exp(radii._LOG_S - radii._N_MINUS_1 * lam)
    head = float(terms.sum())
    head_t = float(terms @ radii._N)
    widen = radii._HEAD_ROUNDING
    tail = radii._tail_bounds(lam)
    return (head * (1.0 - widen) + tail[0], head * (1.0 + widen) + tail[1],
            head_t * (1.0 - widen) + tail[2], head_t * (1.0 + widen) + tail[3])


def _normal_count(x: float) -> int:
    """The head's count of normal-range exponents."""
    args = radii._LOG_S - radii._N_MINUS_1 * radii._lam(x)
    return int(np.count_nonzero(args >= radii._LOG_NORMAL_MIN))


def test_normal_range_head_keeps_the_bits_of_the_full_head():
    rng = np.random.default_rng(20240)
    xs = np.exp(rng.uniform(math.log(sys.float_info.min), -1.0, 2000)).tolist()
    xs += (X_MAX * -np.expm1(rng.uniform(-40.0, 0.0, 1000))).tolist()
    # either side of x = e^-400, below which only the first term is nonzero
    guard = [math.exp(-400.0) * (1.0 + k * 2e-14) for k in range(-8, 9)]
    # either side of the x where the last exponent crosses ln(2^-1022)
    lam = (radii._LOG_S[-1] - radii._LOG_NORMAL_MIN) / (radii._HEAD_TERMS - 1)
    crossing = [math.exp(-1.0 - lam) * (1.0 + k * 1e-13) for k in range(-20, 21)]
    counts = {_normal_count(x) for x in crossing}
    assert {radii._HEAD_TERMS - 2, radii._HEAD_TERMS - 1} <= counts
    xs += guard + crossing
    xs += [sys.float_info.min, 1e-170, 1e-171, 1e-172, 1e-173, 1e-174, 1e-175, X_MAX]
    for x in xs:
        assert repr(tree_series_excess(x)) == repr(_full_head_excess(x)), x
