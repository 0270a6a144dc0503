import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from clusterkit import tonks
from clusterkit.errors import DomainError, InputError
from clusterkit.series import (
    combi_identity_check,
    free_energy_series,
    invert_mayer_oracle,
    virial_from_mayer,
)


def tonks_b(n_max):
    return {n: tonks.bn_exact(n) for n in range(1, n_max + 1)}


# ---------------------------------------------------------------------------
# the transform and its inversion oracle
# ---------------------------------------------------------------------------

def test_transform_examples():
    b = tonks_b(5)
    assert virial_from_mayer(b, 1) == Fraction(-2)
    assert virial_from_mayer(b, 2) == Fraction(-3, 2)
    assert virial_from_mayer(b, 4) == Fraction(-5, 4)


def test_transform_k2_structure():
    b = {2: -1.0, 3: 1.5}
    # 3 b_3 - 3 (2 b_2)^2 / 2
    assert virial_from_mayer(b, 2) == pytest.approx(3 * 1.5 - 6.0)


def test_transform_missing_input():
    with pytest.raises(InputError):
        virial_from_mayer({2: 1.0}, 2)


def test_inversion_examples():
    b = tonks_b(7)
    inv = invert_mayer_oracle(b, 6)
    for k in range(1, 7):
        assert inv.values[k] == Fraction(-(k + 1), k)


def test_inversion_k1_general():
    b = {1: 1.0, 2: 0.37}
    assert invert_mayer_oracle(b, 1).values[1] == pytest.approx(2 * 0.37)


def test_inversion_requires_unit_b1():
    with pytest.raises(InputError):
        invert_mayer_oracle({1: 0.9, 2: 1.0}, 1)
    with pytest.raises(InputError):
        invert_mayer_oracle({2: 1.0}, 1)


def test_transform_equals_inversion_random():
    rng = random.Random(2024)
    for _ in range(30):
        b = {1: 1.0}
        for n in range(2, 8):
            b[n] = rng.uniform(-1.0, 1.0)
        inv = invert_mayer_oracle(b, 6)
        for k in range(1, 7):
            a = virial_from_mayer(b, k)
            assert abs(a - inv.values[k]) <= 1e-10 * max(1.0, abs(a))


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=25, deadline=None)
@example((12, [Fraction(3 - n % 7, 1 + n % 5) for n in range(12)]))
@given(st.integers(1, 12).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(rationals, min_size=k, max_size=k))))
def test_transform_equals_inversion_exact(case):
    k, values = case
    b = {1: Fraction(1), **{n: v for n, v in enumerate(values, start=2)}}
    assert virial_from_mayer(b, k) == invert_mayer_oracle(b, k).values[k]


def test_float_input_rounds_the_exact_result_once():
    rng = random.Random(11)
    inputs = [{n: float(tonks.bn_exact(n)) for n in range(2, 17)}]
    inputs += [{n: rng.uniform(-1.0, 1.0) for n in range(2, 17)} for _ in range(5)]
    for b in inputs:
        for k in range(1, 16):
            value = virial_from_mayer(b, k)
            assert isinstance(value, float)
            assert value == float(virial_from_mayer({n: Fraction(v) for n, v in b.items()}, k))


def test_transform_rejects_non_finite_input():
    with pytest.raises(InputError):
        virial_from_mayer({2: -1.0, 3: math.nan}, 2)
    # finite b_n whose beta_2 passes the float range: the transform raised a
    # bare OverflowError, and the inversion returned NaN
    with pytest.raises(DomainError, match=r"^beta_2 overflows a float$"):
        virial_from_mayer({2: 1e300, 3: 1e300}, 2)
    with pytest.raises(DomainError, match=r"^beta_2 is nan in floating point"):
        invert_mayer_oracle({1: 1, 2: 1e300, 3: 1e300}, 2)


@pytest.mark.parametrize("bad", ["0.5", True, 1j, math.nan, math.inf, -math.inf],
                         ids=["string", "bool", "complex", "nan", "inf", "-inf"])
@pytest.mark.parametrize("route", [
    lambda b: virial_from_mayer(b, 2),
    lambda b: invert_mayer_oracle({1: 1, **b}, 2).values[2],
], ids=["transform", "inversion"])
def test_both_routes_refuse_a_b_that_is_not_a_finite_real_by_name(route, bad):
    # refused by name, not parsed (a string), taken as 1 (a bool) or carried through (NaN)
    with pytest.raises(InputError, match=rf"\bb_3 must be a finite real, got {re.escape(repr(bad))}"):
        route({2: -1.0, 3: bad})


@pytest.mark.parametrize("bad", ["0.5", True, 1j, math.nan, math.inf, -math.inf],
                         ids=["string", "bool", "complex", "nan", "inf", "-inf"])
def test_free_energy_refuses_a_c_k_that_is_not_a_finite_real_by_name(bad):
    # NaN and inf once gave a certified value of NaN or inf, and '1' was read as 1.0
    with pytest.raises(InputError, match=rf"^density-series coefficient C_2 must be a finite "
                                         rf"real, got {re.escape(repr(bad))}$"):
        free_energy_series(0.01, {1: -2.0, 2: bad}, 2, 1.0, 0.0, 2.0)


# ---------------------------------------------------------------------------
# the exact binomial identity
# ---------------------------------------------------------------------------

def test_combi_examples():
    assert combi_identity_check((1, 2), 2, 2) == (1, 1)
    assert combi_identity_check((1, 2, 2), 3, 3) == (5, 5)
    assert combi_identity_check((2, 2, 2, 2), 4, 5) == (28, 28)


def test_combi_validation():
    with pytest.raises(InputError):
        combi_identity_check((2, 2), 2, 2)  # wrong sum
    with pytest.raises(InputError):
        combi_identity_check((1, 1), 2, 1)  # t_2 < 2
    with pytest.raises(InputError):
        combi_identity_check((3,), 1, 3)  # n < 2
    # a fraction was truncated: (1.5, 2.5) ran as (1, 2)
    for t, bad in (((1.5, 2.5), "1.5"), ((1, True), "True")):
        with pytest.raises(InputError, match=rf"^every t_i must be an integer >= 1, got {bad}$"):
            combi_identity_check(t, 2, 2)


# ---------------------------------------------------------------------------
# free-energy assembly
# ---------------------------------------------------------------------------

def test_free_energy_series_zero_density():
    est = free_energy_series(0.0, {1: -2.0, 2: -1.5}, 2, 1.0, 0.0, 2.0)
    assert est.value == 0.0
    assert est.tail_bound == 0.0
    assert est.certified


def test_free_energy_series_tonks():
    coeffs = {k: tonks.beta_k_value(k) for k in range(1, 10)}
    for rho, k_max in ((0.05, 6), (0.07, 8)):
        est = free_energy_series(rho, coeffs, k_max, 1.0, 0.0, 2.0)
        closed = tonks.q_infinite_volume(rho)
        assert est.certified
        assert abs(est.value - closed) <= est.tail_bound


def test_free_energy_series_uncertified():
    coeffs = {k: tonks.beta_k_value(k) for k in range(1, 7)}
    est = free_energy_series(0.5, coeffs, 6, 1.0, 0.0, 2.0)
    assert not est.certified
    assert math.isnan(est.tail_bound)


def test_tail_shrinks_with_more_terms():
    coeffs = {k: tonks.beta_k_value(k) for k in range(1, 10)}
    tails = [free_energy_series(0.05, coeffs, k, 1.0, 0.0, 2.0).tail_bound
             for k in (4, 6, 8)]
    assert tails[0] > tails[1] > tails[2]
