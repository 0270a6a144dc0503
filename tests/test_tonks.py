"""Re-derivation checks for the hard-rod oracle itself.

The closed forms everything else is tested against must satisfy their own
defining relations: the fugacity series solves w e^(sigma w) = lambda, the
density series reproduces the equation of state, and the free-energy series
sums to rho ln(1 - rho sigma).
"""

import math

import pytest

from clusterkit import tonks
from clusterkit.errors import JammedError


def test_fugacity_series_solves_functional_equation():
    # w(lambda) = sum b_n lambda^n must satisfy w e^w = lambda (sigma = 1)
    for lam in (0.01, 0.05, 0.1):
        w = sum(tonks.bn_value(n) * lam ** n for n in range(1, 40))
        assert w * math.exp(w) == pytest.approx(lam, rel=1e-12)


def test_density_relation():
    # rho = lambda dP/dlambda: term-by-term, rho(lambda) = sum n b_n lambda^n,
    # and the pair must satisfy the equation of state
    for lam in (0.02, 0.08):
        w = sum(tonks.bn_value(n) * lam ** n for n in range(1, 40))
        rho = sum(n * tonks.bn_value(n) * lam ** n for n in range(1, 40))
        assert w == pytest.approx(tonks.pressure(rho), rel=1e-10)


def test_virial_series_matches_equation_of_state():
    # beta P = rho - sum k/(k+1) beta_k rho^(k+1) resummed against the closed form
    for rho in (0.02, 0.05):
        p = rho - sum(
            k / (k + 1) * tonks.beta_k_value(k) * rho ** (k + 1)
            for k in range(1, 60)
        )
        assert p == pytest.approx(tonks.pressure(rho), rel=1e-12)


def test_free_energy_series_sums_to_closed_form():
    for rho in (0.03, 0.06):
        q = sum(
            tonks.beta_k_value(k) / (k + 1) * rho ** (k + 1) for k in range(1, 80)
        )
        assert q == pytest.approx(tonks.q_infinite_volume(rho), rel=1e-12)


def test_scaling_in_sigma():
    assert tonks.bn_value(3, sigma=2.0) == pytest.approx(tonks.bn_value(3) * 4.0)
    assert tonks.beta_k_value(2, sigma=2.0) == pytest.approx(
        tonks.beta_k_value(2) * 4.0)


def test_ztilde_closed_form_properties():
    # free length to the N-th power; the box term (1/L) ln ztilde consistent with it
    assert tonks.ztilde_closed(3, 10.0) == pytest.approx((0.8) ** 3)
    assert math.log(tonks.ztilde_closed(3, 10.0)) / 10.0 == pytest.approx(math.log(0.512) / 10.0)
    with pytest.raises(JammedError):
        tonks.ztilde_closed(11, 10.0)
    with pytest.raises(JammedError):
        tonks.pressure(1.0)
