"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion as it completes.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from clusterkit import tonks
from clusterkit.canonical import compare_series_direct
from clusterkit.cluster import mayer_bn, penrose_bn_bound, virial_bk_direct
from clusterkit.polymer import ActivityProfile, ck_finite_N, log_xi_ursell, xi_exact
from clusterkit.potentials import PairPotential, c_beta
from clusterkit.radii import (
    F_of_u,
    LP_BOUND_DENOMINATOR,
    REFERENCE_A_ZERO_COUPLING,
    ck_bound,
    g_of_u,
    radius_report,
)
from clusterkit.series import combi_identity_check, invert_mayer_oracle, virial_from_mayer
from clusterkit.verify import _combi_tuples, _fit_slope, penrose_identity_random, penrose_identity_scan

ROD = PairPotential("hard_rod", 1.0, 1)
SPHERE = PairPotential("hard_sphere", 1.0, 3)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {title}")


def test_criterion_1_radius_constants():
    with criterion(1, "radius constants: F(1), g = F, large-u limit"):
        F1, _ = F_of_u(1.0)
        assert abs(F1 - 0.1448) <= 5e-4
        for u in (1.0, 2.0, 5.0, 10.0, 100.0):
            assert abs(g_of_u(u)[0] - F_of_u(u)[0]) <= 1e-10
        F_big, _ = F_of_u(1e6)
        assert abs(F_big - 1.0 / math.e) <= 1e-2


def test_criterion_2_reference_arithmetic():
    with criterion(2, "reference-value arithmetic and discrepancy flag"):
        assert abs(1.0 / math.exp(1.0 + 0.426) - 0.24026) <= 1e-5
        assert REFERENCE_A_ZERO_COUPLING == 0.426
        assert 1.0 / LP_BOUND_DENOMINATOR == 1.0 / 0.28952
        rep = radius_report(1.0, 0.0, 2.0)
        assert abs(rep.base_constant_reference - 0.24026) <= 1e-5
        # the computed maximizer is reported alongside and flagged
        assert rep.a_star == pytest.approx(0.46228, abs=1e-4)
        assert rep.a_discrepancy_flagged


def test_criterion_3_tonks_pipeline():
    with criterion(3, "hard-rod pipeline: coefficients and three virial routes"):
        for n in range(2, 6):
            val, _ = mayer_bn(ROD, 1.0, n)
            exact = tonks.bn_value(n)
            assert abs(val - exact) / abs(exact) <= 1e-6
        b = {1: 1.0}
        for n in range(2, 5):
            b[n], _ = mayer_bn(ROD, 1.0, n)
        inv = invert_mayer_oracle(b, 3)
        for k in range(1, 4):
            routes = [
                float(virial_from_mayer(b, k)),
                float(inv.coeff(k)),
                virial_bk_direct(ROD, 1.0, k)[0],
            ]
            exact = -(k + 1) / k
            for r in routes:
                assert abs(r - exact) <= 1e-6 * abs(exact)
            assert max(routes) - min(routes) <= 1e-6


def test_criterion_4_penrose_identity():
    with criterion(4, "tree identity: exhaustive n <= 6 plus 100 random n = 7"):
        for n in range(2, 7):
            total, mismatches = penrose_identity_scan(n)
            assert mismatches == 0, f"n={n}: {mismatches} of {total} failed"
        total, mismatches = penrose_identity_random(7, 100, seed=20260808)
        assert total == 100 and mismatches == 0


def test_criterion_5_combinatorial_identity():
    with criterion(5, "bounded-composition identity, exhaustive n + k <= 12"):
        checked = 0
        for n in range(2, 11):
            for k in range(1, 13 - n):
                for t in _combi_tuples(n, k):
                    lhs, rhs = combi_identity_check(t, n, k)
                    assert lhs == rhs, f"n={n} k={k} t={t}: {lhs} != {rhs}"
                    checked += 1
        assert checked > 200


def test_criterion_6_polymer_exactness():
    with criterion(6, "partition function: recursion = brute force; 4th-power tail"):
        rng = random.Random(618)
        for trial in range(100):
            N = rng.randint(2, 7)
            prof = ActivityProfile(
                N,
                {m: Fraction(rng.randint(-60, 60), rng.randint(1, 40))
                 for m in range(2, N + 1)},
            )
            assert xi_exact(N, prof, "recursion") == xi_exact(N, prof, "bruteforce")
        base = {2: 0.03, 3: -0.02, 4: 0.015}
        xs, ys = [], []
        for lam in (1.0, 0.5, 0.25, 0.125):
            prof = ActivityProfile(4, {m: lam * v for m, v in base.items()})
            partial = sum(float(t) for t in log_xi_ursell(4, prof, 3).values())
            resid = abs(math.log(float(xi_exact(4, prof))) - partial)
            xs.append(math.log(lam))
            ys.append(math.log(resid))
        slope = _fit_slope(xs, ys)
        assert abs(slope - 4.0) <= 0.2, f"slope {slope}"


def test_criterion_7_finite_N_convergence():
    with criterion(7, "finite-N coefficients: k=1 exact, k=2 residual ~ 1/N"):
        b = {n: tonks.bn_exact(n) for n in range(2, 4)}
        for N in range(2, 11):
            assert ck_finite_N(N, b, 1) == 2 * b[2] * (1 - Fraction(1, N))
        xs, ys = [], []
        for N in range(6, 11):
            resid = abs(float(ck_finite_N(N, b, 2)) - (-1.5))
            xs.append(math.log(1.0 / N))
            ys.append(math.log(resid))
        slope = _fit_slope(xs, ys)
        assert abs(slope - 1.0) <= 0.15, f"slope {slope}"


def test_criterion_8_end_to_end():
    with criterion(8, "series vs direct with budgets, plus both bound chains"):
        rho = 0.05
        xs, ys = [], []
        for N in (50, 100, 200, 400):
            rep = compare_series_direct(ROD, 1.0, N / rho, N, 8)
            assert rep.passed, f"budget failed at N={N}: gap {rep.gap} > {rep.budget}"
            xs.append(math.log(N))
            ys.append(math.log(rep.gap))
        slope = _fit_slope(xs, ys)
        assert abs(slope + 1.0) <= 0.1, f"gap slope {slope}"

        # bound chain on every coefficient computed in this run
        cb_rod, _ = c_beta(ROD, 1.0)
        rod_b = {}
        for n in range(2, 7):
            rod_b[n], err = mayer_bn(ROD, 1.0, n)
            assert abs(rod_b[n]) <= penrose_bn_bound(n, 1.0, 0.0, cb_rod) + 3 * err
        cb_hs, _ = c_beta(SPHERE, 1.0)
        hs_b2, err2 = mayer_bn(SPHERE, 1.0, 2)
        assert abs(hs_b2) <= penrose_bn_bound(2, 1.0, 0.0, cb_hs) + 3 * err2 + 1e-12
        hs_b3, err3 = mayer_bn(SPHERE, 1.0, 3, method="monte_carlo", seed=8,
                               samples=400_000)
        assert abs(hs_b3) <= penrose_bn_bound(3, 1.0, 0.0, cb_hs) + 3 * err3

        _, a_star_rod = F_of_u(1.0)
        rod_b[1] = 1.0
        for k in range(1, 6):
            ck = float(virial_from_mayer(rod_b, k))
            assert abs(ck) <= ck_bound(k, 1.0, 0.0, cb_rod, a_star_rod).ours
        hs_map = {1: 1.0, 2: hs_b2, 3: hs_b3}
        for k in (1, 2):
            ck = float(virial_from_mayer(hs_map, k))
            slack = 3.0 * (3.0 * err3 if k == 2 else 0.0)
            assert abs(ck) <= ck_bound(k, 1.0, 0.0, cb_hs, a_star_rod).ours + slack
