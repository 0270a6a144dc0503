"""Tests of the benchmark's oracles, against each other and against closed forms.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as orc  # noqa: E402

HALF3 = Fraction(3, 2)


def pressure_from_beta(beta):
    """B_(k+1) = -k/(k+1) beta_k."""
    return {k + 1: -Fraction(k, k + 1) * v for k, v in beta.items()}


# -- nearest-neighbour gas ------------------------------------------------------


def test_hard_rods_are_the_epsilon_zero_well():
    b = orc.nn_mayer_b(Fraction(1), Fraction(1), HALF3, 8)
    assert all(b[n] == orc.tonks_b(n) for n in range(1, 9))
    beta = orc.nn_virial_beta(Fraction(1), Fraction(1), HALF3, 6)
    assert beta == {k: -Fraction(k + 1, k) for k in range(1, 7)}


@pytest.mark.parametrize("w", [Fraction(1), Fraction(5, 2), Fraction(1, 3)])
def test_isobaric_virial_and_lagrange_b_agree(w):
    """The two Lagrange inversions of the well are the same gas."""
    beta = orc.nn_virial_beta(w, Fraction(1), HALF3, 5)
    b = orc.mayer_from_virial(pressure_from_beta(beta), 6)
    assert b == orc.nn_mayer_b(w, Fraction(1), HALF3, 6)


def test_well_b2_is_half_the_pair_integral():
    w = Fraction(7, 3)
    # integral of f over R: -2 sigma (core) + 2 (lam - 1) sigma (w - 1) (well)
    pair = -2 + 2 * (HALF3 - 1) * (w - 1)
    assert orc.nn_mayer_b(w, Fraction(1), HALF3, 2)[2] == pair / 2


def test_well_box_matches_hard_rods_and_a_grid_sum():
    L = Fraction(29, 4)
    for N in range(1, 6):
        assert orc.nn_ztilde_box(Fraction(1), Fraction(1), HALF3, L, N) == (1 - (N - 1) / L) ** N
    # N = 2 by a midpoint sum over [0, L]^2
    w, m = 2.5, 1500
    h = float(L) / m
    x = [(i + 0.5) * h for i in range(m)]
    total = 0.0
    for xi in x:
        for xj in x:
            r = abs(xi - xj)
            total += 0.0 if r < 1.0 else (w if r < 1.5 else 1.0)
    grid = total * h * h / float(L) ** 2
    assert grid == pytest.approx(float(orc.nn_ztilde_box(Fraction(5, 2), Fraction(1), HALF3, L, 2)),
                                 abs=2e-3)


def test_nearest_neighbour_needs_a_short_well():
    with pytest.raises(ValueError):
        orc.nn_mayer_b(Fraction(2), Fraction(1), Fraction(2), 3)


# -- hard rods in a box -----------------------------------------------------------


def test_rod_box_b2_closed_form_and_large_box_limit():
    for L in (Fraction(10), Fraction(21, 2)):
        assert orc.rod_box_b(L, 2)[2] == -1 + 1 / (2 * L)
    big = orc.rod_box_b(Fraction(10 ** 6), 5)
    for n in range(2, 6):
        assert float(big[n]) == pytest.approx(float(orc.tonks_b(n)), rel=1e-4)


# -- hard spheres ---------------------------------------------------------------


def test_hard_sphere_references():
    B = orc.hard_sphere_virial()
    assert B[2] == pytest.approx(2.0943951023931953)
    assert B[4] / B[2] ** 3 == pytest.approx(0.2869495, abs=1e-7)
    b = orc.mayer_from_virial(B, 4)
    assert b[2] == pytest.approx(-B[2])
    assert b[3] == pytest.approx(2 * B[2] ** 2 - B[3] / 2)
    assert b[4] == pytest.approx((20 * B[2] ** 3 - 18 * B[2] * b[3] - B[4]) / 3)


def test_mayer_from_virial_inverts_tonks():
    b = orc.mayer_from_virial({n: Fraction(1) for n in range(2, 8)}, 7)
    assert all(b[n] == orc.tonks_b(n) for n in range(2, 8))


# -- polymer gas ----------------------------------------------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for mates in itertools.combinations(rest, k):
            left = [x for x in rest if x not in mates]
            for tail in _set_partitions(left):
                yield [(first,) + mates] + tail


def test_polymer_xi_against_set_partitions():
    zeta = {2: Fraction(-3, 7), 3: Fraction(5, 2), 5: Fraction(-1, 9)}
    for N in range(0, 7):
        brute = Fraction(0)
        for part in _set_partitions(list(range(N))):
            prod = Fraction(1)
            for block in part:
                if len(block) > 1:
                    prod *= zeta.get(len(block), 0)
            brute += prod
        assert orc.polymer_xi(N, zeta) == brute


def test_polymer_log_terms():
    z = Fraction(-2, 5)
    assert orc.polymer_log_terms(2, {2: z}, 4) == {1: z, 2: -z ** 2 / 2, 3: z ** 3 / 3,
                                                   4: -z ** 4 / 4}
    zeta = {2: Fraction(1, 3), 3: Fraction(-4, 7), 4: Fraction(2, 5)}
    first = sum(math.comb(6, m) * v for m, v in zeta.items())
    assert orc.polymer_log_terms(6, zeta, 1)[1] == first


def test_tree_factor_closed_forms():
    N = 7
    for s in (2, 3, 5):
        assert orc.tree_factor(N, (s,)) == Fraction(math.comb(N, s), N ** s)
    meet = math.comb(N, 2) - math.comb(N - 2, 2)
    assert orc.tree_factor(N, (2, 2)) == Fraction(math.comb(N, 2) * meet, N ** 3)


def test_finite_n_coefficient_order_one():
    b = {2: Fraction(-5, 3), 3: Fraction(1, 2)}
    for N in (4, 7, 10):
        assert orc.finite_n_coefficient(N, b, 1) == 2 * b[2] * (1 - Fraction(1, N))


# -- graphs ---------------------------------------------------------------------


def test_ursell_families():
    for n in range(2, 6):
        complete = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        path = [(i, i + 1) for i in range(1, n)]
        assert orc.ursell(n, complete) == (-1) ** (n - 1) * math.factorial(n - 1)
        assert orc.ursell(n, path) == (-1) ** (n - 1)
        if n >= 3:
            assert orc.ursell(n, path + [(1, n)]) == (-1) ** (n - 1) * (n - 1)
    assert orc.ursell(4, [(1, 2), (3, 4)]) == 0


def test_connected_graph_counts():
    assert [orc.count_connected_labeled(n) for n in range(1, 7)] == [1, 1, 4, 38, 728, 26704]
    for n in range(1, 6):
        assert len(orc.connected_graphs(n)) == orc.count_connected_labeled(n)


# -- radii ------------------------------------------------------------------------


def _F_by_golden_section(u):
    """Maximize the a form ln(c)/(e^a c), c = 1 + u (1 - e^-a), directly."""
    def obj(a):
        c = 1.0 - u * math.expm1(-a)
        return math.log(c) / (math.exp(a) * c)
    lo, hi = 1e-12, 30.0
    for _ in range(400):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if obj(m1) < obj(m2):
            lo = m1
        else:
            hi = m2
    return obj(0.5 * (lo + hi))


@pytest.mark.parametrize("u", [1.0, 3.0, 100.0, 1e5])
def test_radius_F_matches_the_a_form(u):
    F, a, w = orc.radius_F(u)
    assert F == pytest.approx(_F_by_golden_section(u), abs=1e-12)
    assert w == pytest.approx(math.log(1.0 + u * (1.0 - math.exp(-a))), abs=1e-12)


def test_radius_F_large_u_limit():
    assert orc.radius_F(1e12)[0] == pytest.approx(1.0 / math.e, abs=1e-5)
