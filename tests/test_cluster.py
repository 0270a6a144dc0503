import math

import numpy as np
import pytest

from clusterkit import tonks
from clusterkit.cluster import (
    connected_weight_sum,
    mayer_bn,
    penrose_bn_bound,
    virial_bk_direct,
)
from clusterkit.errors import CapacityError, ConfigError, DomainError
from clusterkit.graphs import enum_graphs, vertex_pairs
from clusterkit.potentials import c_beta

# closed-form hard-sphere references (sigma = 1, d = 3):
# pair integral -4 pi/3; third-order coefficients from the classical
# second/third virial values B2 = 2 pi/3, B3 = 5 pi^2/18
HS_B2 = -2.0 * math.pi / 3.0
HS_B3 = 3.0 * math.pi ** 2 / 4.0
HS_BETA2 = -5.0 * math.pi ** 2 / 12.0


# ---------------------------------------------------------------------------
# quadrature against the hard-rod closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_mayer_bn_tonks(rod, n):
    val, err = mayer_bn(rod, 1.0, n)
    exact = tonks.bn_value(n)
    assert val == pytest.approx(exact, rel=1e-9)
    assert err < 1e-9


def test_mayer_bn_examples(rod, sphere):
    assert mayer_bn(rod, 1.0, 2)[0] == pytest.approx(-1.0, rel=1e-12)
    assert mayer_bn(rod, 1.0, 3)[0] == pytest.approx(1.5, rel=1e-12)
    assert mayer_bn(rod, 1.0, 4)[0] == pytest.approx(-8.0 / 3.0, rel=1e-12)
    assert mayer_bn(sphere, 1.0, 2)[0] == pytest.approx(HS_B2, rel=1e-12)


def test_mayer_b1_is_one(rod):
    assert mayer_bn(rod, 1.0, 1) == (1.0, 0.0)


@pytest.mark.parametrize("k,expect", [(1, -2.0), (2, -1.5), (3, -4.0 / 3.0)])
def test_virial_direct_tonks(rod, k, expect):
    val, err = virial_bk_direct(rod, 1.0, k)
    assert val == pytest.approx(expect, rel=1e-9)


def test_square_well_b2_analytic(well):
    val, err = mayer_bn(well, 1.0, 2)
    expect = -1.0 + 0.5 * (math.e - 1.0)
    assert val == pytest.approx(expect, rel=1e-12)


def test_square_well_b3_grid_reference(well):
    # frozen from an independent midpoint-grid computation of the three
    # wedge graphs plus the triangle (converged to ~5e-5 absolute)
    val, err = mayer_bn(well, 1.0, 3)
    assert val == pytest.approx(-0.554085, abs=5e-5)


def test_small_box_coefficients(rod):
    # below the core diameter every pair overlaps: b_2(L) = -L/2
    for L in (0.5, 0.8, 1.0):
        val, _ = mayer_bn(rod, 1.0, 2, volume=L)
        assert val == pytest.approx(-L / 2.0, rel=1e-12)
    # cross-checked against plain box Monte Carlo
    val, _ = mayer_bn(rod, 1.0, 3, volume=1.5)
    assert val == pytest.approx(0.625, rel=1e-10)


def test_finite_volume_drift(rod):
    # b_2(L) = -1 + 1/(2L) exactly
    for L in (20.0, 50.0):
        val, _ = mayer_bn(rod, 1.0, 2, volume=L)
        assert val == pytest.approx(-1.0 + 1.0 / (2.0 * L), rel=1e-12)
    drifts = []
    for L in (25.0, 50.0, 100.0):
        val, _ = mayer_bn(rod, 1.0, 3, volume=L)
        drifts.append(abs(val - 1.5))
    assert drifts[0] / drifts[1] == pytest.approx(2.0, rel=1e-6)
    assert drifts[1] / drifts[2] == pytest.approx(2.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_worker_count_independent(sphere, rod):
    base = mayer_bn(sphere, 1.0, 3, method="monte_carlo", seed=12, samples=60_000)
    pooled = mayer_bn(sphere, 1.0, 3, method="monte_carlo", seed=12,
                      samples=60_000, workers=4)
    assert base == pooled
    v1 = virial_bk_direct(sphere, 1.0, 2, method="monte_carlo", seed=12,
                          samples=60_000)
    v4 = virial_bk_direct(sphere, 1.0, 2, method="monte_carlo", seed=12,
                          samples=60_000, workers=4)
    assert v1 == v4


@pytest.mark.parametrize("seed", [1, 2])
def test_mc_too_few_nonzero_chunks(sphere, seed):
    # hard-sphere b_5 at the default 400k samples: seed 2 leaves every chunk
    # mean zero and seed 1 all but one
    with pytest.raises(DomainError, match=r"only [01] of 20 .*raise samples"):
        mayer_bn(sphere, 1.0, 5, method="monte_carlo", seed=seed)


def test_mc_seed_mandatory(sphere):
    with pytest.raises(ConfigError):
        mayer_bn(sphere, 1.0, 3, method="monte_carlo")


def test_mc_hard_sphere_b3(sphere):
    val, err = mayer_bn(sphere, 1.0, 3, method="monte_carlo", seed=7, samples=600_000)
    assert abs(val - HS_B3) < 4.0 * err


def test_mc_hard_rod_matches_quadrature(rod):
    val, err = mayer_bn(rod, 1.0, 4, method="monte_carlo", seed=3, samples=400_000)
    assert abs(val - tonks.bn_value(4)) < 4.0 * err


@pytest.mark.parametrize("L", [1.5, 10.0])
def test_mc_box_matches_quadrature(rod, L):
    # box b_3 draws all three points uniformly in [0, L]
    kwargs = dict(volume=L, method="monte_carlo", seed=3, samples=200_000)
    val, err = mayer_bn(rod, 1.0, 3, **kwargs)
    want, _ = mayer_bn(rod, 1.0, 3, volume=L)
    assert err > 0.0
    assert abs(val - want) < 4.0 * err
    assert mayer_bn(rod, 1.0, 3, workers=3, **kwargs) == (val, err)


def test_mc_virial_hard_sphere(sphere):
    val, err = virial_bk_direct(sphere, 1.0, 2, method="monte_carlo", seed=17,
                                samples=600_000)
    assert abs(val - HS_BETA2) < 4.0 * err


def test_virial_k1_radial(sphere):
    val, err = virial_bk_direct(sphere, 1.0, 1)
    assert val == pytest.approx(2.0 * HS_B2, rel=1e-12)


# ---------------------------------------------------------------------------
# capacity and validation
# ---------------------------------------------------------------------------

def test_capacity_errors(rod, sphere):
    with pytest.raises(CapacityError):
        mayer_bn(rod, 1.0, 7)
    with pytest.raises(CapacityError):
        mayer_bn(sphere, 1.0, 3)  # d=3 quadrature beyond the pair integral
    with pytest.raises(CapacityError):
        mayer_bn(rod, 1.0, 6, method="monte_carlo", seed=1)
    with pytest.raises(CapacityError):
        virial_bk_direct(rod, 1.0, 4)
    with pytest.raises(CapacityError):
        virial_bk_direct(sphere, 1.0, 3, method="monte_carlo", seed=1)


# ---------------------------------------------------------------------------
# the uniform coefficient bound
# ---------------------------------------------------------------------------

def test_penrose_bound_examples():
    assert penrose_bn_bound(2, 1.0, 0.0, 2.0) == pytest.approx(1.0)
    assert penrose_bn_bound(3, 1.0, 0.0, 2.0) == pytest.approx(2.0)
    assert penrose_bn_bound(4, 1.0, 0.0, 2.0) == pytest.approx(16.0 / 3.0)


def test_penrose_bound_dominates_data(rod, sphere):
    cb_rod, _ = c_beta(rod, 1.0)
    for n in range(2, 7):
        val, err = mayer_bn(rod, 1.0, n)
        assert abs(val) <= penrose_bn_bound(n, 1.0, 0.0, cb_rod) + 3.0 * err
    cb_hs, _ = c_beta(sphere, 1.0)
    val, err = mayer_bn(sphere, 1.0, 2)
    # sign-definite bond: the n = 2 bound is saturated exactly
    assert abs(val) == pytest.approx(penrose_bn_bound(2, 1.0, 0.0, cb_hs), rel=1e-12)


def test_penrose_bound_beta_dependence():
    b0 = penrose_bn_bound(4, 1.0, 0.0, 2.0)
    b1 = penrose_bn_bound(4, 1.0, 0.5, 2.0)
    assert b1 == pytest.approx(b0 * math.exp(2.0 * 1.0 * 0.5 * 2))


# ---------------------------------------------------------------------------
# the connected-sum evaluator
# ---------------------------------------------------------------------------

def test_connected_weight_sum_matches_graph_expansion():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        pairs = vertex_pairs(n)
        fv = rng.uniform(-1.0, 1.0, size=(10, len(pairs)))
        got = connected_weight_sum(fv, n)
        col = {e: i for i, e in enumerate(pairs)}
        want = np.zeros(10)
        for g in enum_graphs(n, "connected"):
            prod = np.ones(10)
            for e in sorted(g.edges):
                prod *= fv[:, col[e]]
            want += prod
        assert np.allclose(got, want, atol=1e-12)
