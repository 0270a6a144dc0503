import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterkit import tonks
from clusterkit.canonical import (
    ZTILDE_QUADRATURE_MAX_N,
    CanonicalResult,
    compare_series_direct,
    q_lambda,
    ztilde_direct,
)
from clusterkit.cluster import (
    _boltzmann_factors,
    _level_count_factors,
    _pair_distances,
    _well_powers,
    mayer_bn,
)
from clusterkit.errors import CapacityError, ConfigError, DomainError, JammedError
from clusterkit.graphs import vertex_pairs
from clusterkit.potentials import PairPotential, bond_level_values
from clusterkit.quadrature import bond_levels
from clusterkit.series import virial_from_mayer


def test_ztilde_single_particle(rod):
    res = ztilde_direct(rod, 1.0, 5.0, 1)
    assert res.ztilde == 1.0 and res.error == 0.0


def test_ztilde_closed_examples(rod):
    assert ztilde_direct(rod, 1.0, 10.0, 2, "tonks_closed").ztilde == pytest.approx(0.81)
    assert ztilde_direct(rod, 1.0, 10.0, 3, "tonks_closed").ztilde == pytest.approx(0.512)


def test_ztilde_jammed(rod):
    with pytest.raises(JammedError):
        ztilde_direct(rod, 1.0, 2.0, 4, "tonks_closed")
    with pytest.raises(JammedError):
        tonks.ztilde_closed(4, 3.0)


def test_ztilde_quadrature_square_well(well):
    # N = 2 closed form: (2/L^2) int_0^L (L-t) e^{-beta V(t)} dt
    L, beta = 10.0, 1.0
    e = math.exp(beta * well.epsilon)
    exact = 2.0 / L ** 2 * (
        e * (L * 0.5 - (1.5 ** 2 - 1.0) / 2.0) + (L - 1.5) ** 2 / 2.0
    )
    got = ztilde_direct(well, beta, L, 2, "quadrature")
    assert got.ztilde == pytest.approx(exact, rel=1e-12)


def test_ztilde_monte_carlo(rod):
    res = ztilde_direct(rod, 1.0, 20.0, 8, "monte_carlo", seed=31, samples=200_000)
    closed = tonks.ztilde_closed(8, 20.0)
    assert abs(res.ztilde - closed) < 3.0 * res.error
    again = ztilde_direct(rod, 1.0, 20.0, 8, "monte_carlo", seed=31, samples=200_000)
    assert res.ztilde == again.ztilde
    pooled = ztilde_direct(rod, 1.0, 20.0, 8, "monte_carlo", seed=31,
                           samples=200_000, workers=3)
    assert res.ztilde == pooled.ztilde


def test_ztilde_monte_carlo_too_few_nonzero_chunks(sphere):
    # packing fraction 0.45: no sample of 12 spheres is overlap-free
    with pytest.raises(DomainError, match=r"only 0 of 2 .*raise samples"):
        ztilde_direct(sphere, 1.0, 2.4, 12, "monte_carlo", seed=1, samples=40_000)


# ---------------------------------------------------------------------------
# the level-count kernel against the pair-by-pair product
# ---------------------------------------------------------------------------

def _pair_product(dists, m, cuts, level_factors):
    """The Boltzmann factor multiplied pair by pair, each pair's factor read
    from one value per bond level: the kernel the level counts replace."""
    boltz = np.ones(m)
    for r in dists:
        boltz *= level_factors.take(bond_levels(r, cuts))
    return boltz


def _distances(pts):
    return [_pair_distances(pts[i - 1], pts[j - 1], np.empty(pts[0].shape[1]),
                            np.empty(pts[0].shape))
            for i, j in vertex_pairs(len(pts))]


@st.composite
def level_count_cases(draw):
    kind = draw(st.sampled_from(["hard_rod", "hard_sphere", "square_well"]))
    d = 1 if kind == "hard_rod" else draw(st.integers(1, 3))
    N = draw(st.integers(2, 12))
    m = draw(st.integers(1, 64))
    side = draw(st.sampled_from([2.0, 5.0, 12.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # grid coordinates put distances exactly on the cuts
        pts = rng.integers(0, int(4 * side) + 1, (N, d, m)) / 4
    else:
        pts = rng.random((N, d, m)) * side
    sigma = draw(st.sampled_from([0.5, 1.0, 1.25]))
    if kind == "square_well":
        # negative depths (a repulsive shoulder, w < 1) exercise the same arithmetic
        cuts = (sigma, sigma * draw(st.sampled_from([1.5, 2.0])))
        values = np.array([-1.0, math.expm1(draw(st.floats(-3.0, 5.0))), 0.0])
    else:
        cuts, values = (sigma,), np.array([-1.0, 0.0])
    return list(pts), cuts, values


@settings(max_examples=150, deadline=None)
@given(level_count_cases())
def test_level_counts_are_bitwise_pair_product(case):
    pts, cuts, values = case
    dists, m = _distances(pts), pts[0].shape[1]
    want = _pair_product(dists, m, cuts, 1.0 + values)
    got = _level_count_factors(iter(dists), m, cuts, _well_powers(1.0 + values[1], len(dists)))
    finite = np.isfinite(want)
    assert got[finite].tobytes() == want[finite].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p, beta", [
    (PairPotential("hard_sphere", 1.0, 3), 1.0),
    (PairPotential("square_well", 1.0, 3, epsilon=1.0, lambda_w=1.5, B=1.0), 1.0),
    # w^66 overflows: the pair-by-pair product, NaN and inf included
    (PairPotential("square_well", 1.0, 3, epsilon=1.0, lambda_w=1.5, B=1.0), 100.0),
], ids=["hard_sphere", "square_well", "square_well overflow"])
def test_boltzmann_factors_are_bitwise_pair_product(p, beta):
    rng = np.random.default_rng(5)
    pts = list(rng.random((12, 3, 4000)) * 4.0)
    dists = _distances(pts)
    want = _pair_product(dists, 4000, p.breakpoints(), 1.0 + bond_level_values(p, beta))
    got = _boltzmann_factors(p, beta, len(dists))(iter(dists), 4000)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(want).any() == (beta == 100.0)


def test_ztilde_auto_samples_past_the_quadrature_cap(well):
    N = 5
    assert N > ZTILDE_QUADRATURE_MAX_N
    auto = ztilde_direct(well, 1.0, 20.0, N, seed=5, samples=40_000)
    assert auto.method == "monte_carlo"
    assert auto == ztilde_direct(well, 1.0, 20.0, N, "monte_carlo", seed=5, samples=40_000)


def test_ztilde_method_caps(rod, sphere):
    with pytest.raises(CapacityError):
        ztilde_direct(rod, 1.0, 30.0, 5, "quadrature")
    with pytest.raises(CapacityError):
        ztilde_direct(rod, 1.0, 50.0, 13, "monte_carlo", seed=1)
    with pytest.raises(ConfigError):
        ztilde_direct(sphere, 1.0, 5.0, 3, "tonks_closed")
    with pytest.raises(ConfigError):
        ztilde_direct(rod, 1.0, 30.0, 6, "monte_carlo")  # no seed


def test_q_lambda_values(rod):
    res = ztilde_direct(rod, 1.0, 10.0, 2, "tonks_closed")
    assert q_lambda(res) == pytest.approx(math.log(0.81) / 10.0, rel=1e-12)
    big = ztilde_direct(rod, 1.0, 2000.0, 100, "tonks_closed")
    assert q_lambda(big) == pytest.approx(0.05 * math.log(1 - 99 / 2000.0), rel=1e-12)
    assert q_lambda(big) == pytest.approx(-2.5387e-3, abs=1e-6)


def test_q_lambda_domain():
    bad = CanonicalResult(2, 10.0, 1.0, 0.0, 0.0, "exact")
    with pytest.raises(DomainError):
        q_lambda(bad)


def test_compare_series_direct_passes(rod):
    rep = compare_series_direct(rod, 1.0, 2000.0, 100, 8)
    assert rep.certified
    assert rep.passed
    assert rep.gap <= rep.budget
    assert rep.q_series == pytest.approx(tonks.q_infinite_volume(0.05), abs=1e-8)
    d = rep.to_dict()
    assert d["pass"] and d["N"] == 100


def test_compare_gap_shrinks_with_N(rod):
    rho = 0.05
    gaps = [compare_series_direct(rod, 1.0, N / rho, N, 6).gap
            for N in (50, 100, 200)]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.05)


def test_compare_low_density_limit(rod):
    # both sides vanish as rho -> 0; N = 2 probes the smallest system
    rep = compare_series_direct(rod, 1.0, 1e6, 2, 4)
    assert abs(rep.q_direct) < 1e-11
    assert abs(rep.q_series) < 1e-11
    # at N >= 3 the finite-size allowance has real margin and the run passes
    rep4 = compare_series_direct(rod, 1.0, 2e6, 4, 4)
    assert rep4.passed
    assert abs(rep4.q_direct) < 1e-11


def test_compare_uncertified_density(rod):
    rep = compare_series_direct(rod, 1.0, 10.0, 5, 4)  # rho = 0.5 >> radius
    assert not rep.certified
    assert not rep.passed  # FAIL is a report outcome, not an exception


def test_compare_square_well(well):
    rep = compare_series_direct(well, 1.0, 400.0, 4, 4)
    assert rep.certified
    assert rep.passed


def test_compare_hard_spheres_by_monte_carlo(sphere):
    # the series side has no quadrature in three dimensions: its b_2 and b_3
    # are seeded Monte Carlo too, at the comparison's sample count
    rep = compare_series_direct(sphere, 1.0, 4.0, 8, 2, direct_method="monte_carlo",
                                seed=2, samples=40_000)
    assert rep.q_direct == -0.0224294469579791
    assert rep.coefficients == {1: -4.1887902047863905, 2: -3.467082363831569}
    b = {1: 1.0}
    for n in (2, 3):
        b[n], _ = mayer_bn(sphere, 1.0, n, method="monte_carlo", seed=2, samples=40_000)
    assert rep.coefficients == {k: float(virial_from_mayer(b, k)) for k in (1, 2)}


def test_repulsive_ztilde_invariant(rod):
    for N, L in ((2, 10.0), (3, 12.0), (4, 9.0)):
        res = ztilde_direct(rod, 1.0, L, N, "quadrature")
        assert 0.0 < res.ztilde <= 1.0
        assert q_lambda(res) <= 0.0
