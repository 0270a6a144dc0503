import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clusterkit import tonks
from clusterkit.canonical import compare_series_direct, ztilde_direct
from clusterkit.cluster import (
    _Workspace,
    _box_points,
    _graph_class_sum,
    _mc_weights,
    _pair_distances,
    _stratified_ball,
    connected_weight_sum,
    mayer_bn,
    penrose_bn_bound,
    virial_bk_direct,
)
from clusterkit.errors import CapacityError, ConfigError, DomainError
from clusterkit.graphs import _mask_connected, edge_mask, enum_graphs, mask_edges, vertex_pairs
from clusterkit.potentials import PairPotential, c_beta, f_bond_array
from clusterkit.quadrature import distinct_ids

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


MC_ENTRY_POINTS = {
    "mayer_bn": lambda p, **kw: mayer_bn(p, 1.0, 3, method="monte_carlo", **kw),
    "virial_bk_direct": lambda p, **kw: virial_bk_direct(p, 1.0, 2, "monte_carlo", **kw),
    "ztilde_direct": lambda p, **kw: ztilde_direct(p, 1.0, 6.0, 4, "monte_carlo", **kw),
    "compare_series_direct": lambda p, **kw: compare_series_direct(
        p, 1.0, 6.0, 4, 3, direct_method="monte_carlo", **kw),
}


@pytest.mark.parametrize("entry", MC_ENTRY_POINTS)
@pytest.mark.parametrize("key, value", [("chunk", 0), ("chunk", -3), ("samples", 0)])
def test_mc_sizes_below_one_rejected(sphere, entry, key, value):
    with pytest.raises(ConfigError, match=rf"Monte Carlo {key} must be an integer >= 1"):
        MC_ENTRY_POINTS[entry](sphere, seed=1, **{key: value})


@pytest.mark.parametrize("entry", MC_ENTRY_POINTS)
@pytest.mark.parametrize("workers", [0, -1, 2.5])
def test_mc_bad_workers_rejected(sphere, entry, workers):
    # each of these once ran silently on one thread
    with pytest.raises(ConfigError, match=r"Monte Carlo workers must be an integer >= 1"):
        MC_ENTRY_POINTS[entry](sphere, seed=1, samples=40_000, workers=workers)


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


@pytest.mark.parametrize("fn, pot, args, method, match", [
    *(pytest.param(mayer_bn, "rod", (3, side), method, "box side must be positive",
                   id=f"b_3 {method} side={side}")
      for side in (-5.0, 0.0, math.nan, math.inf) for method in ("quadrature", "monte_carlo")),
    *(pytest.param(ztilde_direct, "well", (math.inf, 4), method, "L > 0",
                   id=f"ztilde {method} L=inf")
      for method in ("quadrature", "monte_carlo", "auto")),
])
def test_box_side_must_be_finite_and_positive(request, fn, pot, args, method, match):
    # once a negative side gave box b_3 a negative error, a side of 0 or NaN
    # a misleading refusal, and an infinite side NaN or a ztilde of 1 +- 0
    with pytest.raises(DomainError, match=match):
        fn(request.getfixturevalue(pot), 1.0, *args, method=method, seed=1, samples=40_000)


def test_mc_virial_hard_sphere(sphere):
    val, err = virial_bk_direct(sphere, 1.0, 2, method="monte_carlo", seed=17,
                                samples=600_000)
    assert abs(val - HS_BETA2) < 4.0 * err


TABULATED = PairPotential("custom_tabulated", 1.0, 1, B=1.0, cutoff=1.4,
                          table=((0.0, 3.0), (0.5, 1.0), (1.0, -0.3), (1.4, 0.0)))

WELL_3D = PairPotential("square_well", 1.0, 3, epsilon=1.0, lambda_w=1.5, B=1.0)
DISK = PairPotential("hard_sphere", 1.0, 2)
MODULE_POTENTIALS = {"tabulated": TABULATED, "well_3d": WELL_3D, "disk": DISK}

# (value, error) recorded from the kernels that evaluated every bond function
# and graph sum sample by sample (b_n, beta_k) and multiplied ztilde's
# Boltzmann factor pair by pair; the bond-level and level-count kernels must
# give the same bits at any worker count.  Square-well b_4 was recorded again
# once a sample with a disconnected bond graph weighed exactly 0 rather than
# the residue of the subset recursion, and hard-rod box b_3 once a box chunk
# returned the plain mean and b_n scaled it by side^(d (n-1)) / n!.  The two
# hard-disk rows were recorded from the samplers that allocated each draw,
# for the (m, 2) -> (2, m) copy of the workspace draws.  Rows: id, routine,
# potential, arguments after (potential, beta), keywords, (value, error).
MC_PINS = [
    ("hard_sphere b_3", mayer_bn, "sphere", (3,), dict(seed=11),
     (7.2336158360102605, 0.04678923567923832)),
    ("hard_sphere b_4", mayer_bn, "sphere", (4,), dict(seed=12),
     (-36.16572111990169, 6.027620186650282)),
    ("square_well b_4", mayer_bn, "well", (4,), dict(seed=13),
     (0.5717933825141668, 0.07923138618877033)),
    ("hard_sphere beta_2", virial_bk_direct, "sphere", (2,), dict(seed=14),
     (-4.0425899626862005, 0.2526618726678873)),
    ("square_well beta_2", virial_bk_direct, "well", (2,), dict(seed=15),
     (-1.6924671212092925, 0.059785471051116416)),
    ("hard_rod box b_3", mayer_bn, "rod", (3,), dict(volume=5.0, seed=16),
     (1.2217708333333333, 0.029687499999999964)),
    ("square_well ztilde N=12", ztilde_direct, "well", (48.0, 12), dict(seed=17),
     (0.46082331359832396, 0.01583351390633214)),
    ("custom_tabulated b_3", mayer_bn, "tabulated", (3,), dict(seed=18),
     (0.3203764459469366, 0.009199025120667354)),
    ("hard_sphere ztilde N=8", ztilde_direct, "sphere", (4.0, 8), dict(seed=19),
     (0.23604999999999998, 0.0021999999999999936)),
    ("hard_rod ztilde N=10", ztilde_direct, "rod", (30.0, 10), dict(seed=20),
     (0.02905, 0.0013500000000000003)),
    ("square_well d=3 ztilde N=6", ztilde_direct, "well_3d", (6.0, 6), dict(seed=21),
     (1.8265509762417826, 0.006808492332067151)),
    ("custom_tabulated ztilde N=4", ztilde_direct, "tabulated", (6.0, 4), dict(seed=22),
     (0.3317646118626987, 0.0036606103715419447)),
    ("hard_disk b_3", mayer_bn, "disk", (3,), dict(seed=23),
     (3.963633127477486, 0.0026318945069571478)),
    ("hard_disk ztilde N=6", ztilde_direct, "disk", (4.0, 6), dict(seed=24),
     (0.055349999999999996, 0.0002499999999999967)),
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("fn, pot, args, kwargs, want", [row[1:] for row in MC_PINS],
                         ids=[row[0] for row in MC_PINS])
def test_mc_pinned_bits(request, fn, pot, args, kwargs, want, workers):
    p = MODULE_POTENTIALS.get(pot) or request.getfixturevalue(pot)
    out = fn(p, 1.0, *args, method="monte_carlo", samples=40_000, workers=workers, **kwargs)
    if fn is ztilde_direct:
        out = (out.ztilde, out.error)
    assert out == want


# a weight that overflows the float range: the parent kernels returned NaN or
# inf for these (overflow within a sample's graph sum or product, or in the
# spread of the chunk means); they run silently, and any RuntimeWarning is an
# error
@pytest.mark.parametrize("fn, beta, args, n", [
    (mayer_bn, 300.0, (4,), 4),
    (mayer_bn, 100.0, (4,), 4),
    (ztilde_direct, 100.0, (5.0, 12), 12),
    (ztilde_direct, 30.0, (4.0, 12), 12),
], ids=["b_4 nan", "b_4 inf error", "ztilde nan", "ztilde inf error"])
def test_mc_non_finite_refused(fn, beta, args, n):
    with pytest.raises(DomainError, match=rf"not finite at n={n}\b"):
        fn(WELL_3D, beta, *args, method="monte_carlo", seed=1, samples=40_000)


def test_overflowing_graph_sum_table_is_refused_without_warnings():
    # the graph sums of some reached level rows are inf or NaN here, and the
    # pair-by-pair product of ztilde overflows; both run silently, and the
    # refusal of the mean is the only signal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"not finite at n=4\b"):
            mayer_bn(WELL_3D, 300.0, 4, method="monte_carlo", seed=1, samples=40_000)
        with pytest.raises(DomainError, match=r"not finite at n=12\b"):
            ztilde_direct(WELL_3D, 100.0, 5.0, 12, method="monte_carlo", seed=1, samples=40_000)


@pytest.mark.parametrize("seed", [2, 3])
def test_mc_disconnected_samples_weigh_zero(seed):
    # no sample of these runs has a connected bond graph; the subset
    # recursion leaves residue of up to 2.8e-14 on such rows, which once
    # read as b_5 of about -1.1e-8
    with pytest.raises(DomainError, match=r"only 0 of 2 "):
        mayer_bn(WELL_3D, 1.0, 5, method="monte_carlo", seed=seed, samples=40_000)


# coordinates whose squares neither underflow nor overflow, so that
# sqrt(x * x) == |x| holds for every difference of two of them
_coordinate = st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


@st.composite
def point_pairs(draw):
    d = draw(st.integers(1, 12))
    m = draw(st.integers(1, 20))
    a, b = (np.array(draw(st.lists(_coordinate, min_size=m * d, max_size=m * d))).reshape(m, d)
            for _ in range(2))
    return a, b


@settings(max_examples=60, deadline=None)
@given(point_pairs())
def test_pair_distances_is_bitwise_row_norm(ab):
    # the column norm of the (d, m) layout at every d; the row norm of the
    # (m, d) layout adds its squares in the same order only for d < 8
    a, b = ab
    a_t, b_t = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    out, squares = np.empty(a.shape[0]), np.empty(a_t.shape)
    got = _pair_distances(a_t, b_t, out, squares)
    assert got is out
    assert got.tobytes() == np.linalg.norm(a_t - b_t, axis=0).tobytes()
    if a.shape[1] < 8:
        assert got.tobytes() == np.linalg.norm(a - b, axis=1).tobytes()


def _allocating_ball(rng, m, d, radius):
    """The ball sampler that allocated every draw, kept as the oracle."""
    if d == 1:
        dirs = rng.choice([-1.0, 1.0], size=(m, 1)).T
    else:
        dirs = np.ascontiguousarray(rng.standard_normal((m, d)).T)
        dirs /= np.linalg.norm(dirs, axis=0)
    strata = rng.permutation(m)
    u = (strata + rng.random(m)) / m
    r = radius * u ** (1.0 / d)
    return dirs * r


def _allocating_box(rng, n, d, side, size):
    """The box sampler that allocated every draw, kept as the oracle."""
    return [np.ascontiguousarray(rng.random((size, d)).T) * side for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 400).map(lambda k: 2 * k + 1),
       st.floats(0.25, 8.0), st.floats(0.25, 50.0), st.integers(0, 2 ** 64 - 1),
       st.integers(2, 5))
def test_workspace_draws_are_the_allocating_draws(d, m, radius, side, key, n):
    # one workspace for the ball and then the box, as a thread reuses it:
    # every draw must overwrite what the last one left
    def rng():
        return np.random.Generator(np.random.Philox(key=[np.uint64(key), np.uint64(3)]))

    ws = _Workspace(n, d, m)
    oracle, fresh = rng(), rng()
    for _ in range(2):
        want = [np.zeros((d, m))] + [_allocating_ball(oracle, m, d, radius) for _ in range(n - 1)]
        for i in range(1, n):
            _stratified_ball(fresh, ws, i, radius)
        assert ws.points.tobytes() == np.stack(want).tobytes()
    want = _allocating_box(oracle, n, d, side, m)
    _box_points(fresh, ws, side)
    assert ws.points.tobytes() == np.stack(want).tobytes()
    # both streams stand at the same place
    assert oracle.random(4).tobytes() == fresh.random(4).tobytes()


@st.composite
def level_rows(draw):
    sigma = draw(st.sampled_from([0.5, 1.0, 1.25]))
    if draw(st.booleans()):
        pot = PairPotential("square_well", sigma, 3, epsilon=draw(st.floats(0.0, 2.0)),
                            lambda_w=draw(st.sampled_from([1.2, 1.5, 1.9])), B=1.0)
    else:
        pot = PairPotential("hard_sphere", sigma, 3)
    n = draw(st.integers(2, 5))
    graph_class = draw(st.sampled_from(["connected", "two_connected", "all"]))
    # separations on and between the breakpoints; the sample count falls on
    # either side of the number of level rows, levels^pairs
    cuts = pot.breakpoints()
    sep = st.one_of(st.sampled_from([0.0, *cuts]), st.floats(0.0, 2.0 * cuts[-1]))
    npairs = n * (n - 1) // 2
    size = npairs * draw(st.integers(1, 40))
    seps = np.array(draw(st.lists(sep, min_size=size, max_size=size))).reshape(-1, npairs)
    return pot, draw(st.floats(0.1, 3.0)), n, graph_class, seps


@settings(max_examples=30, deadline=None)
@given(level_rows())
@example((PairPotential("hard_sphere", 1.0, 3), 1.0, 3, "connected",
          np.array([[0.5, 0.5, 2.0]] * 9 + [[2.0, 0.5, 2.0]])))
@example((PairPotential("square_well", 1.0, 3, epsilon=1.0, lambda_w=1.5, B=1.0), 1.0, 5,
          "connected", np.array([[1.2] * 4 + [2.0] * 6, [0.5] * 10])))
# w^10 overflows, so the Boltzmann factors run pair by pair, through inf and NaN
@example((PairPotential("square_well", 1.0, 3, epsilon=1.0, lambda_w=1.5, B=1.0), 100.0, 5,
          "all", np.array([[1.2] * 10, [1.2] * 9 + [0.5], [0.5] + [1.2] * 9, [2.0] * 10])))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_level_weights_are_bitwise_plain(case):
    # the level path ranks the rows of a chunk and sums each distinct row
    # once: on a connected bond graph the bits of the sample-by-sample sum,
    # elsewhere exactly 0; the Boltzmann factors of all graphs keep the bits
    # of the row product on every row
    pot, beta, n, graph_class, seps = case
    fvals = f_bond_array(pot, beta, seps)
    got = _mc_weights(pot, beta, n, graph_class)(iter(np.ascontiguousarray(seps.T)), len(seps))
    want = _graph_class_sum(n, graph_class)(fvals)
    if graph_class == "all":
        assert got.tobytes() == want.tobytes()
        return
    pairs = vertex_pairs(n)
    connected = np.array([_mask_connected(n, edge_mask(n, [e for e, f in zip(pairs, row) if f != 0]))
                          for row in fvals], dtype=bool)
    assert got[connected].tobytes() == want[connected].tobytes()
    assert got[~connected].tobytes() == np.zeros(int((~connected).sum())).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60).flatmap(lambda count: st.tuples(
    st.just(count), st.lists(st.integers(0, count - 1), max_size=2 * count))))
def test_distinct_ids_is_unique_with_inverse(case):
    # the table branch runs when count <= len(ids), the sort otherwise
    count, ids = case
    ids = np.array(ids, dtype=np.int64)
    got, want = distinct_ids(ids, count), np.unique(ids, return_inverse=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


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


def test_penrose_bound_overflowing_beta_B():
    # 2 beta B = inf: n = 2 carries e^0, not inf * 0
    assert penrose_bn_bound(2, 10.0, 1e308, 3.0) == 1.5
    with pytest.raises(DomainError, match=r"beta\*B"):
        penrose_bn_bound(3, 10.0, 1e308, 3.0)


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
            for e in mask_edges(n, g):
                prod *= fv[:, col[e]]
            want += prod
        assert np.allclose(got, want, atol=1e-12)
