"""Gap quadrature: the array kernels against their scalar oracles, and the
square well against the exact nearest-neighbour gas."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from clusterkit import quadrature
from clusterkit.canonical import ztilde_direct
from clusterkit.cluster import _gap_integral, _gap_weight_fn, mayer_bn, virial_bk_direct
from clusterkit.errors import CapacityError
from clusterkit.potentials import PairPotential
from clusterkit.quadrature import (
    _append_levels,
    _block_sum,
    _box_cuts,
    _evaluate,
    _expand_level,
    _expand_row,
    _max_row_nodes,
    _nodes,
    _panel_values,
    _panels,
    _prefix_blocks,
    _q_schedule,
    bond_levels,
    difference_closure,
    gap_quadrature,
    gauss_nodes,
    pair_window_matrix,
)

# ---------------------------------------------------------------------------
# exact oracle: the square well with lambda <= 2 is a nearest-neighbour gas
# ---------------------------------------------------------------------------
#
# Only neighbours interact, so with the gap Boltzmann factor h(t) the
# isobaric transform gives z = p / g(p), g(t) = t * Laplace[h](t)
#   = w (e^(-sigma t) - e^(-lam sigma t)) + e^(-lam sigma t),
# with w = e^(beta eps).  Lagrange inversion gives b_n = [t^(n-1)] g^n / n,
# and 1/rho = 1/p - g'(p)/g(p) gives the pressure in rho, whose coefficient
# B_(k+1) = [t^k] D^(k+1) / (k+1), D = 1 - t g'/g, is -k/(k+1) beta_k.

SIGMA, LAM = Fraction(1), Fraction(3, 2)


def _mul(a, b, order):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


def _pow(a, n, order):
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(n):
        out = _mul(out, a, order)
    return out


def _inv(a, order):
    out = [1 / a[0]]
    for k in range(1, order + 1):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def _gap_series(w, order):
    def exp_series(rate):  # e^(-rate t)
        return [(-rate) ** k / math.factorial(k) for k in range(order + 1)]

    inner, outer = exp_series(SIGMA), exp_series(LAM * SIGMA)
    return [w * (a - b) + b for a, b in zip(inner, outer)]


def nn_mayer_b(w, n):
    return _pow(_gap_series(w, n), n, n - 1)[n - 1] / n


def nn_virial_beta(w, k):
    order = k + 1
    g = _gap_series(w, order)
    dg = [(j + 1) * g[j + 1] for j in range(order)] + [Fraction(0)]
    ratio = _mul(dg, _inv(g, order), order)
    D = [Fraction(1)] + [-ratio[j - 1] for j in range(1, order + 1)]
    B = _pow(D, k + 1, k)[k] / (k + 1)
    return -(k + 1) * B / k


def nn_ztilde_box(w, L, N):
    """Ordered gaps, h = w on [sigma, lam sigma) and 1 beyond: each choice of
    k outer steps integrates to ((L - span)_+ / L)^N times its weight."""
    total = Fraction(0)
    for k in range(N):
        span = (N - 1 - k) * SIGMA + k * LAM * SIGMA
        if span < L:
            total += math.comb(N - 1, k) * w ** (N - 1 - k) * (1 - w) ** k * ((L - span) / L) ** N
    return total


@pytest.fixture(scope="module")
def well_w():
    return Fraction(math.exp(1.0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_square_well_bn_exact(well, well_w, n):
    val, _ = mayer_bn(well, 1.0, n)
    assert val == pytest.approx(float(nn_mayer_b(well_w, n)), rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_square_well_beta_exact(well, well_w, k):
    val, _ = virial_bk_direct(well, 1.0, k)
    assert val == pytest.approx(float(nn_virial_beta(well_w, k)), rel=1e-10)


@pytest.mark.parametrize("N,L", [(3, Fraction(13, 2)), (4, Fraction(33, 4))])
def test_square_well_box_ztilde_exact(well, well_w, N, L):
    got = ztilde_direct(well, 1.0, float(L), N, "quadrature")
    assert got.ztilde == pytest.approx(float(nn_ztilde_box(well_w, L, N)), rel=1e-10)


def test_nn_oracle_reduces_to_tonks():
    # w = 1 is the hard rod: b_n = (-n)^(n-1)/n!, beta_k = -(k+1)/k
    for n in range(2, 6):
        assert nn_mayer_b(Fraction(1), n) == Fraction((-n) ** (n - 1), math.factorial(n))
    for k in range(1, 4):
        assert nn_virial_beta(Fraction(1), k) == Fraction(-(k + 1), k)
    assert nn_ztilde_box(Fraction(1), Fraction(10), 4) == Fraction(7, 10) ** 4


def test_square_well_b5_bits(well):
    # the blocks' partial sums are numpy pairwise sums, so these bits hold
    # for any BLAS thread count
    assert mayer_bn(well, 1.0, 5) == (0.0523462101012232, 3.3306690738754696e-16)


def test_square_well_b6_bits(well):
    # bits that hold for any BLAS thread count.  With every level but the
    # last streamed and the last level's block slimmed, the call traces about
    # 8.5 MB after the other tests, 9.2 MB run alone with the order-6 tables
    # still to build; the bound is the larger plus 10%.  The whole level
    # before last and node-length values traced 11.4 MB
    tracemalloc.start()
    try:
        got = mayer_bn(well, 1.0, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (-1.5580422838771788, 6.661338147750939e-16)
    assert peak < 10.1e6


def test_square_well_box_ztilde_bits(well):
    got = ztilde_direct(well, 1.0, 6.25, 4, "quadrature")
    assert (got.ztilde, got.error) == (0.414168800857891, 5.551115123125783e-17)


def test_panel_path_bits(well, rod):
    # the other ops whose last level runs by rows of bond levels
    assert virial_bk_direct(well, 1.0, 2) == (-1.7813022744929936, 0.0)
    assert virial_bk_direct(well, 1.0, 3) == (1.0652015214589774, 1.3322676295501878e-15)
    assert mayer_bn(rod, 1.0, 5, volume=10.375) == (4.450100401606426, 0.0)
    got = ztilde_direct(well, 1.0, 6.25, 3, "quadrature")
    assert (got.ztilde, got.error) == (0.7207252597417307, 0.0)


def test_node_estimate_guards_before_expansion():
    # ~1.25e8 nodes by the per-level bound: refused before any level is built
    wide = PairPotential("square_well", 0.75, 1, epsilon=0.3, lambda_w=1.9, B=1.0)
    with pytest.raises(CapacityError, match="1.25e\\+08 nodes"):
        mayer_bn(wide, 1.0, 5)


# ---------------------------------------------------------------------------
# the array level step against the scalar per-row rule
# ---------------------------------------------------------------------------

#: rows carried from one level to the next; keeps the scalar oracle cheap
_ROWS_PER_LEVEL = 50


@st.composite
def gap_setups(draw):
    # dyadic radii make breakpoints coincide exactly, arbitrary ones do not
    raw = draw(st.lists(st.one_of(st.integers(1, 16).map(lambda k: k / 8.0),
                                  st.floats(0.05, 2.0)), min_size=1, max_size=3))
    # a gap support, a box, or both (a Mayer coefficient in a box)
    box_length = draw(st.none() | st.floats(0.5, 6.0))
    support = max(raw) if box_length is None or draw(st.booleans()) else None
    n_gaps = draw(st.integers(1, 4))
    try:
        radii = difference_closure(raw, support)
        box_cuts = _box_cuts(radii, n_gaps, box_length) if box_length is not None else []
    except CapacityError:
        assume(False)
    assume(len(radii) <= 8)
    qs = _q_schedule(n_gaps, box_length is not None, draw(st.integers(0, 1)))
    # start at a drawn level from drawn prefix rows; gaps a hair off a radius
    # put candidates r - s within the merge tolerance of each other
    start = draw(st.integers(0, n_gaps - 1))
    near = st.tuples(st.sampled_from(radii), st.floats(-3e-11, 3e-11)).map(
        lambda rd: max(0.0, rd[0] + rd[1]))
    gap = near | st.floats(0.0, 2.0)
    wts = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8)))
    size = wts.shape[0] * start
    ts = np.array(draw(st.lists(gap, min_size=size, max_size=size))).reshape(wts.shape[0], start)
    return (radii, box_cuts, support, box_length), qs[start:], ts, wts


@settings(max_examples=40, deadline=None)
@given(gap_setups())
def test_expand_level_matches_scalar_rule(setup):
    rule, qs, ts, wts = setup
    for q in qs:
        xq, wq = gauss_nodes(q)
        got_ts, got_w = _expand_level(ts, wts, xq, wq, *rule)
        want = [node for row, wgt in zip(ts.tolist(), wts.tolist())
                for node in _expand_row(tuple(row), wgt, xq, wq, *rule)]
        assert got_ts.shape == (len(want), ts.shape[1] + 1)
        assert got_ts.tolist() == [list(node) for node, _ in want]
        assert got_w.tolist() == [wgt for _, wgt in want]
        stride = max(1, got_w.shape[0] // _ROWS_PER_LEVEL)
        ts, wts = got_ts[::stride], got_w[::stride]
        if not wts.shape[0]:
            break


@pytest.mark.parametrize("box_length", [None, 2.5])
def test_panels_in_blocks_match_one_block(monkeypatch, box_length):
    radii = difference_closure([1.0, 1.5], 1.5)
    rule = (radii, _box_cuts(radii, 3, box_length) if box_length else [], 1.5, box_length)
    ts, wts = np.zeros((1, 0)), np.ones(1)
    for q in (3, 2):
        ts, wts = _expand_level(ts, wts, *gauss_nodes(q), *rule)
    # in the box the shifted copies fill it, so block offsets and dead rows mix
    ts = np.concatenate([ts, ts + 1.0])
    whole = _panels(ts, *rule)
    assert box_length is None or len(set(whole[0].tolist())) < ts.shape[0]
    monkeypatch.setattr(quadrature, "_CANDIDATE_BLOCK", 7 * len(radii) * 3)
    blocks = _panels(ts, *rule)
    assert [x.tolist() for x in blocks] == [x.tolist() for x in whole]


def _slices(ts, wts, block):
    """The block-row slices of a whole level."""
    return [(ts[i:i + block], wts[i:i + block]) for i in range(0, ts.shape[0], block)]


def _block_bytes(blocks):
    return [(t.shape, t.tobytes(), w.tobytes()) for t, w in blocks]


@settings(max_examples=40, deadline=None)
@given(gap_setups(), st.integers(1, 40))
def test_streamed_blocks_are_slices_of_the_whole_level(setup, block):
    # a level, expanded a chunk at a time, cut into the blocks that slicing
    # the fully expanded level gives, byte for byte
    rule, qs, ts, wts = setup
    whole_ts, whole_w = _expand_level(ts, wts, *gauss_nodes(qs[0]), *rule)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "PREFIX_BLOCK", block)
        got = list(_prefix_blocks([(ts, wts)], qs[0], rule))
    assert _block_bytes(got) == _block_bytes(_slices(whole_ts, whole_w, block))


@settings(max_examples=40, deadline=None)
@given(gap_setups(), st.integers(1, 40), st.data())
def test_chained_streams_are_slices_of_whole_levels(setup, block, data):
    # every level but the last streamed from the blocks of the one before,
    # the start level cut at drawn rows: at each level the blocks are the
    # slices of the whole level built by repeated expansion, byte for byte
    rule, qs, ts, wts = setup
    cuts = data.draw(st.sets(st.integers(0, ts.shape[0]), max_size=3))
    edges = [0, *sorted(cuts), ts.shape[0]]
    blocks = [(ts[i:j], wts[i:j]) for i, j in zip(edges[:-1], edges[1:])]
    levels = []
    for q in qs[:-1]:
        ts, wts = _expand_level(ts, wts, *gauss_nodes(q), *rule)
        levels.append((q, ts, wts))
    # at most a few thousand blocks a level keep the streams cheap
    assume(all(ts.shape[0] <= 2000 * block for _, ts, _ in levels))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "PREFIX_BLOCK", block)
        for q, ts, wts in levels:
            blocks = list(_prefix_blocks(blocks, q, rule))
            assert _block_bytes(blocks) == _block_bytes(_slices(ts, wts, block))


def test_no_level_is_expanded_whole(monkeypatch, well):
    # square-well b_6 with small blocks: every call expands at most the
    # chunk of rows that _prefix_blocks takes at its level
    monkeypatch.setattr(quadrature, "PREFIX_BLOCK", 256)
    excess = []

    def spy(ts, wts, xq, wq, radii, box_cuts, support, box_length):
        row_nodes = _max_row_nodes(radii, box_cuts, ts.shape[1] + 1, xq.shape[0])
        excess.append(ts.shape[0] - max(1, 256 // row_nodes))
        return _expand_level(ts, wts, xq, wq, radii, box_cuts, support, box_length)

    monkeypatch.setattr(quadrature, "_expand_level", spy)
    got, _ = mayer_bn(well, 1.0, 6)
    assert got == pytest.approx(-1.5580422838771788, rel=1e-13)
    assert len(excess) > 100 and max(excess) <= 0


# ---------------------------------------------------------------------------
# the last level by bond-level rows against the last level node by node
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(gap_setups(), st.data())
def test_panel_values_bitwise_from_any_prefix(setup, data):
    # prefix gaps a hair off a radius put level crossings inside panels
    rule, qs, ts, _ = setup
    cuts = data.draw(st.lists(st.sampled_from(rule[0]) | st.floats(0.05, 2.0),
                              min_size=1, max_size=3).map(sorted))
    xq, _ = gauss_nodes(qs[-1])
    row, a, h = _panels(ts, *rule)
    assume(row.shape[0])
    # any function of the levels alone
    weight = _level_weight(cuts, ts.shape[1])
    # a drawn step of the level work, so the ids of several steps are ranked together
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "WEIGHT_BLOCK", data.draw(st.integers(1, row.shape[0])))
        got = _panel_values(weight, ts, row, a, h, xq, cuts)
    # None sends the block node by node, which is then its own reference
    if got is not None:
        assert got.shape == (row.shape[0], 1)
        assert _node_values(got, xq) == _evaluate(weight, _nodes(ts, row, a, h, xq)).tobytes()


def _node_values(vals, xq):
    """The bytes of ``_panel_values``' output as one value per node."""
    return np.broadcast_to(vals, (vals.shape[0], xq.shape[0])).tobytes()


def _level_weight(cuts, k):
    """A weight of the bond levels alone, for gap vectors of length k + 1."""
    coef = np.arange(1.0, (k + 1) * (k + 2) // 2 + 1)
    return lambda points: np.cos(bond_levels(pair_window_matrix(points), cuts) @ coef)


@settings(max_examples=40, deadline=None)
@given(gap_setups(), st.data())
def test_block_sum_by_levels_is_bitwise_node_sum(setup, data):
    # a block's partial sum by rows of levels, split blocks node by node,
    # against the partial sum with every node evaluated
    rule, qs, ts, wts = setup
    cuts = data.draw(st.lists(st.sampled_from(rule[0]) | st.floats(0.05, 2.0),
                              min_size=1, max_size=3).map(sorted))
    xq, wq = gauss_nodes(qs[-1])
    weight = _level_weight(cuts, ts.shape[1])
    by_levels = _block_sum(weight, ts, wts, xq, wq, rule, cuts)
    by_node = _block_sum(weight, ts, wts, xq, wq, rule, None)
    assert np.array(by_levels).tobytes() == np.array(by_node).tobytes()


def test_split_panel_goes_node_by_node():
    # the two prefix gaps sum to within the merge tolerance under the cut
    # 0.75, so the window of all three gaps crosses it inside the first
    # panel of the last gap: its last node is past the cut, its first below
    rule = (difference_closure([0.5, 0.75], 0.75), [], 0.75, None)
    ts = np.array([[0.5000000000062996, 0.249999999984234]])
    cuts = [0.5, 0.75]
    xq, wq = gauss_nodes(3)
    row, a, h = _panels(ts, *rule)
    weight = _level_weight(cuts, 2)
    assert _panel_values(weight, ts, row, a, h, xq, cuts) is None
    by_levels = _block_sum(weight, ts, np.ones(1), xq, wq, rule, cuts)
    assert by_levels == _block_sum(weight, ts, np.ones(1), xq, wq, rule, None)


#: square-well b_4, beta_3 and box ztilde at N = 4: (n, graph class, box)
_STEP_CASES = [(4, "connected", None), (4, "two_connected", None), (4, "all", 3.5)]


@pytest.mark.parametrize("step", [1, 3, 7])
def test_last_level_steps_give_the_same_bits(monkeypatch, well, step):
    want = [np.array(_gap_integral(well, 1.0, *case)).tobytes() for case in _STEP_CASES]
    monkeypatch.setattr(quadrature, "WEIGHT_BLOCK", step)
    got = [np.array(_gap_integral(well, 1.0, *case)).tobytes() for case in _STEP_CASES]
    assert got == want


def test_level_ids_refuse_an_int64_overflow():
    # 3^39 < 2^63 - 1 < 3^40: thirty-nine base-3 digits fit, the fortieth is refused
    digits = [np.array([2, 1])] * 40
    ids, count = _append_levels(np.zeros(2, dtype=np.int64), 1, digits[:39], 3)
    assert count == 3 ** 39 and ids.tolist() == [3 ** 39 - 1, (3 ** 39 - 1) // 2]
    with pytest.raises(CapacityError, match="level-row ids of base 3 overflow an int64"):
        _append_levels(np.zeros(2, dtype=np.int64), 1, digits, 3)


@pytest.mark.parametrize("rows", [None, 50])
def test_panel_values_table_and_its_size_guard(well, rows):
    # all 1,638 prefix rows of square-well b_5 rank their ids in a table;
    # 50 of them have more possible ids than panels, so they take the sort
    cuts = well.breakpoints()
    rule = (difference_closure(cuts, well.range_radius), [], well.range_radius, None)
    qs = _q_schedule(4, False, 1)
    ts, wts = np.zeros((1, 0)), np.ones(1)
    for q in qs[:-1]:
        ts, wts = _expand_level(ts, wts, *gauss_nodes(q), *rule)
    ts = ts[:rows]
    row, a, h = _panels(ts, *rule)
    prefixes = np.unique(bond_levels(pair_window_matrix(ts), cuts), axis=0).shape[0]
    ids = prefixes * (len(cuts) + 1) ** (ts.shape[1] + 1)
    assert (ids > row.shape[0]) == (rows is not None)
    xq, _ = gauss_nodes(qs[-1])
    weight = _gap_weight_fn(well, 1.0, 5, "connected")
    got = _panel_values(weight, ts, row, a, h, xq, cuts)
    assert _node_values(got, xq) == _evaluate(weight, _nodes(ts, row, a, h, xq)).tobytes()


@st.composite
def level_setups(draw):
    kind = draw(st.sampled_from(["hard_rod", "square_well"]))
    sigma = draw(st.integers(1, 12).map(lambda k: k / 8.0) | st.floats(0.3, 1.5))
    graph_class = draw(st.sampled_from(["connected", "two_connected", "all"]))
    n = draw(st.integers(2, 4 if graph_class == "two_connected" else 5))
    if kind == "square_well":
        lam = draw(st.sampled_from([1.25, 1.5, 2.0, 1.2, 1.4]))
        pot = PairPotential(kind, sigma, 1, epsilon=draw(st.floats(0.0, 2.0)),
                            lambda_w=lam, B=1.0)
    else:
        pot = PairPotential(kind, sigma, 1)
    # the sum over all graphs needs a box; the other classes may have one
    box = draw(st.floats(0.5, 2.0) | st.none())
    if graph_class == "all" and box is None:
        box = 1.0
    box = None if box is None else box * n * pot.range_radius
    return pot, draw(st.floats(0.1, 3.0)), n, graph_class, box


@settings(max_examples=40, deadline=None)
@given(level_setups())
def test_panel_sum_is_bitwise_node_sum(case):
    pot, beta, n, graph_class, box = case
    support = None if graph_class == "all" else pot.range_radius
    radii = difference_closure(pot.breakpoints(), support)
    weight = _gap_weight_fn(pot, beta, n, graph_class)
    try:
        by_panel = gap_quadrature(weight, n - 1, radii, support, box, pot.breakpoints())
    except CapacityError:
        assume(False)
    by_node = gap_quadrature(weight, n - 1, radii, support, box)
    assert np.array(by_panel).tobytes() == np.array(by_node).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300), st.integers(1, 12), st.integers(1, 60), st.randoms())
def test_level_ids_pack_one_digit_per_level(base, ncols, rows, rnd):
    # up to 300^12 digit rows: ids that would pass an int64 are refused, not renumbered
    levels = [[rnd.randrange(base) for _ in range(ncols)] for _ in range(rows)]
    columns = np.array(levels, dtype=np.int64).T
    if base ** ncols > np.iinfo(np.int64).max:
        with pytest.raises(CapacityError, match=f"base {base} overflow"):
            _append_levels(np.zeros(rows, dtype=np.int64), 1, columns, base)
        return
    ids, count = _append_levels(np.zeros(rows, dtype=np.int64), 1, columns, base)
    assert count == base ** ncols
    assert ids.tolist() == [sum(d * base ** (ncols - 1 - j) for j, d in enumerate(row))
                            for row in levels]


def test_pair_window_matrix_columns():
    points = np.array([[0.5, 1.0, 2.0], [1.0, 0.25, 0.125]])
    # pairs (1,2) (1,3) (1,4) (2,3) (2,4) (3,4)
    want = [[0.5, 1.5, 3.5, 1.0, 3.0, 2.0], [1.0, 1.25, 1.375, 0.25, 0.375, 0.125]]
    assert pair_window_matrix(points).tolist() == want
