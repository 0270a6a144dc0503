"""Gauss-Legendre quadrature utilities.

Two engines live here:

* ``integrate_1d``: composite Gauss-Legendre on [a, b] with mandatory
  breakpoints and mesh-doubling error estimates (used for radial integrals).

* ``gap_quadrature``: nested integration over ordered-gap coordinates for
  translation-invariant, permutation-symmetric n-body integrands in one
  dimension.  A configuration 0 = z_1 < z_2 < ... < z_n is parametrized by
  the gaps t_i = z_{i+1} - z_i, and every pair separation is a window sum
  t_i + ... + t_{j-1}.  Integrands that are piecewise polynomial between the
  surfaces {window sum = radius} (hard cores, square wells) are integrated
  essentially exactly: each nesting level places panel boundaries wherever a
  window sum ending at that level can cross a radius, and the radius set is
  closed under differences so that breakpoint crossings at deeper levels are
  panel boundaries too.  It returns the sums under a refined and a base node
  schedule, whose difference is the error of b_n, beta_k and ztilde alike.
  An integrand that depends only on the bond level of each window (the
  graph sums of a piecewise constant bond) is constant on each panel of the
  last gap, so it runs once per distinct row of levels among those panels
  and gives the bits of the node-by-node sum.  A block of the last level
  with a split panel, one with a level crossing inside it closer to an
  edge than the merge tolerance, is taken node by node; none of the 578
  level steps of b_2..b_6, beta_1..beta_3, box b_n and ztilde for two
  rods and four square wells has one.  The level steps run on flat
  arrays: each step's breakpoint candidates form one contiguous row per
  candidate, and
  ``distinct_ids`` ranks the level rows of a block of the last level, or
  of a Monte Carlo chunk, in a table over their ids or by one sort.
  Every level but the last is streamed (``_prefix_blocks``): expanded a
  chunk of rows at a time from the blocks of the level before it and cut
  into the PREFIX_BLOCK-row blocks that slicing it whole would give.  The
  last level runs one block at a time, each reduced to one partial sum by
  numpy's pairwise sum, not a BLAS dot (``_block_sum``); these partial
  sums fix the bits, whatever the BLAS thread count.  No level exists
  whole, so scratch memory is bounded by a few blocks a level at any
  order: its level work runs WEIGHT_BLOCK panels a step, only
  panel-length arrays span a block, and a panel's value is multiplied
  onto its nodes' weights in place.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError

_MERGE_TOL = 1e-11
_MAX_CLOSURE = 64
_MAX_SUM_CUTS = 256
_MAX_NODES = 80_000_000


@lru_cache(maxsize=None)
def gauss_nodes(q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(q)
    return (x + 1.0) / 2.0, w / 2.0


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 for d=1, 4*pi for d=3)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d (2 for d=1, 4*pi/3 for d=3)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# 1-D composite quadrature with breakpoints
# ---------------------------------------------------------------------------

def _composite(f, panels: Sequence[Tuple[float, float]], q: int) -> float:
    x, w = gauss_nodes(q)
    total = 0.0
    for a, b in panels:
        h = b - a
        if h <= 0.0:
            continue
        total += h * float(np.dot(f(a + h * x), w))
    return total


def _split_panels(panels):
    out = []
    for a, b in panels:
        m = 0.5 * (a + b)
        out.append((a, m))
        out.append((m, b))
    return out


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
    q: int = 12,
    tol: float = 1e-13,
    max_depth: int = 14,
) -> Tuple[float, float]:
    """Integrate ``f`` (vectorized) over [a, b] with panel edges at breakpoints.

    Starts from panels split at the breakpoints and keeps halving every panel
    until the mesh-doubling difference drops below ``tol`` relative to the
    running value, or after ``max_depth + 1`` halvings.  Returns the finer
    value and the last doubling difference as the error estimate.
    """
    if b <= a:
        return 0.0, 0.0
    cuts = sorted({float(c) for c in breakpoints if a < c < b})
    edges = [a] + cuts + [b]
    panels = list(zip(edges[:-1], edges[1:]))
    coarse = _composite(f, panels, q)
    level = 0
    while True:
        panels = _split_panels(panels)
        fine = _composite(f, panels, q)
        err = abs(fine - coarse)
        if err <= tol * max(1.0, abs(fine)) or level >= max_depth:
            return fine, err
        coarse = fine
        level += 1


# ---------------------------------------------------------------------------
# radius-set closures
# ---------------------------------------------------------------------------

def _merge(values):
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > _MERGE_TOL:
            out.append(v)
    return out


def difference_closure(radii: Sequence[float], support: Optional[float] = None):
    """Close a positive radius set under pairwise absolute differences.

    Window-sum breakpoints at one nesting level collide where a window equals
    the difference of two radii, so exactness needs the closed set.
    """
    cur = _merge(r for r in radii if r > _MERGE_TOL)
    while True:
        extra = []
        for i, ri in enumerate(cur):
            for rj in cur[i + 1:]:
                d = rj - ri
                if d > _MERGE_TOL and (support is None or d <= support + _MERGE_TOL):
                    extra.append(d)
        merged = _merge(cur + extra)
        if len(merged) == len(cur):
            return merged
        cur = merged
        if len(cur) > _MAX_CLOSURE:
            raise CapacityError(
                "breakpoint radius closure exceeds %d entries; "
                "use Monte Carlo for this potential" % _MAX_CLOSURE
            )


def sum_closure(radii: Sequence[float], terms: int):
    """All sums of up to ``terms`` radii (with repetition), deduplicated."""
    base = _merge(r for r in radii if r > _MERGE_TOL)
    sums = list(base)
    frontier = list(base)
    for _ in range(terms - 1):
        frontier = _merge(s + r for s in frontier for r in base)
        sums = _merge(sums + frontier)
        if len(sums) > _MAX_SUM_CUTS:
            raise CapacityError("radius sum closure exceeds %d entries" % _MAX_SUM_CUTS)
    return sums


# ---------------------------------------------------------------------------
# nested ordered-gap quadrature
# ---------------------------------------------------------------------------

def _running_sums(points: np.ndarray) -> np.ndarray:
    """Running sums (m + 1, P) of gap vectors (P, m): 0, t_1, t_1 + t_2, ..."""
    P, m = points.shape
    cs = np.empty((m + 1, P))
    cs[0] = 0.0
    for j in range(m):
        np.add(cs[j], points[:, j], out=cs[j + 1])
    return cs


def pair_window_matrix(points: np.ndarray) -> np.ndarray:
    """Window sums for every vertex pair of [m+1] from gap vectors (P, m).

    Column order matches graphs.vertex_pairs(m + 1): for the pair (i, j) the
    window is t_i + ... + t_{j-1}, the difference of two running sums.  The
    result is column-major, so each pair's column is contiguous.
    """
    P, m = points.shape
    cs = _running_sums(points)
    out = np.empty((m * (m + 1) // 2, P))
    k = 0
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            np.subtract(cs[j], cs[i], out=out[k])
            k += 1
    return out.T


def bond_levels(r: np.ndarray, cuts) -> np.ndarray:
    """The bond level of each separation: the number of cuts at or below it.

    A piecewise constant bond function takes one value per level.
    Separations are nonnegative (gap sums or distances), so no absolute
    value is needed.  A NaN separation is beyond every cut, where the bond
    vanishes.
    """
    levels = np.full_like(r, len(cuts), dtype=np.int8)
    for c in cuts:
        levels -= r < c
    return levels


def _append_levels(ids: np.ndarray, count: int, levels, base: int):
    """Extend row ids in place by one digit per array of bond levels below
    ``base``, each array read once, as it comes.

    ``ids`` (int64) lie in [0, count) and are overwritten.  Two rows end
    with equal ids exactly when they started with equal ids and have equal
    levels in every array.  Returns the ids and the new bound on them;
    raises CapacityError before a digit would overflow an int64.
    """
    for lv in levels:
        if count > np.iinfo(np.int64).max // base:
            raise CapacityError(f"level-row ids of base {base} overflow an int64")
        ids *= base
        ids += lv
        count *= base
    return ids, count


def distinct_ids(ids: np.ndarray, count: int):
    """``np.unique(ids, return_inverse=True)`` for int64 ids in [0, count),
    ranked in a boolean table over [0, count) when it is no larger than the
    id array, else by one sort."""
    if count <= ids.shape[0]:
        seen = np.zeros(count, dtype=bool)
        seen[ids] = True
        return np.flatnonzero(seen), (np.cumsum(seen) - 1)[ids]
    return np.unique(ids, return_inverse=True)


def _q_schedule(n_gaps: int, boxed: bool, q_offset: int):
    """Per-level node counts: exact for piecewise polynomials of the nested
    integrand degree (n_gaps - m, plus one in box mode)."""
    qs = []
    for m in range(1, n_gaps + 1):
        deg = (n_gaps - m) + (1 if boxed else 0)
        qs.append(max(2, (deg + 2) // 2 + q_offset))
    return qs


def _level_breakpoints(ts, radii, box_cuts, upper):
    """Panel edges for the next gap given the prefix gaps ``ts``.

    The scalar rule, kept as the oracle of ``_panels``.
    """
    suffix = [0.0]
    acc = 0.0
    for t in reversed(ts):
        acc += t
        suffix.append(acc)
    total = acc
    cand = []
    for r in radii:
        for s in suffix:
            v = r - s
            if _MERGE_TOL < v < upper - _MERGE_TOL:
                cand.append(v)
    for c in box_cuts:
        v = c - total
        if _MERGE_TOL < v < upper - _MERGE_TOL:
            cand.append(v)
    return _merge(cand)


def _expand_row(ts, wgt, xq, wq, radii, box_cuts, support, box_length):
    """Scalar expansion of one row by one gap: a list of (gaps, weight).

    The per-row oracle of ``_expand_level``: panels between the breakpoints,
    Gauss nodes a + h*x and weights (w*h)*wq in panel then node order.
    """
    upper = support if support is not None else box_length
    if box_length is not None:
        upper = min(upper, box_length - sum(ts))
    if upper <= _MERGE_TOL:
        return []
    edges = [0.0] + _level_breakpoints(ts, radii, box_cuts, upper) + [upper]
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        h = b - a
        if h <= _MERGE_TOL:
            continue
        for xg, wg in zip(xq, wq):
            out.append((ts + (a + h * xg,), wgt * h * wg))
    return out


#: breakpoint candidates per step of ``_panels``: a step takes
#: _CANDIDATE_BLOCK // ncand rows, so each of its scratch arrays (the edge
#: array, the widths, the kept-panel indices and gathers) holds at most about
#: 8 MB, and each boolean mask 1 MB
_CANDIDATE_BLOCK = 1 << 20


def _panels(ts, radii, box_cuts, support, box_length):
    """The panels of the next gap for every row of gaps ``ts`` (P, k).

    Returns (row, a, h): each panel's prefix row, left edge and width, in row
    then panel order.  The array form of the panel rule of ``_expand_row``:
    forward sums give the box-limited upper end, reversed suffix sums the
    breakpoint candidates r - s and c - (reversed total), which are filtered
    to (tol, upper - tol), sorted and merged by one sweep.  ``_panel_block``
    holds the candidates column-major, one contiguous row of the edge array
    per candidate, so the sweep and the widths run over whole rows.
    """
    ncand = len(radii) * (ts.shape[1] + 1) + len(box_cuts)
    step = max(1, _CANDIDATE_BLOCK // max(1, ncand))
    starts = range(0, max(1, ts.shape[0]), step)
    parts = [_panel_block(ts[i:i + step], radii, box_cuts, support, box_length)
             for i in starts]
    if len(parts) == 1:
        return parts[0]
    return (np.concatenate([p[0] + i for p, i in zip(parts, starts)]),
            np.concatenate([p[1] for p in parts]), np.concatenate([p[2] for p in parts]))


def _panel_block(ts, radii, box_cuts, support, box_length):
    """``_panels`` on one step of rows.

    The edge array is (ncand + 2, P), one contiguous row per candidate, so
    the candidates are written, filtered, sorted along axis 0 and merged by
    whole rows.  After the merge a (ncand + 1, P) mask marks the kept
    panels; their flat positions in its row-major transpose give each kept
    panel's two edges, gathered from the flat edge array, and its width is
    their difference.  No array of all the widths is made.
    """
    P, k = ts.shape
    upper = np.full(P, support if support is not None else box_length, dtype=float)
    if box_length is not None:
        forward = np.zeros(P)
        for j in range(k):
            forward = forward + ts[:, j]
        upper = np.minimum(upper, box_length - forward)
    live = upper > _MERGE_TOL
    rows = None
    if not live.all():
        rows = np.flatnonzero(live)
        ts, upper = ts[rows], upper[rows]
        P = ts.shape[0]
    # edges: 0, the candidates r - s over suffix sums s and c - total, upper
    width = len(radii) * (k + 1) + len(box_cuts) + 1
    edges = np.empty((width + 1, P))
    edges[0] = 0.0
    edges[-1] = upper
    cand = edges[1:-1]
    suffix = [edges[0]]
    for j in reversed(range(k)):
        suffix.append(suffix[-1] + ts[:, j])
    col = 0
    for r in radii:
        for s in suffix:
            np.subtract(r, s, out=cand[col])
            col += 1
    for c in box_cuts:
        np.subtract(c, suffix[-1], out=cand[col])
        col += 1
    del suffix
    # invalid candidates become 0, which sorts them first and merges them away
    cand[(cand <= _MERGE_TOL) | (cand >= upper - _MERGE_TOL)] = 0.0
    cand.sort(axis=0)
    # merge: keep a value when it exceeds the last kept one (or 0) by more
    # than tol; a dropped value repeats the last kept one, an empty panel
    last = edges[0]
    for v in cand:
        np.copyto(v, last, where=v - last <= _MERGE_TOL)
        last = v
    # a panel is kept when its width exceeds tol.  The merge left each
    # candidate either more than tol above the edge before it or equal to
    # it, so there a panel is kept when its edges differ; the last panel,
    # up to upper, is checked by its width
    kept = edges[1:] != edges[:-1]
    np.greater(edges[-1] - edges[-2], _MERGE_TOL, out=kept[-1])
    # the kept panels in row then panel order: flat positions in the
    # row-major (P, width) mask, turned into positions in the flat edges.
    # Each panel's width is its right edge, one edge row further on, minus
    # its left edge, and that position modulo P is its row.  The index
    # arithmetic runs in place, so the gathers hold three panel-length arrays.
    at = np.flatnonzero(kept.T)
    del kept
    row, at = np.divmod(at, width, out=(np.empty_like(at), at))
    at *= P
    at += row
    del row
    flat = edges.ravel()
    a = flat[at]
    at += P
    h = flat[at]
    h -= a
    row = np.remainder(at, P, out=at)
    if rows is not None:
        row = rows[row]
    return row, a, h


def _nodes(ts, row, a, h, xq):
    """Gap rows of the Gauss nodes a + h*x of the panels: the prefix row
    ts[row], then the node; in panel then node order.  Each prefix gap is
    written onto its panel's q rows from one panel-length gather."""
    q = xq.shape[0]
    k = ts.shape[1]
    out = np.empty((row.shape[0], q, k + 1))
    for j in range(k):
        out[:, :, j] = ts[row, j][:, None]
    np.multiply(h[:, None], xq, out=out[:, :, k])
    out[:, :, k] += a[:, None]
    return out.reshape(-1, k + 1)


def _expand_level(ts, wts, xq, wq, radii, box_cuts, support, box_length):
    """Expand every row of gaps ``ts`` (P, k) with weights ``wts`` (P,) by one gap.

    The array form of ``_expand_row``, node for node and weight for weight.
    Output rows come in row, panel, node order; a node's weight is
    (w * h) * wq, its row's weight times its panel's width times its Gauss
    weight.
    """
    row, a, h = _panels(ts, radii, box_cuts, support, box_length)
    return _nodes(ts, row, a, h, xq), ((wts[row] * h)[:, None] * wq).ravel()


def _evaluate(weight_fn, points):
    """weight_fn over the rows of ``points``, WEIGHT_BLOCK rows a call."""
    return np.concatenate([
        np.asarray(weight_fn(points[i:i + WEIGHT_BLOCK]), dtype=float)
        for i in range(0, points.shape[0], WEIGHT_BLOCK)
    ])


def _panel_values(weight_fn, ts, row, a, h, xq, level_cuts):
    """weight_fn at the Gauss nodes of the panels (row, a, h), called once
    per distinct row of bond levels: (panels, 1) values, one per panel, or
    None when a panel is split.

    A window grows with the last gap, so a panel whose first and last node
    share their levels has them at every node and is evaluated at its first
    node.  A panel with a level crossing inside it, closer to an edge than
    the merge tolerance, is split, and then its block goes node by node.
    A panel's levels are those of its prefix pairs, taken once per prefix
    row and ranked by ``distinct_ids``, and of the windows that end at its
    last vertex; all are differences of the running sums
    ``pair_window_matrix`` takes, so they are the levels weight_fn sees.
    The level work runs WEIGHT_BLOCK panels a step, so its gathers never
    span the block, and every step numbers the ids alike: prefix rank times
    base^(k+1) plus one level digit per window.  weight_fn sees one panel
    per distinct id, in increasing id order, and each value goes back to
    the panels of its id.
    """
    k = ts.shape[1]
    base = len(level_cuts) + 1
    cs = _running_sums(ts)
    pairs = (bond_levels(cs[j] - cs[i], level_cuts)
             for i in range(k + 1) for j in range(i + 1, k + 1))
    prefixes, pre_ids = distinct_ids(
        *_append_levels(np.zeros(ts.shape[0], dtype=np.int64), 1, pairs, base))
    ids = np.empty(row.shape[0], dtype=np.int64)
    for i in range(0, row.shape[0], WEIGHT_BLOCK):
        step = slice(i, i + WEIGHT_BLOCK)
        r = row[step]
        # the windows that end at the last vertex, at the first and last
        # node, one gathered prefix column at a time
        end = cs[k][r]
        first = np.add(a[step] + h[step] * xq[0], end)
        last = np.add(a[step] + h[step] * xq[-1], end)
        levels = []
        split = False
        for j in range(k + 1):
            c = end if j == k else cs[j][r]
            lv = bond_levels(first - c, level_cuts)
            split = split or bool((lv != bond_levels(last - c, level_cuts)).any())
            levels.append(lv)
        # ids before the split check: ids past an int64 are refused either way
        ids[step], count = _append_levels(pre_ids[r], prefixes.shape[0], levels, base)
        if split:
            return None
    del cs, pre_ids, prefixes
    distinct, inverse = distinct_ids(ids, count)
    del ids
    rep = np.empty(distinct.shape[0], dtype=np.intp)
    rep[inverse] = np.arange(inverse.shape[0])
    del distinct
    points = np.empty((rep.shape[0], k + 1))
    points[:, :k] = ts[row[rep]]
    points[:, k] = a[rep] + h[rep] * xq[0]
    return _evaluate(weight_fn, points)[inverse][:, None]


def _box_cuts(radii, n_gaps, box_length):
    """Total-span breakpoints: box_length minus every sum of up to n_gaps radii."""
    cuts = [box_length]
    if radii:
        for s in sum_closure(radii, n_gaps):
            c = box_length - s
            if c > _MERGE_TOL:
                cuts.append(c)
    return _merge(cuts)


#: prefix rows per partial sum of the final level
PREFIX_BLOCK = 20_000
#: integrand rows per weight_fn call; bounds the callback's scratch memory
WEIGHT_BLOCK = 32_768


def gap_quadrature(
    weight_fn: Callable[[np.ndarray], np.ndarray],
    n_gaps: int,
    radii: Sequence[float],
    support: Optional[float] = None,
    box_length: Optional[float] = None,
    level_cuts: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """Integrate weight_fn over gap vectors t in [0, U]^n_gaps.

    ``radii`` must already be difference-closed.  ``support`` truncates every
    gap (integrand vanishes beyond); ``box_length`` restricts the total span
    and multiplies the integrand by (box_length - sum t), the free-translation
    measure of the ordered chain in a box.  weight_fn receives an array
    (P, n_gaps) with n_gaps >= 1 and returns (P,).

    ``level_cuts`` declares that weight_fn depends on a point only through
    the bond level of each window sum (``bond_levels`` against these cuts),
    as the graph sums of a piecewise constant bond do.  With the cuts among
    ``radii``, the last gap's panel edges are where a window ending at the
    last vertex crosses a cut, so the levels are constant on a panel:
    weight_fn then runs once per distinct row of levels among the panels
    (``_panel_values``) and each value is repeated onto its panel's nodes.
    A block with a split panel, where a level crossing lies within the merge
    tolerance of an edge, runs at every node, as every block does without
    ``level_cuts``.  Both give the same bits.

    Returns the sums under the refined and the base node schedule, in that
    order; their difference is the callers' error estimate.  Each schedule
    streams every level but the last as the PREFIX_BLOCK-row blocks that
    slicing it whole would give (``_prefix_blocks``), and sums the last
    level one block at a time (``_block_sum``) by numpy's pairwise sum:
    PREFIX_BLOCK fixes the partial sums, and so the bits, whatever the BLAS
    thread count, and scratch memory is a few blocks a level at any order.
    The level work of a block runs WEIGHT_BLOCK panels a step, which bounds
    its scratch memory and leaves the bits alone, and weight_fn sees at most
    WEIGHT_BLOCK rows a call.
    """
    if support is None and box_length is None:
        raise ValueError("need a support radius or a box length")
    radii = list(radii)
    box_cuts = _box_cuts(radii, n_gaps, box_length) if box_length is not None else []
    rule = (radii, box_cuts, support, box_length)
    boxed = box_length is not None
    return tuple(_schedule_sum(weight_fn, _q_schedule(n_gaps, boxed, q_offset), rule,
                               level_cuts)
                 for q_offset in (1, 0))


def _max_row_nodes(radii, box_cuts, gaps, q):
    """The most nodes a row gets at the level of its ``gaps``-th gap: q a
    panel, and at most one panel more than its breakpoint candidates."""
    return (len(radii) * gaps + len(box_cuts) + 1) * q


def _schedule_sum(weight_fn, qs, rule, level_cuts) -> float:
    """The nested sum of ``gap_quadrature`` under one node schedule ``qs``."""
    est = math.prod(_max_row_nodes(*rule[:2], m, q) for m, q in enumerate(qs, start=1))
    if est > _MAX_NODES:
        raise CapacityError(
            f"nested quadrature would need ~{est:.2e} nodes; "
            "reduce the order or use Monte Carlo"
        )

    blocks = [(np.zeros((1, 0)), np.ones(1))]
    for q in qs[:-1]:
        blocks = _prefix_blocks(blocks, q, rule)

    xq, wq = gauss_nodes(qs[-1])
    partials = (_block_sum(weight_fn, prefix, w, xq, wq, rule, level_cuts)
                for prefix, w in blocks)
    return math.fsum(p for p in partials if p is not None)


def _prefix_blocks(blocks, q, rule):
    """The next level, by q nodes a panel, of a level given as (gaps,
    weights) blocks in row order: the PREFIX_BLOCK-row blocks that slicing
    the whole next level gives.

    The rows are expanded a chunk at a time, and a row's expansion does not
    depend on the other rows, so each block holds the rows of that slice,
    bit for bit.  A chunk has as many rows as keep its nodes, by the bound
    on a row's nodes, within one block, so no more than two blocks of the
    level exist at once.
    """
    xq, wq = gauss_nodes(q)
    held = held_w = None
    for ts, wts in blocks:
        if held is None:
            held, held_w = np.empty((0, ts.shape[1] + 1)), np.empty(0)
        step = max(1, PREFIX_BLOCK // _max_row_nodes(*rule[:2], ts.shape[1] + 1, q))
        for i in range(0, ts.shape[0], step):
            new, new_w = _expand_level(ts[i:i + step], wts[i:i + step], xq, wq, *rule)
            held, held_w = np.concatenate([held, new]), np.concatenate([held_w, new_w])
            del new, new_w
            while held.shape[0] >= PREFIX_BLOCK:
                yield held[:PREFIX_BLOCK], held_w[:PREFIX_BLOCK]
                held, held_w = held[PREFIX_BLOCK:], held_w[PREFIX_BLOCK:]
    if held is not None and held.shape[0]:
        yield held, held_w


def _block_sum(weight_fn, prefix, wts, xq, wq, rule, level_cuts) -> Optional[float]:
    """The last level's partial sum over one block of prefix rows, or None
    for a block without panels.

    A function of its own, so that none of the block's arrays outlives it
    while the next block's panels and values are made.  The values, one per
    panel unless a panel is split and the block goes node by node, are
    multiplied into the (panels, q) node weights in place.  The weighted
    values are summed by numpy's pairwise ``add.reduce``, not ``np.dot``:
    OpenBLAS splits a dot of more than 10,000 terms across its threads, so
    the bits of a dot follow the BLAS thread count, and those of this sum
    do not.
    """
    box_length = rule[3]
    row, a, h = _panels(prefix, *rule)
    if not row.shape[0]:
        return None
    q = xq.shape[0]
    vals = pts = None
    if level_cuts is not None:
        vals = _panel_values(weight_fn, prefix, row, a, h, xq, level_cuts)
    if vals is None or box_length is not None:
        pts = _nodes(prefix, row, a, h, xq)
    if vals is None:
        vals = _evaluate(weight_fn, pts).reshape(-1, q)
    if box_length is not None:
        vals = vals * (box_length - pts.sum(axis=1)).reshape(-1, q)
    # the node weights (w * h) * wq, as in ``_expand_level``, made once the
    # panels are dropped
    w = wts[row]
    w *= h
    del row, a, h, pts
    w = w[:, None] * wq
    np.multiply(w, vals, out=w)
    return float(np.add.reduce(w.ravel()))
