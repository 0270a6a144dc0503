"""Labeled-graph and rooted-tree combinatorics on integer edge masks.

Vertices are always 1..n.  Edges are unordered pairs (i, j) with i < j.  All
enumerations are deterministic: edge sets are indexed by bitmasks over the
lexicographic pair order (1,2), (1,3), ..., (n-1,n), and streams are emitted
in increasing mask order; trees are emitted in lexicographic order of their
generating sequence.

The module provides:
  * enumeration of the masks of all / connected / two-connected labeled
    graphs (``enum_graphs``), and of all labeled trees
    (``prufer_tree_masks``),
  * the Ursell value (alternating connected-subgraph sum) of a batch of
    graphs, ``ursell_values``, the one Ursell evaluator: the subset
    recursion of the Mayer sums, ``connected_weight_sum``, on int16 or
    int32 bond values, a block of masks at a time; ``ursell_table`` keeps
    its values for every mask on up to 6 vertices,
  * the deterministic rooted-tree image of a connected spanning subgraph
    (generations from the root, parent = smallest-index neighbor one
    generation up) and the trees whose preimage under that map is a
    singleton ("Penrose trees"),
  * the rooted tree of each int64 edge mask on up to 11 vertices, from one
    array breadth-first sweep, ``_sweep``, in fixed-size blocks: one lookup
    per 12 edges gives each vertex's neighbor bitset, in 4,096-column
    tables that ``_deposit_rows`` builds per call, and the sweep gives every
    vertex's reached flag, parent and generation.  ``mask_tree_images`` (the
    connectivity test and the tree image) and ``slack_masks`` (the slack
    rule over tree masks, as array ops) read it, and the parent edges come
    from one table of pair bits, ``_pair_bits``, which ``_prufer_masks``
    also uses to decode any array of tree sequences.  The scalar oracles are
    ``_mask_connected`` (on the closure ``_reach``, shared with the
    two-connected test), ``_mask_tree_image``, ``_slack_mask`` (on the maps
    of ``_mask_tree_maps``, the one scalar sweep) and ``_decode_tree_sequence``,
  * ``mask_tree_table``, the flags and images of ``mask_tree_images`` for
    every edge mask on up to 6 vertices, kept per (n, root);
    ``connected_mask_flags`` reads its flags,
  * ``_slack_free_tree_masks``, the one Penrose-tree enumerator: the trees
    with no slack edge in the host, on any number of vertices, by one of
    three paths chosen by n.  On 2 to 7 vertices, while the n^(n-2) labeled
    trees are no more than the rows of the largest mask table, it filters
    a table of every labeled tree and its slack mask, kept per (n, root),
    with a few array operations per host; up to 5 vertices, where the
    host-tree pairs are no more either, that filter is run once for every
    host, and a host's trees are one slice of the index it leaves
    (``_host_tree_index``).  From 8 vertices on, and at n = 1, it grows the
    trees one generation at a time without looking at a non-tree subgraph
    (``_grown_tree_masks``), as n^(n-2) outgrows the tree count of most
    hosts.  All give the same tree set.  The verify checks count them
    against ``ursell_values``.  ``penrose_trees`` and
    ``penrose_trees_fast`` wrap them as ``RootedTree``s of a
    ``LabeledGraph`` host for the bench harness, with no separate
    connectivity pass (every path yields a tree exactly when the host is
    connected).  Both are NamedTuples, (n, mask) and (n, root, mask), with
    one shared ``edges``; ``LabeledGraph.from_edges`` checks edges by ``edge_mask``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, DomainError, _integer

Edge = Tuple[int, int]

#: caps for exhaustive streams; beyond these the mask space is not desk-scale
MAX_GRAPH_N = 8
MAX_TREE_N = 9

GRAPH_CLASSES = ("all", "connected", "two_connected")


@lru_cache(maxsize=None)
def vertex_pairs(n: int) -> Tuple[Edge, ...]:
    """Lexicographic list of unordered pairs over [n]; defines edge bit order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> Tuple[Tuple[int, ...], ...]:
    """``_pair_index(n)[i][j]``: the position of {i, j} in vertex_pairs(n), -1 for no pair."""
    index = [[-1] * (n + 1) for _ in range(n + 1)]
    for k, (i, j) in enumerate(vertex_pairs(n)):
        index[i][j] = index[j][i] = k
    return tuple(map(tuple, index))


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> np.ndarray:
    """Read-only int64 edge bits on [n] <= 11: [i, j] is that of {i, j}, else 0."""
    bits = np.zeros((n + 1, n + 1), dtype=np.int64)
    for k, (i, j) in enumerate(vertex_pairs(n)):
        bits[i, j] = bits[j, i] = 1 << k
    bits.flags.writeable = False
    return bits


def edge_mask(n: int, edges) -> int:
    idx = _pair_index(n)
    mask = 0
    for i, j in edges:
        k = idx[i][j] if 0 < i <= n and 0 < j <= n else -1
        if k < 0:
            raise ValueError(f"({i}, {j}) is not an edge on [1..{n}]")
        mask |= 1 << k
    return mask


def mask_edges(n: int, mask: int) -> Tuple[Edge, ...]:
    pairs = vertex_pairs(n)
    return tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)


def _mask_adjacency(n: int, mask: int) -> list:
    """Neighbor bitsets (bit v-1 set for neighbor v) for each vertex 1..n."""
    adj = [0] * (n + 1)
    pairs = vertex_pairs(n)
    m = mask
    while m:
        low = m & -m
        i, j = pairs[low.bit_length() - 1]
        adj[i] |= 1 << (j - 1)
        adj[j] |= 1 << (i - 1)
        m ^= low
    return adj


def _reach(adj: list, seen: int) -> int:
    """The vertex bitset ``seen`` closed under the neighbor bitsets ``adj``."""
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length()]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _mask_connected(n: int, mask: int) -> bool:
    """True when the graph covers all of [n] in one component (n=1: yes)."""
    return _reach(_mask_adjacency(n, mask), 1) == (1 << n) - 1


def _mask_two_connected(n: int, mask: int) -> bool:
    """Connected with no cut vertex; the 2-vertex single edge is excluded."""
    if n < 3:
        return False
    adj = _mask_adjacency(n, mask)
    full = (1 << n) - 1
    # every [n] \ {v} connected, reached from its smallest vertex; with
    # n >= 3 any two vertices lie in one of them, so the graph is connected
    for v in range(1, n + 1):
        cut = 1 << (v - 1)
        if _reach([a & ~cut for a in adj], 2 if v == 1 else 1) != full & ~cut:
            return False
    return True


@property
def _edges(self) -> FrozenSet[Edge]:
    """The edges (i, j), i < j, of ``self.mask`` on [self.n]."""
    return frozenset(mask_edges(self.n, self.mask))


class LabeledGraph(NamedTuple):
    """A labeled graph on vertex set [n], held as its edge mask."""

    n: int
    mask: int
    edges = _edges

    @classmethod
    def from_edges(cls, n: int, edges) -> "LabeledGraph":
        """The graph of ``edges`` on [n]: ValueError for n < 1 or a non-edge (``edge_mask``)."""
        n = _integer("vertex count n", n, 1, ValueError)
        return cls(n, edge_mask(n, edges))


def enum_graphs(n: int, klass: str = "connected") -> Iterator[int]:
    """Yield the edge mask of each labeled graph on [n] of the requested class once.

    Deterministic: increasing edge-bitmask order.  ``two_connected`` means
    connected with no cut vertex; the single edge on two vertices is excluded,
    so the triangle is the smallest member.
    """
    if klass not in GRAPH_CLASSES:
        raise ValueError(f"unknown graph class {klass!r}; want one of {GRAPH_CLASSES}")
    n = _integer("vertex count n", n, 1, ValueError)
    if n > MAX_GRAPH_N:
        raise CapacityError(f"graph enumeration capped at n={MAX_GRAPH_N}, got {n}")
    npairs = n * (n - 1) // 2
    for mask in range(1 << npairs):
        if klass == "connected" and not _mask_connected(n, mask):
            continue
        if klass == "two_connected" and not _mask_two_connected(n, mask):
            continue
        yield mask


def _check_root(n: int, root: int) -> None:
    if not (1 <= root <= n):
        raise ValueError(f"root {root} outside [1..{n}]")


def _mask_tree_maps(n: int, mask: int, root: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Parent and generation of each vertex reached from ``root`` over ``mask``.

    One breadth-first sweep over neighbor bitsets: the vertices of a layer,
    in increasing index order, adopt their neighbors not yet reached.  So
    the parent of a vertex is its smallest-index neighbor one generation up,
    and over a tree mask it is the tree parent.
    """
    adj = _mask_adjacency(n, mask)
    parent: Dict[int, int] = {}
    gen = {root: 0}
    seen = layer = 1 << (root - 1)
    depth = 0
    while layer:
        depth += 1
        nxt = 0
        while layer:
            low = layer & -layer
            layer ^= low
            v = low.bit_length()
            kids = adj[v] & ~seen & ~nxt
            nxt |= kids
            while kids:
                k = kids & -kids
                kids ^= k
                w = k.bit_length()
                parent[w] = v
                gen[w] = depth
        seen |= nxt
        layer = nxt
    return parent, gen


class RootedTree(NamedTuple):
    """A labeled spanning tree on [n], held as its edge mask, rooted at ``root``."""

    n: int
    root: int
    mask: int
    edges = _edges


def _decode_tree_sequence(n: int, seq: Sequence[int]) -> list:
    """Edge list of the labeled tree encoded by ``seq`` in [n]^(n-2)."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        for leaf in range(1, n + 1):
            if degree[leaf] == 1:
                edges.append((min(leaf, v), max(leaf, v)))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(1, n + 1) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def prufer_tree_masks(n: int) -> np.ndarray:
    """Edge masks of all labeled trees on [n]: ``_prufer_masks`` of [n]^(n-2) in order."""
    n = _integer("vertex count n", n, 2, ValueError)
    if n > MAX_TREE_N:
        raise CapacityError(f"tree enumeration capped at n={MAX_TREE_N}, got {n}")
    # row r is one plus the base-n digits of r, most significant first
    seq = np.arange(n ** (n - 2))[:, None] // n ** np.arange(n - 3, -1, -1) % n + 1
    return _prufer_masks(n, seq)


def _prufer_masks(n: int, seq) -> np.ndarray:
    """Edge masks of the trees on [n] (2 <= n <= 11) coded by the rows of the
    (m, n-2) integer array ``seq`` over [1..n]: ``_decode_tree_sequence`` on
    all rows at once.  Each step joins the smallest vertex of degree one to
    the next entry; the last edge joins the two vertices left of degree one.
    """
    _check_int64_masks(n)
    seq = np.asarray(seq)
    if not (seq.ndim == 2 and seq.shape[1] == n - 2
            and np.issubdtype(seq.dtype, np.integer) and np.all((seq >= 1) & (seq <= n))):
        raise ValueError(f"tree sequences on [{n}] are an (m, {n - 2}) integer array over [1..{n}]")
    bit = _pair_bits(n)
    rows = np.arange(seq.shape[0])
    degree = np.ones((seq.shape[0], n + 1), dtype=np.int8)
    degree[:, 0] = 0
    for v in seq.T:
        degree[rows, v] += 1
    masks = np.zeros(seq.shape[0], dtype=np.int64)
    for v in seq.T:
        leaf = np.argmax(degree == 1, axis=1)
        masks |= bit[leaf, v]
        degree[rows, leaf] -= 1
        degree[rows, v] -= 1
    ones = degree == 1
    return masks | bit[np.argmax(ones, axis=1), n - np.argmax(ones[:, ::-1], axis=1)]


# ---------------------------------------------------------------------------
# Ursell value: alternating sum over connected spanning subgraphs
# ---------------------------------------------------------------------------

def connected_weight_sum(fvals: np.ndarray, n: int) -> np.ndarray:
    """Sum over connected spanning graphs on [n] of the bond-value products.

    ``fvals`` has one column per vertex pair in vertex_pairs(n) order, and
    the result keeps its dtype.  Uses the subset identity: the full product
    over pairs inside S equals the sum over partitions of S of connected
    parts, so the connected part is extracted by peeling the component of
    vertex 1.
    """
    n = _integer("vertex count n", n, 1, ValueError)
    col = _pair_index(n)
    full = (1 << n) - 1
    # in increasing order of S: boltz[S], the product of (1 + f_ij) over the
    # pairs inside S, then, when S holds vertex 1 (the only sets whose
    # connected part is read), its connected part conn[S], less the splits
    # in which U | 1, U a proper subset of the rest of S in decreasing
    # order, is the component of vertex 1
    boltz, conn = {0: np.ones(fvals.shape[0], fvals.dtype)}, {}
    for s in range(1, full + 1):
        top = s.bit_length()  # highest vertex in S (1-based)
        r = s ^ (1 << (top - 1))
        acc = boltz[r]
        while r:
            low = r & -r
            r ^= low
            acc = acc * (1 + fvals[:, col[low.bit_length()][top]])
        boltz[s] = total = acc
        if s & 1:
            u = rest = s ^ 1
            while u:
                u = (u - 1) & rest
                total = total - conn[u | 1] * boltz[rest ^ u]
            conn[s] = total
    return conn[full]


def _check_mask_range(n: int, lo: int, hi: int) -> None:
    """ValueError unless edge masks from ``lo`` to ``hi`` lie in [0, 2^(n(n-1)/2))."""
    npairs = n * (n - 1) // 2
    if lo < 0 or hi >> npairs:
        raise ValueError(f"edge mask {lo if lo < 0 else hi} outside [0, 2^{npairs}) on [{n}]")


def _check_int64_masks(n: int, masks=()) -> np.ndarray:
    """``masks`` as checked int64 edge masks on [n]; CapacityError past 11 vertices."""
    if n > 11:
        raise CapacityError(f"int64 edge masks hold at most 11 vertices, got {n}")
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size:
        _check_mask_range(n, int(masks.min()), int(masks.max()))
    return masks


def ursell_values(n: int, masks) -> np.ndarray:
    """Ursell value of each graph on [n] in the 1-D array of edge masks ``masks``.

    The sum of (-1)^|edges| over the connected spanning subgraphs of G, of
    size at most (n-1)!.  With f = -1 on the edges of G, the product of
    (1 + f) over the pairs inside a vertex subset S is 1 when S is
    independent in G and 0 otherwise; its connected part over [n] is that
    sum (Penrose 1967; Scott & Sokal, J. Stat. Phys. 118, 1151 (2005)).
    O(3^n) per mask, MASK_BLOCK masks at a time, and returned as int64.
    The recursion runs on int16 up to 8 vertices and int32 above, exactly:
    with |conn[T]| <= (|T|-1)!, every partial sum at a subset S is at most
    1 + sum_{j<m} C(m, j) j! < e m!, m = |S| - 1 <= n - 1, which is about
    13,700 at n = 8 and 9.9M at n = 11.  A mask outside
    [0, 2^(n(n-1)/2)) raises ValueError.
    """
    n = _integer("vertex count n", n, 1, ValueError)
    masks = _check_int64_masks(n, masks)
    # pair-major, so that the column of a pair is contiguous in fvals.T
    fvals = np.empty((n * (n - 1) // 2, min(masks.size, MASK_BLOCK)),
                     dtype=np.int16 if n <= 8 else np.int32)
    values = np.empty(masks.shape, dtype=np.int64)
    for start in range(0, masks.shape[0], MASK_BLOCK):
        block = masks[start:start + MASK_BLOCK]
        rows = fvals[:, :block.size]
        for k, row in enumerate(rows):
            np.negative((block >> k) & 1, out=row, casting="unsafe")
        values[start:start + block.size] = connected_weight_sum(rows.T, n)
    return values


def ursell_table(n: int) -> np.ndarray:
    """``ursell_values`` of every graph on [n] (n <= 6), indexed by edge mask.

    Built once per n and kept, read-only.
    """
    n = _integer("vertex count n", n, 1, ValueError)
    if n > 6:
        raise CapacityError("ursell tables are kept only up to n=6")
    return _ursell_table(n)


@lru_cache(maxsize=None)
def _ursell_table(n: int) -> np.ndarray:
    table = ursell_values(n, np.arange(1 << (n * (n - 1) // 2), dtype=np.int64))
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Rooted-tree image of a connected spanning subgraph, and its singletons
# ---------------------------------------------------------------------------

def _mask_tree_image(n: int, gmask: int, root: int) -> int:
    """Edge mask of the rooted-tree image of connected spanning mask ``gmask``.

    Generations are graph distances from the root; the parent of a vertex is
    its smallest-index neighbor one generation closer to the root.  For a
    disconnected mask the tree spans the root's component, as in the array
    kernel ``mask_tree_images``, of which this is the scalar oracle.
    """
    return edge_mask(n, _mask_tree_maps(n, gmask, root)[0].items())


#: masks per step of the array kernel; bounds its scratch memory
MASK_BLOCK = 4096
_BLOCK_BITS = MASK_BLOCK.bit_length() - 1
#: vertex counts up to which the tree image of every edge mask is kept, in
#: one table per root
TABLE_MAX_N = 6
#: rows of the largest such table; a table of every labeled tree on [n] is
#: kept while its n^(n-2) rows are no more (n <= 7: 16,807 trees)
_TABLE_ROWS = 1 << (TABLE_MAX_N * (TABLE_MAX_N - 1) // 2)

#: the 0-based lowest vertex of each vertex bitset on up to 11 vertices, -1 for none
_LOWEST_VERTEX = np.frexp(np.arange(1 << 11) & -np.arange(1 << 11))[1] - 1


def _bitset_dtype(n: int):
    """Vertex bitsets of the kernel: uint8 up to 8 vertices, uint16 up to 11."""
    return np.uint8 if n <= 8 else np.uint16


def _deposit_rows(n: int, bits: Sequence[int]) -> np.ndarray:
    """Neighbor rows of the submasks of the edges ``bits`` on [n].

    Column s holds, for each vertex, its neighbor bitset through the edges
    bits[t] with bit t of s set, in ``_bitset_dtype(n)``.  Built by
    doubling: the columns with bit t set are those without it, ORed with
    the rows of edge bits[t].
    """
    dtype = _bitset_dtype(n)
    rows = np.zeros((n, 1 << len(bits)), dtype=dtype)
    for t, k in enumerate(bits):
        half = 1 << t
        np.bitwise_or(rows[:, :half], np.array(_mask_adjacency(n, 1 << k)[1:], dtype)[:, None],
                      out=rows[:, half:2 * half])
    return rows


def _sweep(adj: np.ndarray, root: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first sweep from ``root`` over the graphs with neighbor rows ``adj``.

    ``adj[v]`` holds the neighbor bitset of vertex v + 1 in each graph on
    [n], n = len(adj), in ``_bitset_dtype(n)``.  Returns, per vertex and
    graph: whether it is unreached; its parent, the 0-based lowest of its
    neighbors in the layer it was reached from (-1 for the root and the
    unreached); and its generation, as int8.  As the adjacency is symmetric,
    ``adj & layer`` is nonzero in the rows of the vertices next to the layer
    and holds their neighbors in it.
    """
    n = adj.shape[0]
    bit = (1 << np.arange(n, dtype=adj.dtype))[:, None]
    unseen = np.ones(adj.shape, dtype=bool)
    unseen[root - 1] = False
    layer = bit[root - 1]
    up = np.zeros_like(adj)
    gen = np.zeros(adj.shape, dtype=np.int8)
    for _ in range(n - 1):
        reached = adj & layer
        reached *= unseen
        new = reached != 0
        if not new.any():
            break
        up |= reached
        # a vertex reached at step d was unseen at steps 1..d
        gen += unseen
        unseen ^= new
        layer = np.bitwise_or.reduce(bit * new, axis=0)
    return unseen, _LOWEST_VERTEX[up], gen


def _swept_blocks(n: int, masks, root: int) -> Tuple[np.ndarray, Iterator[tuple]]:
    """The edge masks ``masks`` on [n] as a checked int64 array, and the sweep of each block.

    The iterator yields (start, unseen, parent, gen), the ``_sweep`` from
    ``root`` of the masks from ``start`` on, MASK_BLOCK at a time, so
    scratch memory does not grow with the number of masks.  A block's
    neighbor rows take one lookup per 12 edges of the masks, in tables of
    ``_deposit_rows`` built once per call.  CapacityError past 11 vertices;
    ValueError for a root outside [n] or a mask outside [0, 2^(n(n-1)/2)).
    """
    masks = _check_int64_masks(n, masks)
    _check_root(n, root)
    npairs = n * (n - 1) // 2
    tables = [_deposit_rows(n, range(lo, min(lo + _BLOCK_BITS, npairs)))
              for lo in range(0, npairs, _BLOCK_BITS)]

    def blocks():
        for start in range(0, masks.shape[0], MASK_BLOCK):
            block = masks[start:start + MASK_BLOCK]
            adj = np.zeros((n, block.size), dtype=_bitset_dtype(n))
            for c, table in enumerate(tables):
                adj |= np.take(table, (block >> _BLOCK_BITS * c) & (table.shape[1] - 1), axis=1)
            yield (start,) + _sweep(adj, root)

    return masks, blocks()


def mask_tree_images(n: int, masks, root: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Connected flag and rooted tree-image mask of each edge mask on [n].

    The array form of ``_mask_connected`` and ``_mask_tree_image``, on the
    sweep of ``_swept_blocks``: a mask is connected when the sweep reaches
    every vertex, and each vertex's parent edge is read from ``_pair_bits``
    (no parent reads 0).  For a disconnected mask the tree spans only the
    root's component.  ``masks`` is a 1-D array; a mask outside
    [0, 2^(n(n-1)/2)) raises ValueError.
    """
    n = _integer("vertex count n", n, 1, ValueError)
    masks, blocks = _swept_blocks(n, masks, root)
    bits = _pair_bits(n)
    connected = np.empty(masks.shape, dtype=bool)
    trees = np.zeros(masks.shape, dtype=np.int64)
    for start, unseen, parent, _ in blocks:
        stop = start + parent.shape[1]
        connected[start:stop] = ~unseen.any(axis=0)
        for w, p in enumerate(parent, 1):
            trees[start:stop] |= np.take(bits[w], p + 1)
    return connected, trees


@lru_cache(maxsize=None)
def _mask_tree_table(n: int, root: int) -> Tuple[np.ndarray, np.ndarray]:
    connected, trees = mask_tree_images(n, np.arange(1 << (n * (n - 1) // 2), dtype=np.int64), root)
    trees = trees.astype(np.uint16)
    connected.flags.writeable = trees.flags.writeable = False
    return connected, trees


def mask_tree_table(n: int, root: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """``mask_tree_images`` of every edge mask on [n], indexed by mask (n <= 6).

    Built once per (n, root) and kept, read-only.  The tree masks of at most
    15 edges are held as uint16, a quarter of the int64 memory.
    """
    n = _integer("vertex count n", n, 1, ValueError)
    if n > TABLE_MAX_N:
        raise CapacityError(f"full mask tables are kept only up to n={TABLE_MAX_N}, got {n}")
    return _mask_tree_table(n, root)  # positional: one cache entry per (n, root)


def connected_mask_flags(n: int) -> np.ndarray:
    """Boolean array over all 2^(n(n-1)/2) edge masks: connected and spanning."""
    return mask_tree_table(n)[0]


def _slack_mask(n: int, parent: Mapping[int, int], gen: Mapping[int, int]) -> int:
    """Edge mask of the non-tree edges whose addition leaves the tree image unchanged.

    The tree is given by its parent and generation maps.  Its slack edges
    are the edges {i, j} between vertices whose generations differ by at
    most one, subject to not undercutting the smallest-index parent rule: a
    cross-generation edge to a vertex one generation up is allowed only to
    an index larger than the current parent.  A tree is a singleton
    preimage inside a host graph exactly when the host contains none of
    these edges.
    """
    mask = 0
    for k, (i, j) in enumerate(vertex_pairs(n)):
        dg = gen[i] - gen[j]
        # a tree edge joins a child to its parent, so the strict test drops it
        if dg == 0 or (dg == 1 and j > parent[i]) or (dg == -1 and i > parent[j]):
            mask |= 1 << k
    return mask


def slack_masks(n: int, trees, root: int = 1) -> np.ndarray:
    """Slack mask (``_slack_mask``) of each spanning-tree mask in ``trees`` at ``root``.

    The array form of ``_slack_mask(n, *_mask_tree_maps(n, t, root))``, on
    any edge mask t that reaches every vertex from the root.  The sweep of
    ``_swept_blocks`` gives each vertex's parent and generation; the slack
    rule is then applied to all pairs at once.  A mask outside
    [0, 2^(n(n-1)/2)) or one that does not reach every vertex from the root
    raises ValueError.
    """
    n = _integer("vertex count n", n, 1, ValueError)
    trees, blocks = _swept_blocks(n, trees, root)
    npairs = n * (n - 1) // 2
    i, j = (np.array(vertex_pairs(n), dtype=np.int64).reshape(npairs, 2) - 1).T
    k = np.arange(npairs, dtype=np.int64)[:, None]
    out = np.empty(trees.shape, dtype=np.int64)
    for start, unseen, parent, gen in blocks:
        if unseen.any():
            bad = int(trees[start + unseen.any(axis=0).argmax()])
            raise ValueError(f"edge mask {bad} does not reach every vertex of [{n}] from {root}")
        dg = gen[i] - gen[j]
        # a tree edge joins a child to its parent, so the strict tests drop it
        slack = ((dg == 0) | ((dg == 1) & (j[:, None] > parent[i]))
                 | ((dg == -1) & (i[:, None] > parent[j])))
        out[start:start + parent.shape[1]] = np.bitwise_or.reduce(slack << k, axis=0)
    return out


@lru_cache(maxsize=None)
def _tree_slack_table(n: int, root: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every labeled tree on [n] (``prufer_tree_masks``) and the tree plus
    its slack edges at ``root`` (``slack_masks``), kept per (n, root),
    read-only, as int32: the table stops at 7 vertices, 21 edges.
    """
    trees = prufer_tree_masks(n)
    span = (trees | slack_masks(n, trees, root)).astype(np.int32)
    trees = trees.astype(np.int32)
    trees.flags.writeable = span.flags.writeable = False
    return trees, span


@lru_cache(maxsize=None)
def _host_tree_index(n: int, root: int) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The filter of ``_slack_free_tree_masks`` run once for every host on [n].

    Host g's trees, in table order, are ``trees[offsets[g]:offsets[g + 1]]``
    of the returned (trees, offsets).  A tree lies in the 2^f hosts that
    hold it and none of its slack edges, f the edges outside its span mask,
    so the host-tree pairs are counted from the table first, and the index
    is built while they are no more than ``_TABLE_ROWS``: 3,377 at n = 5,
    362,431 at n = 6, so n <= 5.  Else None.  Kept per (n, root).
    """
    trees, span = _tree_slack_table(n, root)
    npairs = n * (n - 1) // 2
    if sum(1 << npairs - s.bit_count() for s in span.tolist()) > _TABLE_ROWS:
        return None
    hosts = np.arange(1 << npairs, dtype=span.dtype)[:, None]
    host, col = np.nonzero((span & hosts) == trees)  # host-major, table order within
    offsets = np.searchsorted(host, np.arange((1 << npairs) + 1))
    return tuple(trees[col].tolist()), tuple(offsets.tolist())


def _slack_free_tree_masks(n: int, gmask: int, root: int = 1) -> list:
    """Edge masks of the spanning trees of host ``gmask`` on [n] with no slack edge in it.

    These are the Penrose trees: a tree is its own sole preimage inside the
    host under ``_mask_tree_image`` exactly when the host holds none of its
    slack edges (``_slack_mask``).  Three paths give the same set, chosen
    by n.  For 2 <= n <= 7, while n^(n-2) is at most the 2^15 rows of the
    largest mask table (``_TABLE_ROWS``), the labeled trees and their slack
    masks at ``root`` are built once (``_tree_slack_table``; 16,807 rows at
    n = 7), and the host's trees are one array test over them: a tree lies
    inside the host and none of its slack edges does, that is, host & (tree
    | slack) == tree, as a tree has no edge in its slack mask.  This costs a
    few array operations per host where the growth pays per tree, and the
    trees come in sequence order.  For n <= 5 that test has been run once
    for every host (``_host_tree_index``, 3,377 host-tree pairs at n = 5),
    and the host's trees are one slice of it, in the same order; n = 6,
    with 362,431 pairs, and n = 7 filter per host.  For n = 1 and n >= 8
    the trees are grown (``_grown_tree_masks``): at n = 8 the 262,144-row
    table would filter 100 random connected G(8, 1/2) hosts in about 39 ms
    against the growth's 36 ms, after a build of 4.2 MB and about 0.2 s;
    at n = 7 the table takes 1.5 ms against 8 ms.  A disconnected host has
    none.  A root outside [n] or a mask outside [0, 2^(n(n-1)/2)) raises
    ValueError on every path.
    """
    if n < 2 or n ** (n - 2) > _TABLE_ROWS:
        return _grown_tree_masks(n, gmask, root)
    _check_root(n, root)
    _check_mask_range(n, gmask, gmask)
    # positional: one cache entry per (n, root)
    index = _host_tree_index(n, root)
    if index is not None:
        trees, offsets = index
        return list(trees[offsets[gmask]:offsets[gmask + 1]])
    trees, span = _tree_slack_table(n, root)
    return trees[(span & gmask) == trees].tolist()


def _grown_tree_masks(n: int, gmask: int, root: int = 1) -> list:
    """``_slack_free_tree_masks`` by growth from the root, on any number of vertices.

    A spanning tree T has no slack edge (``_slack_mask``) in the host
    exactly when each generation of T is an independent set of the host and
    each vertex's parent is its largest-index host neighbor one generation
    up: a same-generation edge is slack, and so is an edge to an upper
    neighbor of larger index than the parent.  So the trees are grown from
    the root: the next generation is any nonempty independent subset of the
    unused neighbors of the current one, each member takes its forced
    parent, and a tree is complete when every vertex is used.  Only those
    trees and their prefixes are visited.  A disconnected host has none.
    """
    _check_root(n, root)
    _check_mask_range(n, gmask, gmask)
    adj = _mask_adjacency(n, gmask)
    idx = _pair_index(n)
    full = (1 << n) - 1
    out = []

    def grow(layer: int, used: int, tree: int, free: int, new: int, reach: int) -> None:
        # ``new``, an independent set of the generation under ``layer``,
        # grows by each member of ``free`` in turn (members only increase,
        # so each set is built once), and ``reach`` by its neighbors; then
        # it closes, and the generation after it is grown
        f = free
        while f:
            low = f & -f
            f ^= low
            v = low.bit_length()
            a = adj[v]
            grow(layer, used, tree | 1 << idx[v][(a & layer).bit_length()],
                 f & ~a, new | low, reach | a)
        if not new:
            return
        used |= new
        if used == full:
            out.append(tree)
            return
        grow(new, used, tree, reach & ~used, 0, 0)

    grow(0, 0, 0, 0, 1 << (root - 1), adj[root])
    return out


def _penrose_trees(g: LabeledGraph, root: int) -> FrozenSet[RootedTree]:
    n, mask = g
    trees = _slack_free_tree_masks(n, mask, root)
    if not trees:
        raise DomainError("Penrose trees are defined for connected graphs only")
    # the tuple that RootedTree(n, root, t) builds, without its Python-level __new__
    new = tuple.__new__
    return frozenset(new(RootedTree, (n, root, t)) for t in trees)


def penrose_trees(g: LabeledGraph, root: int = 1) -> FrozenSet[RootedTree]:
    """Spanning trees of ``g`` whose preimage under the tree map is a singleton.

    The trees of ``_slack_free_tree_masks``, as ``RootedTree``s: a tree is
    its own sole preimage inside ``g`` under ``_mask_tree_image`` exactly
    when ``g`` holds none of its slack edges.  Their count equals the size
    of the Ursell value of ``g`` (``ursell_values``), which is nonzero
    exactly when ``g`` is connected, so no tree means a disconnected graph
    (DomainError).
    """
    return _penrose_trees(g, root)


def penrose_trees_fast(g: LabeledGraph, root: int = 1) -> FrozenSet[RootedTree]:
    """``penrose_trees``, kept under the name the bench harness times.

    Both names call ``_penrose_trees``, so a tracer that wraps each name
    counts each call once.
    """
    return _penrose_trees(g, root)
