"""Labeled-graph and rooted-tree combinatorics.

Vertices are always 1..n.  Edges are unordered pairs (i, j) with i < j.  All
enumerations are deterministic: edge sets are indexed by bitmasks over the
lexicographic pair order (1,2), (1,3), ..., (n-1,n), and streams are emitted
in increasing mask order; trees are emitted in lexicographic order of their
generating sequence.

The module provides:
  * enumeration of all / connected / two-connected labeled graphs,
  * rooted labeled trees held as edge masks (``RootedTree``, keyed by
    (n, root, mask)), whose parent and generation (depth) maps are derived
    on first use by one breadth-first sweep over the mask,
  * the Ursell value (alternating connected-subgraph sum) of a batch of
    graphs, ``ursell_values``, the one Ursell evaluator: the subset
    recursion of the Mayer sums, ``connected_weight_sum``, on int16 or
    int32 bond values, a block of masks at a time; ``ursell_table`` keeps
    its values for every mask on up to 6 vertices,
  * the deterministic rooted-tree image of a connected spanning subgraph
    (generations from the root, parent = smallest-index neighbor one
    generation up) and the trees whose preimage under that map is a
    singleton ("Penrose trees"),
  * ``mask_tree_images``, the array form of the connectivity test and the
    tree image over int64 edge masks, processed in fixed-size blocks: one
    lookup per 12 edges of the masks gives each vertex's neighbor bitset
    ("row"; uint8 up to 8 vertices, uint16 up to 11), in a 4,096-column
    table that ``_deposit_rows`` builds per call, and the one breadth-first
    kernel ``_tree_images`` runs on the rows, reading parent edges from one
    table per vertex.  Its scalar oracles are ``_mask_connected`` (on the
    closure ``_reach``, shared with the two-connected test) and
    ``_mask_tree_image`` (on ``_mask_tree_maps``, the one scalar
    breadth-first sweep, which also derives and checks tree maps),
  * ``mask_tree_table``, the flags and images of ``mask_tree_images`` for
    every edge mask on up to 6 vertices, kept per (n, root);
    ``connected_mask_flags`` reads its flags,
  * ``slack_masks``, the array form of the slack rule over int64 tree
    masks at a root: one breadth-first sweep over the whole block gives
    every vertex's parent and generation, then the rule is applied to all
    pairs as array ops.  Its scalar oracle is ``_slack_mask`` on the maps
    of ``_mask_tree_maps``; the verify checks of the slack rule read it,
  * ``_slack_free_tree_masks``, the one Penrose-tree enumerator: the trees
    with no slack edge in the host, grown one generation at a time without
    looking at a non-tree subgraph, on any number of vertices.
    ``penrose_trees`` wraps its masks as ``RootedTree``s with no separate
    connectivity pass (the growth yields a tree exactly when the host is
    connected), and the verify checks count them against ``ursell_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .errors import CapacityError, DomainError

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


@dataclass(frozen=True)
class LabeledGraph:
    """A labeled graph on vertex set [n] with edge set of pairs (i, j), i < j."""

    n: int
    edges: FrozenSet[Edge]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge ({i},{j}) outside [1..{self.n}] or unordered")

    @classmethod
    def from_edges(cls, n: int, edges) -> "LabeledGraph":
        norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return cls(n, norm)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "LabeledGraph":
        return cls(n, frozenset(mask_edges(n, mask)))

    @property
    def mask(self) -> int:
        return edge_mask(self.n, self.edges)

    def is_connected(self) -> bool:
        return _mask_connected(self.n, self.mask)


def enum_graphs(n: int, klass: str = "connected") -> Iterator[LabeledGraph]:
    """Yield each labeled graph on [n] of the requested class exactly once.

    Deterministic: increasing edge-bitmask order.  ``two_connected`` means
    connected with no cut vertex; the single edge on two vertices is excluded,
    so the triangle is the smallest member.
    """
    if klass not in GRAPH_CLASSES:
        raise ValueError(f"unknown graph class {klass!r}; want one of {GRAPH_CLASSES}")
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > MAX_GRAPH_N:
        raise CapacityError(f"graph enumeration capped at n={MAX_GRAPH_N}, got {n}")
    npairs = n * (n - 1) // 2
    for mask in range(1 << npairs):
        if klass == "connected" and not _mask_connected(n, mask):
            continue
        if klass == "two_connected" and not _mask_two_connected(n, mask):
            continue
        yield LabeledGraph.from_mask(n, mask)


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


class RootedTree:
    """A labeled spanning tree on [n], held as its edge mask, rooted at ``root``.

    ``parent`` maps every non-root vertex to its parent; ``gen`` maps every
    vertex to its depth (tree distance from the root; gen(root) = 0).  For a
    given root the mask and the parent map determine each other, so equality
    and hashing use (n, root, mask) and trees behave as set elements.
    """

    __slots__ = ("n", "root", "mask", "_parent", "_gen")

    def __init__(self, n: int, parent: Mapping[int, int], root: int = 1):
        _check_root(n, root)
        if set(parent) != {v for v in range(1, n + 1) if v != root}:
            raise ValueError("parent map must cover exactly the non-root vertices")
        for v, p in parent.items():
            if not (1 <= p <= n):
                raise ValueError(f"parent {p} of vertex {v} outside [1..{n}]")
        # every non-root vertex has a parent, so the map is a tree exactly
        # when it has no cycle, and then the sweep over its edges returns it;
        # a vertex that is its own parent adds no edge and is never swept so
        parent = dict(parent)
        mask = edge_mask(n, ((v, p) for v, p in parent.items() if v != p))
        swept, gen = _mask_tree_maps(n, mask, root)
        if swept != parent:
            raise ValueError("parent map contains a cycle")
        self.n, self.root, self.mask = n, root, mask
        self._parent, self._gen = parent, gen

    @classmethod
    def from_mask(cls, n: int, mask: int, root: int = 1) -> "RootedTree":
        """The tree with edge mask ``mask``, taken as a spanning tree of [n] unchecked.

        ``parent`` and ``gen`` are derived on first access.
        """
        tree = cls.__new__(cls)
        tree.n, tree.root, tree.mask = n, root, mask
        tree._parent = tree._gen = None
        return tree

    @classmethod
    def from_edges(cls, n: int, edges, root: int = 1) -> "RootedTree":
        g = LabeledGraph.from_edges(n, edges)
        if len(g.edges) != n - 1:
            raise ValueError(f"a tree on [{n}] needs {n - 1} edges, got {len(g.edges)}")
        if not g.is_connected():
            raise ValueError("edge set is not a connected tree")
        _check_root(n, root)
        return cls.from_mask(n, g.mask, root)

    def _maps(self) -> None:
        if self._parent is None:
            self._parent, self._gen = _mask_tree_maps(self.n, self.mask, self.root)

    @property
    def parent(self) -> Dict[int, int]:
        self._maps()
        return self._parent

    @property
    def gen(self) -> Dict[int, int]:
        self._maps()
        return self._gen

    @property
    def edges(self) -> FrozenSet[Edge]:
        return frozenset(mask_edges(self.n, self.mask))

    def to_graph(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.edges)

    def __eq__(self, other):
        return (isinstance(other, RootedTree) and self.mask == other.mask
                and self.root == other.root and self.n == other.n)

    def __hash__(self):
        return hash((self.n, self.root, self.mask))

    def __repr__(self):
        return f"RootedTree(n={self.n}, root={self.root}, parent={self.parent})"


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
    """Edge masks of all n^(n-2) labeled trees on [n], in sequence order.

    The array form of ``_decode_tree_sequence``, run on every sequence of
    [n]^(n-2) at once in lexicographic order: each step joins the smallest
    vertex of degree one to the next entry, and the last edge joins the two
    vertices left with degree one.
    """
    if n < 2:
        raise ValueError("tree masks need at least two vertices")
    if n > MAX_TREE_N:
        raise CapacityError(f"tree enumeration capped at n={MAX_TREE_N}, got {n}")
    bit = np.zeros((n + 1, n + 1), dtype=np.int64)
    for k, (i, j) in enumerate(vertex_pairs(n)):
        bit[i, j] = bit[j, i] = 1 << k
    # row r is one plus the base-n digits of r, most significant first
    seq = np.arange(n ** (n - 2))[:, None] // n ** np.arange(n - 3, -1, -1) % n + 1
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
    the smallest element.
    """
    col = _pair_index(n)
    full = (1 << n) - 1
    # in increasing order of S: boltz[S], the product of (1 + f_ij) over the
    # pairs inside S, then its connected part conn[S], less the splits in
    # which U | low, U a proper subset of the rest of S in decreasing order,
    # is the component of the lowest vertex
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
        low = s & -s
        u = rest = s ^ low
        while u:
            u = (u - 1) & rest
            total = total - conn[u | low] * boltz[rest ^ u]
        conn[s] = total
    return conn[full]


def _check_mask_range(n: int, lo: int, hi: int) -> None:
    """ValueError unless edge masks from ``lo`` to ``hi`` lie in [0, 2^(n(n-1)/2))."""
    npairs = n * (n - 1) // 2
    if lo < 0 or hi >> npairs:
        raise ValueError(f"edge mask {lo if lo < 0 else hi} outside [0, 2^{npairs}) on [{n}]")


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
    if n > 11:
        raise CapacityError(f"int64 edge masks hold at most 11 vertices, got {n}")
    if n < 1:
        raise ValueError("vertex count must be positive")
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size:
        _check_mask_range(n, int(masks.min()), int(masks.max()))
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


@lru_cache(maxsize=None)
def ursell_table(n: int) -> np.ndarray:
    """``ursell_values`` of every graph on [n] (n <= 6), indexed by edge mask.

    Built once per n and kept, read-only.
    """
    if n > 6:
        raise CapacityError("ursell tables are kept only up to n=6")
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

#: index of the lowest vertex in each vertex bitset on up to 11 vertices, -1
#: for the empty set
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


def _parent_edges(n: int) -> np.ndarray:
    """Parent-edge table of the array kernel on [n].

    ``parent_edge[w, s]`` is the edge bit of {p, w + 1}, p the lowest vertex
    of the bitset s, and 0 for the empty set.
    """
    edge = np.zeros((n, n + 1), dtype=np.int64)  # the last column: no parent
    for k, (i, j) in enumerate(vertex_pairs(n)):
        edge[i - 1, j - 1] = edge[j - 1, i - 1] = 1 << k
    return edge[:, _LOWEST_VERTEX[:1 << n]]


def _tree_images(adj: np.ndarray, root: int,
                 parent_edge: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Connected flags and tree-image masks of the graphs with neighbor rows ``adj``.

    ``adj[v]`` holds the neighbor bitset of vertex v + 1 in each graph on
    [n], n = len(adj), in ``_bitset_dtype(n)``; ``parent_edge`` is
    ``_parent_edges(n)``.  As the adjacency is symmetric, ``adj & layer`` is
    nonzero in the rows of the vertices next to the layer and holds their
    neighbors in it; kept for the vertices not yet reached, it is their
    parent candidates.
    """
    n = adj.shape[0]
    bit = (1 << np.arange(n, dtype=adj.dtype))[:, None]
    unseen = np.ones(adj.shape, dtype=bool)
    unseen[root - 1] = False
    layer = bit[root - 1]
    up = np.zeros_like(adj)  # each vertex's neighbors in the layer it was reached from
    for _ in range(n - 1):
        reached = adj & layer
        reached *= unseen
        if not reached.any():
            break
        up |= reached
        new = reached != 0
        unseen ^= new
        layer = np.bitwise_or.reduce(bit * new, axis=0)
    tree = np.zeros(adj.shape[1], dtype=np.int64)
    for w in range(n):
        tree |= np.take(parent_edge[w], up[w])
    return ~unseen.any(axis=0), tree


def mask_tree_images(n: int, masks, root: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Connected flag and rooted tree-image mask of each edge mask on [n].

    The array form of ``_mask_connected`` and ``_mask_tree_image``.  Each
    block of masks gets per-vertex neighbor bitsets, one lookup per 12
    edges of the masks in a table of ``_deposit_rows``; a breadth-first
    sweep (``_tree_images``) then reaches one generation at a time, and
    every vertex keeps its neighbors in the layer it was reached from.  Its
    parent is the lowest of them, read from a table.  For a disconnected
    mask the tree spans only the root's component.  ``masks`` is a 1-D
    array processed MASK_BLOCK at a time, so scratch memory does not grow
    with its length.
    """
    if n > 11:
        raise CapacityError(f"int64 edge masks hold at most 11 vertices, got {n}")
    _check_root(n, root)
    masks = np.asarray(masks, dtype=np.int64)
    npairs = n * (n - 1) // 2
    tables = [_deposit_rows(n, range(lo, min(lo + _BLOCK_BITS, npairs)))
              for lo in range(0, npairs, _BLOCK_BITS)]
    parent_edge = _parent_edges(n)
    connected = np.empty(masks.shape, dtype=bool)
    trees = np.empty(masks.shape, dtype=np.int64)
    for start in range(0, masks.shape[0], MASK_BLOCK):
        stop = start + MASK_BLOCK
        block = masks[start:stop]
        adj = np.zeros((n, block.size), dtype=_bitset_dtype(n))
        for c, table in enumerate(tables):
            adj |= np.take(table, (block >> _BLOCK_BITS * c) & (table.shape[1] - 1), axis=1)
        connected[start:stop], trees[start:stop] = _tree_images(adj, root, parent_edge)
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
    if n > TABLE_MAX_N:
        raise CapacityError(f"full mask tables are kept only up to n={TABLE_MAX_N}, got {n}")
    return _mask_tree_table(n, root)  # positional: one cache entry per (n, root)


def connected_mask_flags(n: int) -> np.ndarray:
    """Boolean array over all 2^(n(n-1)/2) edge masks: connected and spanning."""
    return mask_tree_table(n)[0]


def penrose_map(g: LabeledGraph, root: int = 1) -> RootedTree:
    """Deterministic rooted spanning tree of a connected graph.

    The tree keeps, for every vertex, the edge to its smallest-index neighbor
    in the previous generation (graph distance from ``root``).  Applied to a
    tree it returns the tree itself.
    """
    _check_root(g.n, root)
    if not g.is_connected():
        raise DomainError("tree image is defined for connected graphs only")
    return RootedTree.from_mask(g.n, _mask_tree_image(g.n, g.mask, root), root)


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
    any edge mask t that reaches every vertex from the root.  Each block of
    MASK_BLOCK masks gets per-vertex neighbor bitsets, then one
    breadth-first sweep reaches one generation at a time, and every vertex
    keeps its neighbors in the layer it was reached from: its parent is the
    lowest of them, and the sweep's step its generation.  The slack rule is
    then applied to all pairs at once.  A mask outside [0, 2^(n(n-1)/2)) or
    one that does not reach every vertex from the root raises ValueError.
    """
    if n > 11:
        raise CapacityError(f"int64 edge masks hold at most 11 vertices, got {n}")
    _check_root(n, root)
    trees = np.asarray(trees, dtype=np.int64)
    if trees.size:
        _check_mask_range(n, int(trees.min()), int(trees.max()))
    npairs = n * (n - 1) // 2
    i, j = (np.array(vertex_pairs(n), dtype=np.int64).reshape(npairs, 2) - 1).T
    k = np.arange(npairs, dtype=np.int64)[:, None]
    # the neighbor bitset of vertex v is the sum, over the edges at v, of
    # the other end's bit: one product with the edge indicator rows
    ends = np.zeros((n, npairs), dtype=np.int64)
    ends[i, k[:, 0]] = 1 << j
    ends[j, k[:, 0]] = 1 << i
    bit = (1 << np.arange(n, dtype=np.int64))[:, None]
    out = np.empty(trees.shape, dtype=np.int64)
    for start in range(0, trees.shape[0], MASK_BLOCK):
        block = trees[start:start + MASK_BLOCK]
        adj = ends @ ((block >> k) & 1)
        gen = np.zeros(adj.shape, dtype=np.int8)
        up = np.zeros_like(adj)
        unseen = np.ones(adj.shape, dtype=bool)
        unseen[root - 1] = False
        layer = bit[root - 1]
        for depth in range(1, n):
            reached = adj & layer
            reached *= unseen
            new = reached != 0
            if not new.any():
                break
            up |= reached
            gen[new] = depth
            unseen ^= new
            layer = np.bitwise_or.reduce(bit * new, axis=0)
        if unseen.any():
            bad = int(block[unseen.any(axis=0).argmax()])
            raise ValueError(f"edge mask {bad} does not reach every vertex of [{n}] from {root}")
        parent = _LOWEST_VERTEX[up]
        dg = gen[i] - gen[j]
        # a tree edge joins a child to its parent, so the strict tests drop it
        slack = ((dg == 0) | ((dg == 1) & (j[:, None] > parent[i]))
                 | ((dg == -1) & (i[:, None] > parent[j])))
        out[start:start + block.size] = np.bitwise_or.reduce(slack << k, axis=0)
    return out


def _slack_free_tree_masks(n: int, gmask: int, root: int = 1) -> list:
    """Edge masks of the spanning trees of host ``gmask`` on [n] with no slack edge in it.

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


def penrose_trees(g: LabeledGraph, root: int = 1) -> FrozenSet[RootedTree]:
    """Spanning trees of ``g`` whose preimage under penrose_map is a singleton.

    The trees of ``_slack_free_tree_masks``, as ``RootedTree``s: a tree is
    its own sole preimage inside ``g`` exactly when ``g`` holds none of its
    slack edges.  Their count equals the size of the Ursell value of ``g``
    (``ursell_values``).  The growth reaches every vertex exactly when ``g``
    is connected, so no tree means a disconnected graph (DomainError).
    """
    n = g.n
    trees = _slack_free_tree_masks(n, g.mask, root)
    if not trees:
        raise DomainError("Penrose trees are defined for connected graphs only")
    return frozenset(RootedTree.from_mask(n, t, root) for t in trees)


def penrose_trees_fast(g: LabeledGraph, root: int = 1) -> FrozenSet[RootedTree]:
    """``penrose_trees``, kept under the name the bench harness times."""
    return penrose_trees(g, root)
