"""Labeled-graph and rooted-tree combinatorics.

Vertices are always 1..n.  Edges are unordered pairs (i, j) with i < j.  All
enumerations are deterministic: edge sets are indexed by bitmasks over the
lexicographic pair order (1,2), (1,3), ..., (n-1,n), and streams are emitted
in increasing mask order; trees are emitted in lexicographic order of their
generating sequence.

The module provides:
  * enumeration of all / connected / two-connected labeled graphs,
  * rooted labeled trees with generation (depth) numbers,
  * the alternating connected-subgraph sum (Ursell value) of a graph,
  * the deterministic rooted-tree image of a connected spanning subgraph
    (generations from the root, parent = smallest-index neighbor one
    generation up) and the trees whose preimage under that map is a
    singleton ("Penrose trees"),
  * ``mask_tree_images``, the array form of the connectivity test and the
    tree image over int64 edge masks, processed in fixed-size blocks; the
    scalar ``_mask_connected`` / ``_mask_tree_image`` stay as its oracle,
  * ``submask_tree_classes``, the one brute-force engine over the submasks
    of a host graph, behind ``penrose_trees``, ``polymer.p_exact`` and the
    random identity check; the slack-edge ``penrose_trees_fast`` and the
    scalar ``ursell_value`` stay as its independent oracles.
"""

from __future__ import annotations

import itertools
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
def _pair_index(n: int) -> Dict[Edge, int]:
    return {e: k for k, e in enumerate(vertex_pairs(n))}


def edge_mask(n: int, edges) -> int:
    idx = _pair_index(n)
    mask = 0
    for e in edges:
        i, j = e
        if i > j:
            i, j = j, i
        mask |= 1 << idx[(i, j)]
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


def _mask_connected(n: int, mask: int) -> bool:
    """True when the graph covers all of [n] in one component (n=1: yes)."""
    if n == 1:
        return True
    adj = _mask_adjacency(n, mask)
    full = (1 << n) - 1
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length()]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def _mask_two_connected(n: int, mask: int) -> bool:
    """Connected with no cut vertex; the 2-vertex single edge is excluded."""
    if n < 3:
        return False
    if not _mask_connected(n, mask):
        return False
    pairs = vertex_pairs(n)
    npairs = len(pairs)
    for v in range(1, n + 1):
        sub = mask
        for k in range(npairs):
            if mask >> k & 1 and v in pairs[k]:
                sub &= ~(1 << k)
        # connectivity of [n] \ {v}
        adj = _mask_adjacency(n, sub)
        rest = [u for u in range(1, n + 1) if u != v]
        seen = 1 << (rest[0] - 1)
        frontier = seen
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length()]
                f ^= low
            frontier = nxt & ~seen
            seen |= frontier
        target = ((1 << n) - 1) & ~(1 << (v - 1))
        if seen != target:
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


def count_graphs(n: int, klass: str = "connected") -> int:
    return sum(1 for _ in enum_graphs(n, klass))


class RootedTree:
    """A labeled tree on [n] rooted at ``root`` with generation numbers.

    ``parent`` maps every non-root vertex to its parent; ``gen`` maps every
    vertex to its depth (tree distance from the root; gen(root) = 0).
    Equality and hashing use (n, root, parent), so trees behave as set
    elements.
    """

    __slots__ = ("n", "root", "parent", "gen", "_key")

    def __init__(self, n: int, parent: Mapping[int, int], root: int = 1):
        if not (1 <= root <= n):
            raise ValueError(f"root {root} outside [1..{n}]")
        if set(parent) != {v for v in range(1, n + 1) if v != root}:
            raise ValueError("parent map must cover exactly the non-root vertices")
        gen = {root: 0}
        for v in parent:
            chain = []
            u = v
            while u not in gen:
                chain.append(u)
                u = parent[u]
                if len(chain) > n:
                    raise ValueError("parent map contains a cycle")
            base = gen[u]
            for off, w in enumerate(reversed(chain), start=1):
                gen[w] = base + off
        self.n = n
        self.root = root
        self.parent = dict(parent)
        self.gen = gen
        self._key = (n, root, tuple(sorted(self.parent.items())))

    @classmethod
    def from_edges(cls, n: int, edges, root: int = 1) -> "RootedTree":
        g = LabeledGraph.from_edges(n, edges)
        if len(g.edges) != n - 1:
            raise ValueError(f"a tree on [{n}] needs {n - 1} edges, got {len(g.edges)}")
        if not g.is_connected():
            raise ValueError("edge set is not a connected tree")
        return penrose_map(g, root)  # on a tree the image is the tree itself

    @property
    def edges(self) -> FrozenSet[Edge]:
        return frozenset((min(v, p), max(v, p)) for v, p in self.parent.items())

    def to_graph(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.edges)

    def degree(self, v: int) -> int:
        d = sum(1 for p in self.parent.values() if p == v)
        if v != self.root:
            d += 1
        return d

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

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


def enum_trees(n: int) -> Iterator[RootedTree]:
    """Yield all n^(n-2) labeled trees on [n], rooted at vertex 1.

    Trees are generated from all sequences in [n]^(n-2) (bijective encoding),
    in lexicographic sequence order.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > MAX_TREE_N:
        raise CapacityError(f"tree enumeration capped at n={MAX_TREE_N}, got {n}")
    if n == 1:
        yield RootedTree(1, {}, root=1)
        return
    if n == 2:
        yield RootedTree(2, {2: 1}, root=1)
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        edges = _decode_tree_sequence(n, seq)
        yield _tree_from_edge_list(n, edges, 1)


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


def _tree_from_edge_list(n: int, edges, root: int) -> RootedTree:
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {}
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                stack.append(w)
    return RootedTree(n, parent, root)


# ---------------------------------------------------------------------------
# Ursell value: alternating sum over connected spanning subgraphs
# ---------------------------------------------------------------------------

def ursell_value(g: LabeledGraph) -> int:
    """Sum of (-1)^|edges| over connected spanning subgraphs of ``g``.

    Returns 1 for the single-vertex graph and 0 when ``g`` is disconnected.
    The result is an exact integer of sign (-1)^(n-1) for connected input.
    """
    n = g.n
    if n == 1:
        return 1
    mask = g.mask
    if not _mask_connected(n, mask):
        return 0
    total = 0
    sub = mask
    while True:
        if _mask_connected(n, sub):
            total += -1 if bin(sub).count("1") & 1 else 1
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return total


@lru_cache(maxsize=None)
def connected_mask_flags(n: int) -> np.ndarray:
    """Boolean array over all 2^(n(n-1)/2) edge masks: connected and spanning."""
    if n > 6:
        raise CapacityError("full mask tables are kept only up to n=6")
    npairs = n * (n - 1) // 2
    return mask_tree_images(n, np.arange(1 << npairs, dtype=np.int64))[0]


@lru_cache(maxsize=None)
def ursell_table(n: int) -> np.ndarray:
    """ursell_value for every graph on [n], indexed by edge mask.

    Built with one subset-sum (zeta) transform over the signed indicator of
    connected spanning masks, so tab[mask] = sum over connected spanning
    submasks g of mask of (-1)^|g|.
    """
    if n > 6:
        raise CapacityError("ursell tables are kept only up to n=6")
    npairs = n * (n - 1) // 2
    flags = connected_mask_flags(n)
    idx = np.arange(1 << npairs, dtype=np.int64)
    tab = np.where(flags, 1 - 2 * bit_parity(idx), 0).astype(np.int64)
    for k in range(npairs):
        bit = 1 << k
        has = (idx & bit) != 0
        tab[has] += tab[idx[has] ^ bit]
    return tab


# ---------------------------------------------------------------------------
# Rooted-tree image of a connected spanning subgraph, and its singletons
# ---------------------------------------------------------------------------

def _mask_tree_image(n: int, gmask: int, root: int) -> int:
    """Edge mask of the rooted-tree image of connected spanning mask ``gmask``.

    Generations are graph distances from the root; the parent of a vertex is
    its smallest-index neighbor one generation closer to the root.
    """
    adj = _mask_adjacency(n, gmask)
    dist = [-1] * (n + 1)
    dist[root] = 0
    frontier = [root]
    d = 0
    while frontier:
        nxt = []
        for v in frontier:
            nb = adj[v]
            while nb:
                low = nb & -nb
                w = low.bit_length()
                nb ^= low
                if dist[w] < 0:
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
        d += 1
    idx = _pair_index(n)
    tmask = 0
    for v in range(1, n + 1):
        if v == root:
            continue
        nb = adj[v]
        best = 0
        while nb:
            low = nb & -nb
            w = low.bit_length()
            nb ^= low
            if dist[w] == dist[v] - 1:
                best = w
                break  # neighbor bits iterate in increasing index order
        i, j = (best, v) if best < v else (v, best)
        tmask |= 1 << idx[(i, j)]
    return tmask


#: masks per step of the array kernel; bounds its scratch memory
MASK_BLOCK = 4096


def bit_parity(x: np.ndarray) -> np.ndarray:
    """Parity (0 or 1) of the number of set bits of each nonnegative int64."""
    x = np.array(x, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def mask_tree_images(n: int, masks, root: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Connected flag and rooted tree-image mask of each edge mask on [n].

    The array form of ``_mask_connected`` and ``_mask_tree_image``.  Each
    block of masks gets per-vertex neighbor bitsets; a breadth-first sweep
    then reaches one generation at a time, and every vertex keeps the layer
    it was reached from.  Its parent is the lowest set bit of its neighbors
    in that layer.  For a disconnected mask the tree spans only the root's
    component.  ``masks`` is a 1-D array processed MASK_BLOCK at a time, so
    scratch memory does not grow with its length.
    """
    if n > 11:
        raise CapacityError(f"int64 edge masks hold at most 11 vertices, got {n}")
    if not (1 <= root <= n):
        raise ValueError(f"root {root} outside [1..{n}]")
    masks = np.asarray(masks, dtype=np.int64)
    pairs = vertex_pairs(n)
    # parent_edge[w-1, 1 << (p-1)] is the edge bit of {p, w}; column 0 holds 0
    parent_edge = np.zeros((n, 1 << n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        parent_edge[i - 1, 1 << (j - 1)] = 1 << k
        parent_edge[j - 1, 1 << (i - 1)] = 1 << k
    # vertex bitsets fit in 16 bits, which keeps each block's scratch small
    vertex_bit = np.arange(n, dtype=np.uint16)[:, None]
    full = (1 << n) - 1
    connected = np.empty(masks.shape, dtype=bool)
    trees = np.empty(masks.shape, dtype=np.int64)
    for start in range(0, masks.shape[0], MASK_BLOCK):
        block = masks[start:start + MASK_BLOCK]
        adj = np.zeros((n,) + block.shape, dtype=np.uint16)
        for k, (i, j) in enumerate(pairs):
            e = ((block >> k) & 1).astype(np.uint16)
            adj[i - 1] |= e << (j - 1)
            adj[j - 1] |= e << (i - 1)
        seen = np.full(block.shape, 1 << (root - 1), dtype=np.uint16)
        layer = seen
        up_layer = np.zeros_like(adj)  # the layer each vertex was reached from
        for _ in range(n - 1):
            reach = np.bitwise_or.reduce(adj & -((layer >> vertex_bit) & 1), axis=0)
            new = reach & ~seen
            if not new.any():
                break
            up_layer |= layer & -((new >> vertex_bit) & 1)
            seen = seen | new
            layer = new
        up = adj & up_layer
        low = up & -up
        tree = np.zeros(block.shape, dtype=np.int64)
        for w in range(n):
            tree |= parent_edge[w, low[w]]
        connected[start:start + MASK_BLOCK] = seen == full
        trees[start:start + MASK_BLOCK] = tree
    return connected, trees


def submask_tree_classes(n: int, gmask: int, root: int = 1) -> Tuple[int, np.ndarray, np.ndarray]:
    """Brute force over every submask of the host graph ``gmask`` on [n].

    Returns the alternating sum of (-1)^|edges| over the connected spanning
    submasks (the Ursell value of the host), the distinct rooted tree-image
    masks of those submasks, and the preimage count of each image.  The
    submasks are generated and mapped by ``mask_tree_images`` MASK_BLOCK at
    a time: the bits of a block index are deposited onto the host's edge
    bits, so the index has the parity of its submask, and memory stays flat
    as hosts grow.  A disconnected host has no connected spanning submask.
    """
    bits = [k for k in range(n * (n - 1) // 2) if gmask >> k & 1]
    trees = np.zeros(0, dtype=np.int64)
    preimages = np.zeros(0, dtype=np.int64)
    total = 0
    for start in range(0, 1 << len(bits), MASK_BLOCK):
        idx = np.arange(start, min(start + MASK_BLOCK, 1 << len(bits)), dtype=np.int64)
        sub = np.zeros_like(idx)
        for j, k in enumerate(bits):
            sub |= ((idx >> j) & 1) << k
        conn, image = mask_tree_images(n, sub, root)
        total += int(np.sum(1 - 2 * bit_parity(idx[conn])))
        trees, cls = np.unique(np.concatenate([trees, image[conn]]), return_inverse=True)
        weight = np.concatenate([preimages, np.ones(int(conn.sum()), dtype=np.int64)])
        preimages = np.bincount(cls, weights=weight, minlength=len(trees)).astype(np.int64)
    return total, trees, preimages


def penrose_map(g: LabeledGraph, root: int = 1) -> RootedTree:
    """Deterministic rooted spanning tree of a connected graph.

    The tree keeps, for every vertex, the edge to its smallest-index neighbor
    in the previous generation (graph distance from ``root``).  Applied to a
    tree it returns the tree itself.
    """
    if not g.is_connected():
        raise DomainError("tree image is defined for connected graphs only")
    tmask = _mask_tree_image(g.n, g.mask, root)
    return _tree_from_edge_list(g.n, mask_edges(g.n, tmask), root)


def penrose_trees(g: LabeledGraph, root: int = 1) -> FrozenSet[RootedTree]:
    """Spanning trees of ``g`` whose preimage under penrose_map is a singleton.

    Defined by brute force: ``submask_tree_classes`` maps every connected
    spanning subgraph of ``g``, and a tree qualifies exactly when it is its
    own sole preimage.  The count of these trees equals |ursell_value(g)|.
    """
    if not g.is_connected():
        raise DomainError("Penrose trees are defined for connected graphs only")
    n = g.n
    _, trees, preimages = submask_tree_classes(n, g.mask, root)
    return frozenset(
        _tree_from_edge_list(n, mask_edges(n, t), root) for t in trees[preimages == 1].tolist()
    )


def penrose_slack_edges(tree: RootedTree) -> FrozenSet[Edge]:
    """Non-tree edges whose addition leaves the tree image unchanged.

    These are the edges {i, j} between vertices whose generations differ by
    at most one, subject to not undercutting the smallest-index parent rule:
    a cross-generation edge to a vertex one generation up is allowed only to
    an index larger than the current parent.  A tree is a singleton preimage
    inside a host graph exactly when the host contains none of these edges.
    """
    n = tree.n
    gen = tree.gen
    parent = tree.parent
    tree_edges = tree.edges
    slack = set()
    for i, j in vertex_pairs(n):
        if (i, j) in tree_edges:
            continue
        dg = gen[i] - gen[j]
        if abs(dg) > 1:
            continue
        if dg == 0:
            slack.add((i, j))
            continue
        child, up = (i, j) if dg == 1 else (j, i)
        if up > parent[child]:
            slack.add((i, j))
    return frozenset(slack)


def penrose_trees_fast(g: LabeledGraph, root: int = 1) -> FrozenSet[RootedTree]:
    """Same set as penrose_trees via the local slack-edge characterization.

    Iterates spanning trees of ``g`` and keeps those with no slack edge inside
    ``g``.  Must agree with the brute force; the equivalence is property-tested
    exhaustively for small n.
    """
    n = g.n
    if not g.is_connected():
        raise DomainError("Penrose trees are defined for connected graphs only")
    if n == 1:
        return frozenset([RootedTree(1, {}, root=1)])
    edges = sorted(g.edges)
    gmask = g.mask
    idx = _pair_index(n)
    out = []
    for combo in itertools.combinations(edges, n - 1):
        tmask = 0
        for e in combo:
            tmask |= 1 << idx[e]
        if not _mask_connected(n, tmask):
            continue
        tree = _tree_from_edge_list(n, combo, root)
        slack_mask = edge_mask(n, penrose_slack_edges(tree))
        if slack_mask & gmask == 0:
            out.append(tree)
    return frozenset(out)
