import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterkit import graphs, polymer, verify
from clusterkit.errors import CapacityError, ClusterKitError, ConfigError, DomainError
from clusterkit.graphs import (
    _BLOCK_BITS,
    MASK_BLOCK,
    LabeledGraph,
    RootedTree,
    _decode_tree_sequence,
    _deposit_rows,
    _grown_tree_masks,
    _host_tree_index,
    _mask_adjacency,
    _mask_connected,
    _mask_tree_image,
    _mask_tree_maps,
    _pair_bits,
    _prufer_masks,
    _slack_free_tree_masks,
    _slack_mask,
    _sweep,
    _tree_slack_table,
    connected_mask_flags,
    edge_mask,
    enum_graphs,
    mask_edges,
    mask_tree_images,
    mask_tree_table,
    penrose_trees,
    penrose_trees_fast,
    prufer_tree_masks,
    ursell_table,
    ursell_values,
    vertex_pairs,
)


def complete(n):
    """Edge mask of the complete graph on [n]."""
    return (1 << (n * (n - 1) // 2)) - 1


def as_graph(n, mask):
    """The graph of edge mask ``mask`` on [n], as the hosts of ``penrose_trees`` are given."""
    return LabeledGraph.from_edges(n, mask_edges(n, mask))


def ursell_value(n, mask) -> int:
    """Sum of (-1)^|edges| over connected spanning subgraphs of graph ``mask`` on [n].

    Returns 1 for the single-vertex graph and 0 when the graph is disconnected.
    The result is an exact integer of sign (-1)^(n-1) for connected input.
    """
    if n == 1:
        return 1
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


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,klass,count", [
    (2, "connected", 1),
    (3, "connected", 4),
    (4, "connected", 38),
    (5, "connected", 728),
    (3, "two_connected", 1),
    (4, "two_connected", 10),
    (5, "two_connected", 238),
    (2, "two_connected", 0),
    (3, "all", 8),
    (4, "all", 64),
])
def test_graph_counts(n, klass, count):
    assert sum(1 for _ in enum_graphs(n, klass)) == count


def test_enum_graphs_unique_and_ordered():
    masks = list(enum_graphs(4, "connected"))
    assert len(set(masks)) == len(masks)
    assert masks == sorted(masks)


def test_enum_graphs_capacity():
    with pytest.raises(CapacityError):
        next(enum_graphs(9, "all"))
    with pytest.raises(ValueError):
        next(enum_graphs(3, "planar"))


def enum_trees(n):
    """Edge masks of all n^(n-2) labeled trees on [n], in Pruefer sequence
    order: the masks of ``prufer_tree_masks``, and the empty tree on [1]."""
    return [0] if n == 1 else prufer_tree_masks(n).tolist()


@pytest.mark.parametrize("n", range(2, 8))
def test_cayley_count(n):
    assert len(set(enum_trees(n))) == n ** (n - 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_prufer_tree_masks_match_scalar_decode(n):
    want = [edge_mask(n, _decode_tree_sequence(n, seq))
            for seq in itertools.product(range(1, n + 1), repeat=n - 2)]
    assert prufer_tree_masks(n).tolist() == want


def test_prufer_tree_masks_caps():
    with pytest.raises(ValueError):
        prufer_tree_masks(1)
    with pytest.raises(CapacityError):
        prufer_tree_masks(10)


@pytest.mark.parametrize("n", range(2, 12))
def test_prufer_masks_match_scalar_decode_on_random_sequences(n):
    seqs = np.random.default_rng(n).integers(1, n + 1, size=(10_000, n - 2))
    want = [edge_mask(n, _decode_tree_sequence(n, q)) for q in seqs.tolist()]
    assert _prufer_masks(n, seqs).tolist() == want


def test_prufer_masks_refuse_what_is_not_a_sequence_array():
    with pytest.raises(CapacityError, match="at most 11 vertices, got 12"):
        _prufer_masks(12, np.ones((1, 10), dtype=np.int64))
    for n, seqs in ((4, [[1, 5]]), (4, [[0, 2]]), (4, [[1, 2, 3]]), (4, [1, 2]),
                    (4, [[1.0, 2.0]]), (1, np.ones((1, 0), dtype=np.int64))):
        with pytest.raises(ValueError, match="integer array over"):
            _prufer_masks(n, seqs)
    assert _prufer_masks(2, np.ones((3, 0), dtype=np.int64)).tolist() == [1, 1, 1]
    assert _prufer_masks(5, np.ones((0, 3), dtype=np.int64)).tolist() == []


def test_enum_trees_small():
    (t,) = enum_trees(1)
    assert _mask_tree_maps(1, t, 1) == ({}, {1: 0})
    trees2 = enum_trees(2)
    assert len(trees2) == 1 and _mask_tree_maps(2, trees2[0], 1)[0] == {2: 1}
    trees3 = enum_trees(3)
    assert len(trees3) == 3
    for t in trees3:
        parent, gen = _mask_tree_maps(3, t, 1)
        assert gen[1] == 0
        assert all(gen[v] == gen[parent[v]] + 1 for v in (2, 3))
    fork = edge_mask(4, [(1, 2), (2, 3), (2, 4)])
    assert _mask_tree_maps(4, fork, 1)[1] == {1: 0, 2: 1, 3: 2, 4: 2}


@pytest.mark.parametrize("n", range(1, 7))
def test_scalar_tree_maps_rebuild_every_tree(n):
    for t in enum_trees(n):
        for root in range(1, n + 1):
            # the swept parent map is the tree: its edges rebuild the mask
            parent, gen = _mask_tree_maps(n, t, root)
            assert edge_mask(n, parent.items()) == t
            # the swept generations against a walk up the parent chain
            def depth(v):
                return 0 if v == root else 1 + depth(parent[v])
            assert gen == {v: depth(v) for v in range(1, n + 1)}


def test_rooted_tree_key_is_root_and_mask():
    path = edge_mask(3, [(1, 2), (2, 3)])
    assert RootedTree(3, 1, path) != RootedTree(3, 3, path)
    assert RootedTree(3, 2, path) != RootedTree(3, 2, edge_mask(3, [(1, 2), (1, 3)]))
    first, second = RootedTree(3, 2, path), RootedTree(3, 2, path)
    assert first == second and hash(first) == hash(second) and len({first, second}) == 1
    assert first.edges == frozenset({(1, 2), (2, 3)})
    assert repr(RootedTree(3, 2, path)) == "RootedTree(n=3, root=2, mask=5)"
    # penrose_trees builds its trees without RootedTree's __new__: the same objects
    for n, host, root in ((3, path, 2), (5, complete(5), 4), (7, complete(7), 3)):
        for t in penrose_trees(as_graph(n, host), root):
            built = RootedTree(n, root, t.mask)
            assert type(t) is RootedTree and t == built and hash(t) == hash(built)
            assert repr(t) == repr(built) and t.edges == built.edges


def test_graph_validation():
    with pytest.raises(ValueError, match="is not an edge on"):
        LabeledGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="is not an edge on"):
        LabeledGraph.from_edges(3, [(2, 4)])
    with pytest.raises(ValueError, match=r"^vertex count n must be an integer >= 1, got 0$"):
        LabeledGraph.from_edges(0, [])
    g = LabeledGraph.from_edges(3, [(2, 1), (3, 2)])
    assert g.edges == frozenset({(1, 2), (2, 3)})


# ---------------------------------------------------------------------------
# ursell values
# ---------------------------------------------------------------------------

def test_ursell_examples():
    assert ursell_value(2, edge_mask(2, [(1, 2)])) == -1
    assert ursell_value(3, edge_mask(3, [(1, 2), (2, 3)])) == 1
    assert ursell_value(3, complete(3)) == 2
    assert ursell_value(4, complete(4)) == -6
    assert ursell_value(3, edge_mask(3, [(1, 2)])) == 0  # disconnected
    assert ursell_value(1, 0) == 1


def test_ursell_table_matches_direct():
    # the subset log, and the table built from it, against the scalar oracle
    # on every mask, disconnected ones included: a flipped sign or a dropped
    # subset in the subset recursion moves some value
    for n in range(1, 6):
        want = [ursell_value(n, mask) for mask in enum_graphs(n, "all")]
        assert ursell_table(n).tolist() == want
        values = ursell_values(n, np.arange(len(want)))
        assert values.dtype == np.int64 and values.tolist() == want


def test_ursell_values_match_the_table_on_six_vertices():
    # the cached values against the mask kernel's connected flags, an
    # independent evaluator: an Ursell value is nonzero exactly on the
    # connected masks, in every one of the eight blocks of 2^15 masks
    table = ursell_table(6)
    assert np.array_equal(table != 0, connected_mask_flags(6))
    assert not table.flags.writeable


@pytest.mark.parametrize("n", range(1, 12))
def test_ursell_values_of_complete_graphs(n):
    values = ursell_values(n, [(1 << (n * (n - 1) // 2)) - 1, 0])
    assert values.dtype == np.int64
    assert values.tolist() == [(-1) ** (n - 1) * math.factorial(n - 1), int(n == 1)]


def test_ursell_values_refuse_bad_input():
    assert ursell_values(4, np.zeros(0, dtype=np.int64)).shape == (0,)
    for n, mask in ((3, 8), (3, -1), (7, 1 << 21)):
        with pytest.raises(ValueError, match=rf"edge mask {mask} outside \[0, 2\^"):
            ursell_values(n, [0, mask])
    with pytest.raises(ValueError, match="vertex count"):
        ursell_values(0, [0])
    with pytest.raises(CapacityError):
        ursell_values(12, [0])


# ---------------------------------------------------------------------------
# tree images
# ---------------------------------------------------------------------------

def _tree_image(n, gmask, root):
    """The scalar tree image of ``gmask``, checked against the array kernel's."""
    image = _mask_tree_image(n, gmask, root)
    assert mask_tree_images(n, [gmask], root)[1].tolist() == [image]
    return image


def test_penrose_map_on_triangle():
    assert mask_edges(3, _tree_image(3, complete(3), 1)) == ((1, 2), (1, 3))


def test_penrose_map_on_four_cycle():
    g = edge_mask(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    t = _tree_image(4, g, 1)
    assert mask_edges(4, t) == ((1, 2), (1, 4), (2, 3))
    assert _mask_tree_maps(4, t, 1)[1] == {1: 0, 2: 1, 4: 1, 3: 2}


def test_penrose_map_fixes_trees():
    rng = random.Random(4)
    for n in range(2, 8):
        for _ in range(20):
            tree = random_tree(rng, n)
            assert _tree_image(n, tree, 1) == tree


def random_tree(rng, n):
    """Edge mask of a random recursive tree on [n]: vertex v joins one of 1..v-1."""
    return edge_mask(n, [(rng.randrange(1, v), v) for v in range(2, n + 1)])


@pytest.mark.parametrize("root", (0, 5))
def test_penrose_map_names_a_bad_root(root):
    with pytest.raises(ValueError, match=f"root {root} outside"):
        mask_tree_images(4, [complete(4)], root=root)


def test_an_integral_root_is_the_int():
    # a bool root once ran as root 1, into trees that held root=True, and
    # 2.5 raised a bare IndexError; the surface refuses both by name
    g = LabeledGraph(4, complete(4))
    trees = penrose_trees(g, 2)
    for root in (2.0, np.int64(2)):
        assert penrose_trees(g, root) == trees
        assert {type(t.root) for t in penrose_trees(g, root)} == {int}
        masks = [t.mask for t in trees]
        assert (graphs.slack_masks(4, masks, root).tolist()
                == graphs.slack_masks(4, masks, 2).tolist())
    # one kept table per (n, int root): every spelling of root 3 reads it
    before = graphs._mask_tree_table.cache_info().currsize
    tables = [mask_tree_table(4, root) for root in (3, 3.0, np.int64(3))]
    assert all(t is tables[0] for t in tables)
    assert graphs._mask_tree_table.cache_info().currsize - before <= 1


def test_penrose_trees_examples():
    path = edge_mask(4, [(1, 2), (2, 3), (3, 4)])
    assert penrose_trees(as_graph(4, path)) == frozenset({RootedTree(4, 1, path)})
    assert len(penrose_trees(as_graph(3, complete(3)))) == 2
    assert len(penrose_trees(as_graph(4, complete(4)))) == 6
    with pytest.raises(DomainError):
        penrose_trees(LabeledGraph.from_edges(3, [(1, 2)]))


def test_slack_edges_structure():
    def slack_edges(n, t):
        return mask_edges(n, _slack_mask(n, *_mask_tree_maps(n, t, 1)))

    # star rooted at 1: any edge between the leaves is addable without
    # changing the image, so the slack set is exactly the leaf pairs
    star = edge_mask(4, [(1, 2), (1, 3), (1, 4)])
    assert slack_edges(4, star) == ((2, 3), (2, 4), (3, 4))
    # path 1-2-3: vertex 3 could only reattach to a smaller-index parent;
    # the edge (1,3) jumps a generation, so nothing is addable
    path = edge_mask(3, [(1, 2), (2, 3)])
    assert slack_edges(3, path) == ()


# ---------------------------------------------------------------------------
# the array kernel against the scalar pair
# ---------------------------------------------------------------------------

@st.composite
def masks_on(draw):
    n = draw(st.integers(1, 7))
    top = (1 << (n * (n - 1) // 2)) - 1
    root = draw(st.integers(1, n))
    masks = draw(st.lists(st.integers(0, top), min_size=1, max_size=40))
    return n, root, masks


@settings(max_examples=200, deadline=None)
@given(masks_on())
def test_mask_tree_images_match_scalar(case):
    n, root, masks = case
    connected, trees = mask_tree_images(n, np.array(masks, dtype=np.int64), root)
    for mask, flag, tree in zip(masks, connected.tolist(), trees.tolist()):
        assert flag == _mask_connected(n, mask)
        if flag:
            assert tree == _mask_tree_image(n, mask, root)


@pytest.mark.parametrize("n", range(2, 12))
def test_byte_table_kernel_matches_scalar(n):
    npairs = n * (n - 1) // 2
    rng = random.Random(n)
    # random masks, every single edge (each byte of the mask tables), and K_n
    masks = [rng.getrandbits(npairs) for _ in range(150)]
    masks += [1 << k for k in range(npairs)] + [(1 << npairs) - 1]
    for root in sorted({1, (n + 1) // 2, n}):
        connected, trees = mask_tree_images(n, np.array(masks, dtype=np.int64), root)
        for mask, flag, tree in zip(masks, connected.tolist(), trees.tolist()):
            assert flag == _mask_connected(n, mask)
            if flag:
                assert tree == _mask_tree_image(n, mask, root)


@pytest.mark.parametrize("n", (1, 4, 7, 11))
def test_swept_parents_and_generations_match_scalar_maps(n):
    # the parent (0-based, -1 for the root and the unreached) and generation
    # of each reached vertex, on random masks, disconnected ones included
    rng = random.Random(n)
    masks = [rng.getrandbits(n * (n - 1) // 2) for _ in range(200)]
    for root in sorted({1, n}):
        _, blocks = graphs._swept_blocks(n, masks, root)
        ((_, unseen, parent, gen),) = blocks
        for c, mask in enumerate(masks):
            up, depth = _mask_tree_maps(n, mask, root)
            assert {v + 1 for v in range(n) if not unseen[v, c]} == set(depth)
            assert parent[:, c].tolist() == [up.get(v, 0) - 1 for v in range(1, n + 1)]
            assert {v: gen[v - 1, c] for v in depth} == depth


def test_mask_tree_images_across_blocks():
    masks = np.arange(1 << 15, dtype=np.int64)  # every graph on [6]: 8 blocks
    assert masks.size > MASK_BLOCK
    connected, trees = mask_tree_images(6, masks, root=4)
    # connectivity does not depend on the root; the flags are checked below
    assert np.array_equal(connected, connected_mask_flags(6))
    sample = np.flatnonzero(connected)[::7].tolist()
    assert [int(trees[m]) for m in sample] == [_mask_tree_image(6, m, 4) for m in sample]


def test_mask_tree_images_disconnected_spans_root_component():
    # edges {1,2} and {3,4}: from root 3 only the edge {3,4} is reached
    n = 4
    mask = edge_mask(n, [(1, 2), (3, 4)])
    connected, trees = mask_tree_images(n, [mask], root=3)
    assert not connected[0] and not _mask_connected(n, mask)
    assert int(trees[0]) == _mask_tree_image(n, mask, 3) == edge_mask(n, [(3, 4)])


def test_mask_tree_images_validation():
    with pytest.raises(ValueError):
        mask_tree_images(4, [0], root=5)
    with pytest.raises(CapacityError):
        mask_tree_images(12, [0])


def test_mask_tree_images_refuse_a_mask_outside_the_edges():
    # past the top edge or negative, as ursell_values and slack_masks refuse
    # them: a negative mask would otherwise read as the complete graph
    for n, mask in ((4, 64), (4, -1), (3, 8), (7, 1 << 21)):
        with pytest.raises(ValueError, match=rf"edge mask {mask} outside \[0, 2\^"):
            mask_tree_images(n, [0, mask])
        with pytest.raises(ValueError, match=rf"edge mask {mask} outside \[0, 2\^"):
            graphs.slack_masks(n, [mask])
    assert mask_tree_images(4, [])[0].shape == (0,)


@pytest.mark.parametrize("n", range(1, 7))
def test_connected_mask_flags_match_scalar(n):
    flags = connected_mask_flags(n)
    assert flags.dtype == bool
    want = [_mask_connected(n, m) for m in range(1 << (n * (n - 1) // 2))]
    assert flags.tolist() == want


# ---------------------------------------------------------------------------
# the submask engine against its oracles
# ---------------------------------------------------------------------------

#: host edges up to which the tests' blocked brute force walks the 2^edges
#: submasks.  On a shared 2-core x86 machine the complete graph on 7
#: vertices (21 edges) takes about 0.24 s and 22 edges on 8 vertices about
#: 0.55 s; each edge more about doubles it.
MAX_HOST_EDGES = 22


def _blocked_submask_classes(n, gmask, root):
    """Brute force over every submask of the host graph ``gmask`` on [n].

    Returns the distinct rooted tree-image masks of the connected spanning
    submasks and the preimage count of each image, by the array kernel,
    MASK_BLOCK submasks at a time: the images with one preimage are the
    Penrose trees, so this is the oracle of the slack-rule growth.  The
    neighbor rows of the submasks of the first 12 host edges are deposited
    once per host by ``_deposit_rows``; a block ORs in the neighbor rows of
    its number's remaining edges, one constant per vertex.  A host of one
    block returns that block's classes; otherwise the blocks' preimage
    counts are merged once they reach as many entries as the merged classes
    (at least 2^16), so memory stays within about twice the class count as
    hosts grow.
    """
    bits = [k for k in range(n * (n - 1) // 2) if gmask >> k & 1]
    assert len(bits) <= MAX_HOST_EDGES
    inner, outer = bits[:_BLOCK_BITS], bits[_BLOCK_BITS:]
    rows = _deposit_rows(n, inner)
    pair_bits = _pair_bits(n)
    trees, counts, pending = [], [], 0
    last = (1 << len(outer)) - 1
    for high in range(last + 1):
        extra = _mask_adjacency(n, sum(1 << k for j, k in enumerate(outer) if high >> j & 1))
        extra = np.array(extra[1:], rows.dtype)[:, None]
        unseen, parent, _ = _sweep(rows | extra, root)
        conn = ~unseen.any(axis=0)
        image = np.bitwise_or.reduce([np.take(pair_bits[w], p + 1)
                                        for w, p in enumerate(parent, 1)])
        block_trees, block_counts = np.unique(image[conn], return_counts=True)
        trees.append(block_trees)
        counts.append(block_counts)
        pending += block_trees.size
        if high and (pending >= max(trees[0].size, 1 << 16) or high == last):
            merged, cls = np.unique(np.concatenate(trees), return_inverse=True)
            counts = [np.bincount(cls, np.concatenate(counts), merged.size)]
            trees, pending = [merged], 0
    return trees[0], counts[0].astype(np.int64)


def _check_engine(n, host, root):
    # the Penrose trees, from the table (2 <= n <= 6) and by the growth,
    # against the brute force's singleton classes
    trees, preimages = _blocked_submask_classes(n, host, root)
    value = ursell_values(n, [host])[0]
    assert value == ursell_table(n)[host]
    if _mask_connected(n, host):
        for enumerate_trees in (_slack_free_tree_masks, _grown_tree_masks):
            found = enumerate_trees(n, host, root)
            assert sorted(found) == trees[preimages == 1].tolist()
            assert len(found) == abs(value) == np.count_nonzero(preimages == 1)
    return value


@st.composite
def hosts_on(draw):
    n = draw(st.integers(1, 6))
    root = draw(st.integers(1, n))
    host = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return n, host, root


@settings(max_examples=60, deadline=None)
@given(hosts_on())
def test_submask_engine_matches_oracles(case):
    n, host, root = case
    assert _check_engine(n, host, root) == ursell_value(n, host)


@settings(max_examples=5, deadline=None)
@given(st.sets(st.integers(0, 14), max_size=2), st.integers(1, 6))
def test_submask_engine_merges_blocks(missing, root):
    # 13 to 15 of the 15 edges on [6]: the blocked path merges 2 to 8 blocks
    host = (1 << 15) - 1 - sum(1 << k for k in missing)
    assert 1 << (15 - len(missing)) > MASK_BLOCK
    _check_engine(6, host, root)


def test_mask_tree_table_is_read_only_and_capped():
    connected, images = mask_tree_table(4, 2)
    assert not connected.flags.writeable and not images.flags.writeable
    assert mask_tree_table(4, 2)[1] is images
    with pytest.raises(CapacityError):
        mask_tree_table(7)


@settings(max_examples=10, deadline=None)
@given(st.sets(st.integers(0, 20), max_size=12), st.integers(1, 7))
def test_blocked_path_on_seven_vertices(edges, root):
    # n = 7 has no table: the blocked path and the subset log against the
    # scalar oracles; the blocked path takes every host on 7 vertices
    assert MAX_HOST_EDGES >= 21
    host = sum(1 << k for k in edges)
    trees, preimages = _blocked_submask_classes(7, host, root)
    want = ursell_value(7, host)
    value = ursell_values(7, [host])
    assert value.dtype == np.int64 and value.tolist() == [want]
    if _mask_connected(7, host):
        singles = {t for t, c in zip(trees.tolist(), preimages.tolist()) if c == 1}
        assert singles == set(_slack_free_tree_masks(7, host, root))
        assert len(singles) == abs(want)


@pytest.mark.parametrize("n, edges, root", [
    (7, 13, 1), (7, 14, 4), (7, 16, 7), (8, 14, 1), (8, 15, 8), (9, 13, 9), (9, 14, 5),
])
def test_blocked_path_against_the_mask_kernel(n, edges, root):
    # hosts of 2 to 16 blocks on [7], and on both sides of the uint8/uint16
    # bitset boundary: a spanning path plus random edges
    rng = random.Random(100 * n + edges)
    path = edge_mask(n, [(v, v + 1) for v in range(1, n)])
    rest = [k for k in range(n * (n - 1) // 2) if not path >> k & 1]
    host = path | sum(1 << k for k in rng.sample(rest, edges - n + 1))
    subs = np.zeros(1, dtype=np.int64)
    for k in range(n * (n - 1) // 2):
        if host >> k & 1:
            subs = np.concatenate([subs, subs | (1 << k)])
    assert subs.size > MASK_BLOCK
    connected, images = mask_tree_images(n, subs, root)
    trees, preimages = np.unique(images[connected], return_counts=True)
    total = sum(-1 if bin(s).count("1") & 1 else 1 for s in subs[connected].tolist())
    assert ursell_values(n, [host]).tolist() == [total]
    got = _blocked_submask_classes(n, host, root)
    for a, b in zip(got, (trees, preimages.astype(np.int64))):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert sorted(_slack_free_tree_masks(n, host, root)) == trees[preimages == 1].tolist()
    # the mask kernel against the scalar oracles on a sample of the submasks
    sample = rng.sample(range(subs.size), 30)
    assert connected[sample].tolist() == [_mask_connected(n, int(subs[i])) for i in sample]
    sample = rng.sample(np.flatnonzero(connected).tolist(), 30)
    assert images[sample].tolist() == [_mask_tree_image(n, int(subs[i]), root) for i in sample]


def test_engine_refuses_a_root_outside_the_vertices():
    path = edge_mask(7, [(v, v + 1) for v in range(1, 7)])
    assert _slack_free_tree_masks(7, path, 7) == [path]
    for n, host in ((5, edge_mask(5, [(v, v + 1) for v in range(1, 5)])), (7, path)):
        for root in (0, n + 1):
            with pytest.raises(ValueError, match=rf"root {root} outside \[1\.\.{n}\]"):
                _slack_free_tree_masks(n, host, root)
    with pytest.raises(ValueError, match="root 8 outside"):
        penrose_trees(as_graph(7, path), 8)
    with pytest.raises(ValueError, match="root 8 outside"):
        penrose_trees_fast(as_graph(7, path), 8)
    with pytest.raises(ConfigError, match="root 8 outside"):
        verify.penrose_identity_random(7, 5, root=8)


def test_engine_refuses_a_mask_outside_the_edges():
    # past the top edge or negative
    for n, mask in ((3, 8), (3, -1), (7, 1 << 21), (7, -1)):
        with pytest.raises(ValueError, match=rf"edge mask {mask} outside \[0, 2\^"):
            _slack_free_tree_masks(n, mask)


def test_penrose_trees_has_no_vertex_cap():
    # past the mask tables' 6 vertices: (n - 1)! trees on the complete graph
    for n in (7, 8):
        assert len(penrose_trees(as_graph(n, complete(n)))) == math.factorial(n - 1)


def _same_trees_and_errors(n, mask, root):
    try:
        want = sorted(_grown_tree_masks(n, mask, root))
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            _slack_free_tree_masks(n, mask, root)
        assert str(got.value) == str(err)
    else:
        assert sorted(_slack_free_tree_masks(n, mask, root)) == want


def test_table_path_equals_the_growth():
    # every mask on up to 5 vertices at every root, 200 random masks on 6
    # and 100 on 7, and a root or a mask out of range, which both refuse alike
    rng = random.Random(39)
    for n in range(1, 8):
        npairs = n * (n - 1) // 2
        masks = (range(1 << npairs) if n <= 5
                 else [rng.getrandbits(npairs) for _ in range(200 if n == 6 else 100)])
        for mask in [*masks, -1, 1 << npairs]:
            for root in range(0, n + 2):
                _same_trees_and_errors(n, mask, root)
    # up to 5 vertices the host index's lookup is the per-host filter's
    # list, in table order; from 6 on no index is built
    for n in range(2, 8):
        for root in range(1, n + 1):
            trees, span = _tree_slack_table(n, root)
            assert trees.dtype == span.dtype == np.int32
            assert not trees.flags.writeable and not span.flags.writeable
            assert _tree_slack_table(n, root)[1] is span
            assert (_host_tree_index(n, root) is None) == (n >= 6)
            if n <= 5:
                for mask in range(1 << n * (n - 1) // 2):
                    assert _slack_free_tree_masks(n, mask, root) == trees[(span & mask) == trees].tolist()
    assert _tree_slack_table(7, 5)[0].size == 7 ** 5


@pytest.mark.parametrize("edges", (12, 18))
def test_growth_equals_the_blocked_brute_force_at_every_root(edges):
    # n = 7, past the mask tables and the exhaustive scan: a spanning path
    # plus random edges
    rng = random.Random(edges)
    path = edge_mask(7, [(v, v + 1) for v in range(1, 7)])
    rest = [k for k in range(21) if not path >> k & 1]
    host = path | sum(1 << k for k in rng.sample(rest, edges - 6))
    value = ursell_values(7, [host])[0]
    for root in range(1, 8):
        trees, preimages = _blocked_submask_classes(7, host, root)
        singles = trees[preimages == 1].tolist()
        # the table path and the growth, which n = 7 no longer takes
        for enumerate_trees in (_slack_free_tree_masks, _grown_tree_masks):
            assert sorted(enumerate_trees(7, host, root)) == singles
        assert len(singles) == value  # (-1)^6 = 1


# ---------------------------------------------------------------------------
# the generation search against the slack rule
# ---------------------------------------------------------------------------

def _search_tree(n, edges, root):
    """Parent and generation of each vertex reached from ``root`` over ``edges``."""
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {}
    gen = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in gen:
                gen[w] = gen[v] + 1
                parent[w] = v
                stack.append(w)
    return parent, gen


def _slack_rule_tree_masks(n, gmask, root):
    """Masks of the (n - 1)-edge subsets of host ``gmask`` that span [n] and have no slack edge in it."""
    out = set()
    for combo in itertools.combinations(mask_edges(n, gmask), n - 1):
        parent, gen = _search_tree(n, combo, root)
        # n - 1 edges that reach every vertex form a spanning tree
        if len(gen) == n and _slack_mask(n, parent, gen) & gmask == 0:
            out.add(edge_mask(n, combo))
    return out


def _fast_tree_masks(n, gmask, root):
    trees = penrose_trees_fast(as_graph(n, gmask), root)
    assert all(t.root == root and t.n == n for t in trees)
    return {t.mask for t in trees}


@pytest.mark.parametrize("n", range(1, 6))
def test_penrose_trees_fast_matches_slack_rule(n):
    for g in enum_graphs(n, "connected"):
        for root in range(1, n + 1):
            assert _fast_tree_masks(n, g, root) == _slack_rule_tree_masks(n, g, root)


def test_penrose_trees_fast_matches_slack_rule_on_six_vertices():
    for root in range(1, 7):
        assert _fast_tree_masks(6, complete(6), root) == _slack_rule_tree_masks(6, complete(6), root)
    rng = random.Random(6)
    masks = np.flatnonzero(connected_mask_flags(6))
    for _ in range(40):
        g = int(masks[rng.randrange(masks.size)])
        root = rng.randint(1, 6)
        assert _fast_tree_masks(6, g, root) == _slack_rule_tree_masks(6, g, root)


def test_penrose_trees_fast_complete_graph_on_seven_vertices():
    assert len(penrose_trees_fast(as_graph(7, complete(7)))) == 720  # = 6!


@st.composite
def connected_hosts(draw):
    # a random recursive tree on [n] plus up to 10 more edges, and a root
    n = draw(st.integers(1, 7))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if n > 1:
        edges += draw(st.lists(st.sampled_from(vertex_pairs(n)), max_size=10))
    return n, edge_mask(n, edges), draw(st.integers(1, n))


@settings(max_examples=60, deadline=None)
@given(connected_hosts())
def test_penrose_trees_fast_equals_engine(case):
    n, g, root = case
    fast = _fast_tree_masks(n, g, root)
    trees, preimages = _blocked_submask_classes(n, g, root)
    assert fast == set(trees[preimages == 1].tolist())
    for t in fast:
        parent, gen = _mask_tree_maps(n, t, root)
        assert len(gen) == n and bin(t).count("1") == n - 1
        assert t & ~g == 0
        assert _slack_mask(n, parent, gen) & g == 0


@st.composite
def any_hosts(draw):
    # a random edge set on [n], n <= 8, from empty to complete, and a root
    n = draw(st.integers(1, 8))
    npairs = n * (n - 1) // 2
    edges = draw(st.lists(st.integers(0, npairs - 1), max_size=npairs)) if npairs else []
    return n, sum(1 << k for k in set(edges)), draw(st.integers(1, n))


@settings(max_examples=50, deadline=None)
@given(any_hosts())
def test_growth_is_empty_exactly_on_a_disconnected_host(case):
    # penrose_trees runs no connectivity pass of its own: no tree grown,
    # at any root, means a disconnected host
    n, mask, root = case
    connected = _mask_connected(n, mask)
    for r in range(1, n + 1):
        assert (not _slack_free_tree_masks(n, mask, r)) == (not connected)
    trees = _slack_free_tree_masks(n, mask, root)
    for fn in (penrose_trees, penrose_trees_fast):
        if trees:
            assert {t.mask for t in fn(as_graph(n, mask), root)} == set(trees)
        else:
            with pytest.raises(DomainError) as err:
                fn(as_graph(n, mask), root)
            assert str(err.value) == "Penrose trees are defined for connected graphs only"


# ---------------------------------------------------------------------------
# the batch slack kernel against the scalar slack rule
# ---------------------------------------------------------------------------

def _scalar_slack(n, masks, root):
    return [_slack_mask(n, *_mask_tree_maps(n, t, root)) for t in masks]


@pytest.mark.parametrize("n", range(2, 7))
def test_slack_masks_match_scalar_on_every_tree(n):
    masks = prufer_tree_masks(n)
    for root in range(1, n + 1):
        assert graphs.slack_masks(n, masks, root).tolist() == _scalar_slack(n, masks.tolist(), root)


@pytest.mark.parametrize("n, roots", [(7, (1, 4, 7)), (8, (1, 8))])
def test_slack_masks_match_scalar_on_spread_trees(n, roots):
    # every 3rd tree at n = 7, over two blocks, and 2,000 random trees at n = 8
    if n == 7:
        masks = prufer_tree_masks(n)[::3]
        assert masks.size > MASK_BLOCK
    else:
        rng = random.Random(n)
        seqs = [[rng.randint(1, n) for _ in range(n - 2)] for _ in range(2000)]
        masks = np.array([edge_mask(n, _decode_tree_sequence(n, q)) for q in seqs], dtype=np.int64)
    for root in roots:
        assert graphs.slack_masks(n, masks, root).tolist() == _scalar_slack(n, masks.tolist(), root)


@settings(max_examples=40, deadline=None)
@given(connected_hosts())
def test_slack_masks_match_scalar_on_connected_masks(case):
    # not only trees: the slack rule of the swept tree maps of the host and
    # of each connected host less one edge
    n, g, root = case
    edges = [1 << k for k in range(n * (n - 1) // 2) if g >> k & 1]
    masks = [m for m in [g] + [g ^ e for e in edges] if _mask_connected(n, m)]
    assert graphs.slack_masks(n, masks, root).tolist() == _scalar_slack(n, masks, root)


def test_slack_masks_refuse_what_is_not_a_spanning_mask():
    path = edge_mask(4, [(1, 2), (2, 3), (3, 4)])
    cut = edge_mask(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError, match=rf"edge mask {cut} does not reach every vertex of \[4\]"):
        graphs.slack_masks(4, [path, cut])
    with pytest.raises(ValueError, match=r"edge mask 64 outside \[0, 2\^6\)"):
        graphs.slack_masks(4, [path, 64])
    with pytest.raises(ValueError, match="root 5 outside"):
        graphs.slack_masks(4, [path], 5)
    assert graphs.slack_masks(1, [0]).tolist() == [0]
    assert graphs.slack_masks(4, []).tolist() == []


def _cache_sizes():
    return {(mod.__name__, name): fn.cache_info().currsize
            for mod in (graphs, polymer) for name, fn in vars(mod).items()
            if hasattr(fn, "cache_info")}


def test_penrose_engine_grows_no_cache_once_filled():
    # the tables to fill before timing: ursell tables, the root-1 mask tree
    # tables (which ursell tables no longer build), the root-1 tree and
    # slack tables of the Penrose trees (up to 7 vertices) with their host
    # indices (up to 5) and the vertex pairs of each n; p_exact keeps no
    # cache, so it needs no warm-up
    for n in range(1, 13):
        edge_mask(n, ())
    for n in range(1, 8):
        _slack_free_tree_masks(n, 0)
    for n in range(1, 7):
        ursell_table(n)
        connected_mask_flags(n)
    before = _cache_sizes()
    for g in list(enum_graphs(5, "connected"))[::20]:
        penrose_trees(as_graph(5, g))
        penrose_trees_fast(as_graph(5, g))
    for s in ((2, 3), (4, 4), (3, 3, 2)):
        polymer.p_exact(10, s)
    verify.penrose_identity_scan(6)
    verify.penrose_identity_random(7, 3)
    verify.penrose_identity_random(8, 3)
    polymer.xi_exact(8, polymer.ActivityProfile(8, {2: 0.5, 5: -0.25}), "bruteforce")
    assert _cache_sizes() == before


# ---------------------------------------------------------------------------
# the exhaustive identity scan
# ---------------------------------------------------------------------------

#: connected labelled graphs on [n]
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def _recount_penrose_trees(n, root):
    """Per connected host g, the tree classes whose only member inside g is the tree.

    The class of tree mask t lies in [t, cover], cover the union of its
    members, and is checked to fill it; its members inside g are then t
    alone exactly when t <= g and g misses cover minus t.  The slack rule
    is not used.
    """
    flags, images = mask_tree_table(n, root)
    conn = np.flatnonzero(flags)
    trees = images[conn]
    sizes = np.bincount(trees, minlength=len(flags))
    covers = np.zeros(len(flags), dtype=np.int64)
    np.bitwise_or.at(covers, trees, conn)
    counts = np.zeros(len(conn), dtype=np.int64)
    for t in np.flatnonzero(sizes).tolist():
        extra = int(covers[t]) & ~t
        assert sizes[t] == 1 << bin(extra).count("1")
        counts += (conn & (t | extra)) == t
    return conn, counts


@pytest.mark.parametrize("n", range(2, 7))
def test_ursell_table_counts_penrose_trees(n):
    conn, counts = _recount_penrose_trees(n, 1)
    sign = 1 if (n - 1) % 2 == 0 else -1
    assert (ursell_table(n)[conn] == sign * counts).all()
    assert (counts > 0).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_scan_at_every_root(n):
    for root in range(1, n + 1):
        assert verify.penrose_identity_scan(n, root) == (CONNECTED_COUNTS[n], 0)


@pytest.mark.parametrize("n", (1, 6))
def test_identity_scan_names_a_bad_root(n):
    # in the class of verify's other refusals
    with pytest.raises(ConfigError, match=f"root {n + 1} outside"):
        verify.penrose_identity_scan(n, n + 1)


@pytest.mark.parametrize("rule", ("flip", "tree_edge"))
def test_identity_scan_refuses_a_wrong_slack_rule(monkeypatch, rule):
    right = graphs._slack_mask

    def wrong(n, parent, gen):
        if rule == "flip":
            # the last edge's slack bit, flipped on trees with vertex n next to the root
            return right(n, parent, gen) ^ (1 << (n * (n - 1) // 2 - 1) if gen[n] == 1 else 0)
        # vertex 2's tree edge counted as slack: each member stays in the
        # interval, which is now twice the class
        return right(n, parent, gen) | edge_mask(n, [(2, parent[2])])

    # the scan reads the batch kernel; each tree takes the wrong rule instead
    monkeypatch.setattr(graphs, "slack_masks", lambda n, trees, root: np.array(
        [wrong(n, *graphs._mask_tree_maps(n, t, root)) for t in trees.tolist()], dtype=np.int64))
    for n in (3, 6):
        with pytest.raises(ClusterKitError, match="tree mask"):
            verify.penrose_identity_scan(n)


@pytest.mark.parametrize("n", (4, 6))
@pytest.mark.parametrize("swap", (False, True))
def test_identity_scan_refuses_a_moved_preimage(monkeypatch, n, swap):
    flags, images = mask_tree_table(n)
    moved = images.copy()
    conn = np.flatnonzero(flags)
    # the complete graph leaves the star's class for another tree's class;
    # swapped with a member of that class, every class keeps its size
    other = conn[images[conn] != images[conn[-1]]][0]
    moved[conn[-1]] = images[other]
    if swap:
        moved[other] = images[conn[-1]]
    monkeypatch.setattr(verify, "mask_tree_table", lambda n, root=1: (flags, moved))
    with pytest.raises(ClusterKitError, match="tree mask"):
        verify.penrose_identity_scan(n)
    assert not images.flags.writeable


def test_identity_random_draws_the_same_hosts(monkeypatch):
    # the default check's hosts: the first connected G(7, 1/2) draw each,
    # from the seeded stream, as an unbounded draw loop finds them
    rng = random.Random(20260808)
    want = []
    while len(want) < 100:
        mask = sum(1 << k for k in range(21) if rng.random() < 0.5)
        if _mask_connected(7, mask):
            want.append(mask)
    seen = []
    growth = verify._slack_free_tree_masks
    monkeypatch.setattr(verify, "_slack_free_tree_masks",
                        lambda n, mask, root: seen.append(mask) or growth(n, mask, root))
    assert verify.penrose_identity_random(7, 100) == (100, 0)
    assert seen == want


def _broken_growth(independent=True, smallest_parent=False):
    """The slack-rule growth of ``_grown_tree_masks`` with one rule broken.

    Without the independence step a generation may hold a host edge, which
    is slack, so the trees counted are more than the Penrose trees wherever
    a host has an edge between two vertices at the same distance from the
    root.  Taking the smallest instead of the largest upper host neighbour
    as parent keeps the count, but then the tree misses the edge to the
    largest one, which is slack.
    """

    def growth(n, gmask, root):
        adj = _mask_adjacency(n, gmask)
        full = (1 << n) - 1
        out = []

        def grow(layer, used, tree, free, new):
            if free:
                low = free & -free
                v = low.bit_length()
                up = adj[v] & layer
                p = (up & -up if smallest_parent else up).bit_length()
                rest = free ^ low
                grow(layer, used, tree | edge_mask(n, [(p, v)]),
                     rest & ~adj[v] if independent else rest, new | low)
                grow(layer, used, tree, rest, new)
                return
            used |= new
            if used == full:
                out.append(tree)
            elif new:
                reach = 0
                for v in range(1, n + 1):
                    if new >> (v - 1) & 1:
                        reach |= adj[v]
                grow(new, used, tree, reach & ~used, 0)

        grow(0, 0, 0, 0, 1 << (root - 1))
        return out

    return growth


def test_broken_growth_with_no_rule_broken_is_the_growth():
    # the fault tests below break one rule of a faithful copy, tree order included
    rng = random.Random(8)
    for n in (6, 7, 8):
        for _ in range(10):
            mask = rng.getrandbits(n * (n - 1) // 2)
            if _mask_connected(n, mask):
                root = rng.randint(1, n)
                assert _broken_growth()(n, mask, root) == _grown_tree_masks(n, mask, root)


@pytest.mark.parametrize("n", (7, 8))
def test_identity_random_refuses_a_growth_that_breaks_the_slack_rule(monkeypatch, n):
    # the first 20 of the check's hosts
    monkeypatch.setattr(verify, "_slack_free_tree_masks", _broken_growth(independent=False))
    total, mism = verify.penrose_identity_random(n, 20)
    assert total == 20 and mism > 0


@pytest.mark.parametrize("n", (7, 8))
def test_identity_random_refuses_a_growth_with_the_wrong_parent(monkeypatch, n):
    # the tree count stays |Ursell|; the first tree's slack edges give it away
    monkeypatch.setattr(verify, "_slack_free_tree_masks", _broken_growth(smallest_parent=True))
    total, mism = verify.penrose_identity_random(n, 20)
    assert total == 20 and mism > 0


@pytest.mark.parametrize("rule, detail", [
    ({"independent": False},
     "tree count != |ursell_values| or a tree grown twice at n=3 mask 7"),
    # the tree count stays |Ursell|; the 4-cycle's trees give it away
    ({"smallest_parent": True}, "tree mask 14 is not a Penrose tree of n=4 mask 30"),
], ids=["not_independent", "smallest_parent"])
def test_fast_equivalence_refuses_a_broken_growth(monkeypatch, rule, detail):
    monkeypatch.setattr(verify, "_slack_free_tree_masks", _broken_growth(**rule))
    assert verify._check_fast_equivalence() == (False, detail)


@pytest.mark.parametrize("count", [0, -3])
def test_identity_random_refuses_a_count_below_one(count):
    with pytest.raises(ConfigError, match=f"count must be an integer >= 1, got {count}"):
        verify.penrose_identity_random(7, count)


def test_penrose_trees_complete_graph_every_root():
    K6 = as_graph(6, complete(6))
    assert [len(penrose_trees(K6, root=r)) for r in range(1, 7)] == [120] * 6


def test_edge_mask_roundtrip():
    pairs = vertex_pairs(5)
    g = LabeledGraph.from_edges(5, [pairs[0], pairs[3], pairs[9]])
    assert g.mask == 0b1000001001
    assert as_graph(5, g.mask) == g and mask_edges(5, g.mask) == tuple(sorted(g.edges))
    assert edge_mask(5, g.edges) == g.mask
    assert edge_mask(5, [(2, 1), (5, 4)]) == edge_mask(5, [(1, 2), (4, 5)])
    for bad in ((3, 3), (0, 2), (2, 6), (-1, 2)):
        with pytest.raises(ValueError, match="is not an edge on"):
            edge_mask(5, [bad])
