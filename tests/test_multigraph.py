import gc
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from block_oracle import blocks_by_cycles
from iso_oracle import backtrack_isomorphic
from tree_oracle import whole_graph_trees
from spcube import (
    Multigraph,
    add_leaf,
    add_loop,
    blocks,
    canonical_form,
    contract,
    delete_edge,
    duplicate_edge,
    enumerate_connected_sp,
    graph_from_json,
    graph_to_json,
    has_k4_minor,
    is_isomorphic,
    is_series_parallel,
    is_two_connected,
    one_sum,
    permute_edges,
    spanning_trees,
    subdivide_edge,
    tree_count,
    two_sum,
)
from spcube import SizeGuardError, catalog, multigraph, spterm
from spcube.embeddings import enumerate_maps
from spcube.multigraph import _is_bridge, least_twins
from spcube.spterm import enumerate_terms, to_marked_graph
from spcube.verify import (
    _all_connected_multigraphs,
    _kirchhoff_count,
    _redundant_terms,
    _trees_by_subsets,
    _two_connected_by_deletion,
    check_blocks_partition,
    check_deletion_contraction,
    check_sp_closure,
    check_sp_vs_minor,
    check_tree_count_routes,
    check_tree_weights,
)


def masks_to_strings(masks, width):
    return {"".join("1" if m >> j & 1 else "0" for j in range(width)) for m in masks}


class TestSpanningTrees:
    def test_k4_minus_edge_worked_example(self):
        g = catalog.k4_minus_edge()
        got = masks_to_strings(spanning_trees(g), 5)
        assert got == {
            "01110", "10110", "11010", "11100",
            "01011", "01101", "10101", "10011",
        }

    def test_c2(self):
        assert masks_to_strings(spanning_trees(catalog.c2()), 2) == {"10", "01"}

    def test_single_vertex_with_loop(self):
        g = Multigraph(1, ((0, 0),))
        assert spanning_trees(g) == [0]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            spanning_trees(Multigraph(2, ()))

    def test_sorted_deterministic(self):
        masks = spanning_trees(catalog.k4_minus_edge())
        assert masks == sorted(masks)


def _is_acyclic(g, mask):
    parent = list(range(g.n))
    for i, (u, v) in enumerate(g.edges):
        if mask >> i & 1:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                return False
            parent[u] = v
    return True


def _random_sp(rng, e):
    """A connected SP multigraph with e edges, grown from K1 by random
    elementary operations (loops included)."""
    g = Multigraph(1, ())
    while g.e < e:
        kind = rng.choice(("loop", "leaf") + ("duplicate", "subdivide") * 3)
        if kind in ("duplicate", "subdivide") and g.e:
            op = duplicate_edge if kind == "duplicate" else subdivide_edge
            g = op(g, rng.randrange(g.e))
        elif kind == "loop":
            g = add_loop(g, rng.randrange(g.n))
        else:
            g = add_leaf(g, rng.randrange(g.n))
    return g


class TestSpanningTreesAbove20Edges:
    """Distinct, sorted masks, each an acyclic set of v - 1 edges, as many as
    the Kirchhoff count: exactly the spanning trees, with no second
    enumerator."""

    def _check(self, g):
        assert g.e > 20
        masks = spanning_trees(g)
        assert masks == sorted(set(masks))
        for m in masks:
            assert bin(m).count("1") == g.n - 1
            assert _is_acyclic(g, m)
        assert len(masks) == _kirchhoff_count(g)

    def test_fib_chain_22(self):
        self._check(catalog.fib_chain(22))

    def test_chain_of_11_parallel_pairs(self):
        g = Multigraph(12, tuple(e for j in range(11) for e in ((j, j + 1),) * 2))
        assert tree_count(g) == 2**11
        self._check(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sp(self, seed):
        rng = random.Random(seed)
        g = _random_sp(rng, rng.randint(21, 26))
        assert is_series_parallel(g) and g.is_connected()
        self._check(g)


def _union(g, h):
    """Disjoint union: h's vertices and edges come after g's."""
    return Multigraph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))


def _decorated_k4(rng, min_edges=0):
    """K4 with its edges replaced by random series and parallel terms (one
    duplicate/subdivide step at a time, more of them until there are at
    least ``min_edges`` edges), pendant trees and loops added, and the edge
    order shuffled."""
    g = catalog.k4_x16()
    for _ in range(rng.randint(0, 7)):
        op = rng.choice((duplicate_edge, subdivide_edge))
        g = op(g, rng.randrange(g.e))
    for _ in range(rng.randint(0, 3)):
        g = add_leaf(g, rng.randrange(g.n))
    for _ in range(rng.randint(0, 2)):
        g = add_loop(g, rng.randrange(g.n))
    while g.e < min_edges:
        op = rng.choice((duplicate_edge, subdivide_edge))
        g = op(g, rng.randrange(g.e))
    order = list(range(g.e))
    rng.shuffle(order)
    return permute_edges(g, tuple(order))


def _wheel(spokes):
    """The wheel W_spokes: hub 0, rim 1..spokes; all of it is core."""
    rim = range(1, spokes + 1)
    return Multigraph(spokes + 1, tuple((0, i) for i in rim) + tuple((i, i % spokes + 1) for i in rim))


def _two_k4_cores_on_a_path():
    """Two copies of K4 and a 2-path from the first to the second: 14 edges."""
    k4 = catalog.k4_x16()
    g = _union(k4, k4)
    return Multigraph(g.n + 1, g.edges + ((3, 8), (8, 4)))


def _subdivided_k4(length):
    """K4 with each of its six edges replaced by a path of ``length``
    edges: a four-vertex core whose networks each have ``length`` F masks."""
    edges, n = [], 4
    for a, b in combinations(range(4), 2):
        path = [a, *range(n, n + length - 1), b]
        n += length - 1
        edges += zip(path, path[1:])
    return Multigraph(n, tuple(edges))


_K5 = Multigraph(5, tuple(combinations(range(5), 2)))

# cores of five to nine vertices, so the core enumerator recurses four to
# eight levels deep, and a K4 core whose networks have four F masks each
DEEPER_CORES = {
    **{f"W{k}": _wheel(k) for k in range(4, 9)},
    "K5": _K5,
    "K5-3-subdivided": subdivide_edge(subdivide_edge(subdivide_edge(_K5, 0), 4), 8),
    "W6-spoke-doubled": duplicate_edge(_wheel(6), 0),
    "two-K4-on-a-path": _two_k4_cores_on_a_path(),
    "K4-4-subdivided": _subdivided_k4(4),
}


@st.composite
def _connected_multigraphs(draw):
    """A random spanning tree plus random extra edges (loops, parallel
    edges and K4 subgraphs included), in a random edge order."""
    n = draw(st.integers(1, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return Multigraph(n, tuple(draw(st.permutations(edges))))


class TestSpanningTreesByReduction:
    """The series-parallel reduction with its core enumerator gives the
    whole-graph enumerator's lists (``tree_oracle``)."""

    def test_census(self):
        for d in range(1, 8):
            for g in enumerate_connected_sp(d):
                assert spanning_trees(g) == whole_graph_trees(g), g

    def test_all_connected_multigraphs(self, monkeypatch):
        graphs = [g for d in range(7) for g in _all_connected_multigraphs(d)]
        assert any(not is_series_parallel(g) for g in graphs)  # K4 takes the core path
        want = [whole_graph_trees(g) for g in graphs]
        for limit in (multigraph.TREE_BITSET_LIMIT, -1):  # bitsets, then lists
            monkeypatch.setattr(multigraph, "TREE_BITSET_LIMIT", limit)
            for g, w in zip(graphs, want):
                assert spanning_trees(g) == w, (limit, g)

    def test_term_graphs(self, monkeypatch):
        terms = [t for d in range(1, 10) for t in enumerate_terms(d)]
        want = [whole_graph_trees(to_marked_graph(t)) for t in terms]
        for limit in (multigraph.TREE_BITSET_LIMIT, -1):  # bitsets, then lists
            monkeypatch.setattr(multigraph, "TREE_BITSET_LIMIT", limit)
            for t, w in zip(terms, want):
                assert spanning_trees(to_marked_graph(t)) == w, (limit, t)

    @pytest.mark.parametrize(
        "d", range(multigraph.TREE_BITSET_LIMIT - 1, multigraph.TREE_BITSET_LIMIT + 3)
    )
    def test_fib_chains_across_the_bitset_limit(self, monkeypatch, d):
        decoded = []
        members = multigraph._members
        monkeypatch.setattr(multigraph, "_members", lambda bits: decoded.append(bits) or members(bits))
        g = catalog.fib_chain(d)
        assert spanning_trees(g) == whole_graph_trees(g)
        assert bool(decoded) == (d <= multigraph.TREE_BITSET_LIMIT)  # bitsets, else lists

    @pytest.mark.parametrize("seed", range(4))
    def test_decorated_k4_cores_above_the_bitset_limit(self, seed):
        g = _decorated_k4(random.Random(seed), multigraph.TREE_BITSET_LIMIT + 1)
        assert not is_series_parallel(g)
        assert spanning_trees(g) == whole_graph_trees(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_decorated_k4_cores(self, seed):
        g = _decorated_k4(random.Random(seed))
        assert not is_series_parallel(g)
        assert spanning_trees(g) == whole_graph_trees(g)

    @pytest.mark.parametrize("name", DEEPER_CORES)
    def test_deeper_cores(self, monkeypatch, name):
        g = DEEPER_CORES[name]
        assert not is_series_parallel(g)
        want = whole_graph_trees(g)
        for limit in (-1, 64):  # lists, then bitsets
            monkeypatch.setattr(multigraph, "TREE_BITSET_LIMIT", limit)
            assert spanning_trees(g) == want, limit

    def test_two_cores_joined_by_a_path(self):
        g = _two_k4_cores_on_a_path()
        masks = spanning_trees(g)
        assert len(masks) == 16 * 16
        assert masks == whole_graph_trees(g)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_connected_multigraphs())
    def test_random_connected_multigraphs(self, g):
        masks = spanning_trees(g)
        assert len(masks) == tree_count(g) == _kirchhoff_count(g)
        assert masks == _trees_by_subsets(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="spanning trees of the empty graph are undefined"):
            spanning_trees(Multigraph(0, ()))

    @pytest.mark.parametrize(
        "g",
        [
            Multigraph(2, ()),
            Multigraph(3, ((0, 1), (0, 1), (2, 2))),
            _union(catalog.triangle(), catalog.c2()),
            _union(catalog.k4_x16(), Multigraph(1, ())),
            _union(catalog.k1(), catalog.k4_x16()),
            _union(catalog.k4_x16(), catalog.triangle()),
            _union(catalog.k4_x16(), catalog.k4_x16()),
        ],
    )
    def test_disconnected_rejected_with_message(self, g):
        with pytest.raises(ValueError, match="spanning trees require a connected graph"):
            spanning_trees(g)


def _lowest_bit_members(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class TestTreeSetValues:
    """The set-bit decoder, and the list type's arithmetic, which counts
    members by the count rule."""

    def test_members(self):
        rng = random.Random(0)
        cases = [0] + [1 << i for i in range(64)] + [1 << rng.randrange(1 << 14) for _ in range(64)]
        cases += [rng.getrandbits(rng.randint(1, 1 << 14)) for _ in range(40)]
        for bits in cases:
            assert multigraph._members(bits) == _lowest_bit_members(bits)

    def test_mask_list_counts(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = ([rng.randrange(16) for _ in range(rng.randint(0, 5))] for _ in range(2))
            x, y = multigraph._MaskList(a[:]), multigraph._MaskList(b)
            assert sorted((x * y).masks) == sorted(p | q for p in a for q in b)
            assert (x + y).masks == a + b  # a multiset sum, duplicates kept
            x += y
            assert x.masks == a + b and x.bit_count() == len(a) + len(b)


class TestMinor:
    def test_contract_e5(self):
        g = contract(catalog.k4_minus_edge(), 4)
        assert masks_to_strings(spanning_trees(g), 4) == {"0101", "0110", "1001", "1010"}

    def test_delete_e5(self):
        g = delete_edge(catalog.k4_minus_edge(), 4)
        assert masks_to_strings(spanning_trees(g), 4) == {"0111", "1011", "1101", "1110"}

    def test_contract_c2_gives_loop(self):
        g = contract(catalog.c2(), 0)
        assert g.n == 1 and g.edges == ((0, 0),)

    def test_contract_loop_rejected(self):
        with pytest.raises(ValueError):
            contract(Multigraph(1, ((0, 0),)), 0)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            delete_edge(catalog.c2(), 5)

    def test_edge_count_drops_by_one(self):
        g = catalog.k4_minus_edge()
        assert contract(g, 2).e == g.e - 1
        assert delete_edge(g, 2).e == g.e - 1


class TestOperations:
    def test_duplicate_c2(self):
        g = duplicate_edge(catalog.c2(), 1)
        assert g.edges == ((0, 1),) * 3
        assert masks_to_strings(spanning_trees(g), 3) == {"100", "010", "001"}

    def test_subdivide_c2_gives_triangle(self):
        g = subdivide_edge(catalog.c2(), 1)
        assert masks_to_strings(spanning_trees(g), 3) == {"110", "101", "011"}

    def test_leaf_then_loop(self):
        g = add_loop(add_leaf(catalog.k1(), 0), 0)
        assert masks_to_strings(spanning_trees(g), 2) == {"10"}

    def test_pair_occupies_i_and_next(self):
        g = catalog.k4_minus_edge()
        d = duplicate_edge(g, 1)
        assert d.edges[1] == d.edges[2] == g.edges[1]
        assert d.edges[3:] == g.edges[2:]
        s = subdivide_edge(g, 1)
        assert s.edges[:1] == g.edges[:1]
        assert s.edges[3:] == g.edges[2:]

    def test_marked_edge_protected(self):
        g = catalog.c2_marked()
        with pytest.raises(ValueError):
            duplicate_edge(g, 0)
        with pytest.raises(ValueError):
            subdivide_edge(g, 0)
        assert duplicate_edge(g, 1).distinguished == 0

    def test_mark_shifts_when_pair_inserted_before(self):
        g = Multigraph(3, ((0, 1), (1, 2), (0, 2)), distinguished=2)
        assert duplicate_edge(g, 0).distinguished == 3


class TestBlocks:
    def test_triangle_with_pendant(self):
        g = add_leaf(catalog.triangle(), 0)
        bs = blocks(g)
        assert len(bs) == 2
        assert sorted(len(b.edge_indices) for b in bs) == [1, 3]

    def test_k4_minus_edge_single_block(self):
        g = catalog.k4_minus_edge()
        assert is_two_connected(g)
        assert len(blocks(g)) == 1

    def test_two_triangles_sharing_vertex(self):
        g = one_sum(catalog.triangle(), 0, catalog.triangle(), 0)
        bs = blocks(g)
        assert len(bs) == 2
        assert all(len(b.edge_indices) == 3 for b in bs)

    def test_loops_are_blocks(self):
        g = add_loop(catalog.c2(), 0)
        bs = blocks(g)
        assert len(bs) == 2
        assert any(b.graph.edges == ((0, 0),) for b in bs)

    def test_against_cycle_union_oracle(self):
        """``blocks`` against the union of every cycle's edges, and
        ``is_two_connected`` against vertex deletion, on seeded random
        multigraphs with loops, parallel edges, isolated vertices and
        several components, on K4 and on the wheel W5."""
        rng = random.Random(7)
        wheel = [(0, i) for i in range(1, 5)] + [(i, i % 4 + 1) for i in range(1, 5)]
        graphs = [catalog.k4_x16(), Multigraph(5, wheel)]
        for _ in range(300):
            n = rng.randint(1, 6)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8))]
            graphs.append(Multigraph(n, pairs))
        for _ in range(300):  # no loops and more edges, so more of them 2-connected
            n = rng.randint(2, 5)
            graphs.append(Multigraph(n, [rng.sample(range(n), 2) for _ in range(rng.randint(n, 8))]))
        two_connected = 0
        for g in graphs:
            bs = blocks(g)
            assert [b.edge_indices for b in bs] == blocks_by_cycles(g), g
            for b in bs:
                ids = b.vertex_ids
                back = [(ids[x], ids[y]) for x, y in b.graph.edges]
                assert back == [g.edges[i] for i in b.edge_indices], g
            assert is_two_connected(g) == _two_connected_by_deletion(g), g
            two_connected += is_two_connected(g)
        assert is_two_connected(graphs[0]) and is_two_connected(graphs[1])
        assert two_connected > 50


class TestSeriesParallel:
    def test_k4_minus_edge(self):
        assert is_series_parallel(catalog.k4_minus_edge())

    def test_k4_is_not(self):
        assert not is_series_parallel(catalog.k4_x16())
        assert has_k4_minor(catalog.k4_x16())

    def test_tripled_edge(self):
        assert is_series_parallel(catalog.parallel_edges(3))

    def test_star_with_loop(self):
        g = Multigraph(4, ((0, 1), (0, 2), (0, 3), (0, 0)))
        assert is_series_parallel(g)

    def test_k4_plus_decorations_still_detected(self):
        g = add_loop(add_leaf(catalog.k4_x16(), 2), 0)
        assert not is_series_parallel(g)

    def test_disconnected_unions_against_minor_search(self):
        small = [g for d in range(4) for g in _all_connected_multigraphs(d)]
        k4 = catalog.k4_x16()
        cores = [k4, subdivide_edge(subdivide_edge(k4, 0), 3), add_loop(duplicate_edge(k4, 2), 1)]
        for g in [g for d in range(5) for g in _all_connected_multigraphs(d)] + cores:
            for h in small:
                u = _union(g, h)
                assert is_series_parallel(u) == (not has_k4_minor(u)), u
        u = _union(catalog.k4_x16(), catalog.k4_x16())
        assert not is_series_parallel(u) and has_k4_minor(u)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_connected_multigraphs())
    def test_random_connected_multigraphs_against_minor_search(self, g):
        assert is_series_parallel(g) == (not has_k4_minor(g))


class TestTwoSum:
    def test_c2_c2_gives_triple_edge(self):
        # identifying the marked edges merges both endpoint pairs, so two
        # 2-cycles glue into the 3-parallel-edge graph on 2 vertices
        g = two_sum(catalog.c2_marked(), catalog.c2_marked())
        assert (g.n, g.e, g.distinguished) == (2, 3, 0)
        assert g.edges == ((0, 1),) * 3
        # consistent with the term calculus: the glued pattern graph is the
        # product-join of two single edges (checked in the gluing suite)

    def test_triangle_c2(self):
        tri = Multigraph(3, ((0, 1), (1, 2), (0, 2)), distinguished=0)
        g = two_sum(tri, catalog.c2_marked())
        # gluing a 2-cycle onto a triangle edge doubles that edge
        assert (g.n, g.e) == (3, 4)
        want = Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)), distinguished=0)
        assert is_isomorphic(g, want, use_distinguished=True)

    def test_edge_count_arithmetic(self):
        tri = Multigraph(3, ((0, 1), (1, 2), (0, 2)), distinguished=0)
        assert two_sum(catalog.c2_marked(), tri).e == 2 + 3 - 1

    def test_requires_marks(self):
        with pytest.raises(ValueError):
            two_sum(catalog.c2(), catalog.c2_marked())


class TestMarkedInvariants:
    def test_loop_mark_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(1, ((0, 0),), distinguished=0)

    def test_bridge_mark_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 1),), distinguished=0)

    def test_valid_mark(self):
        g = catalog.c2_marked()
        assert g.distinguished == 0


class TestIsomorphism:
    def test_respects_marks(self):
        # 4-cycle with doubled edge: mark on the doubled pair vs opposite it
        a = Multigraph(4, ((0, 1), (0, 1), (0, 2), (2, 3), (1, 3)), distinguished=0)
        b = Multigraph(4, ((0, 1), (0, 2), (2, 3), (2, 3), (1, 3)), distinguished=0)
        assert is_isomorphic(a, b, use_distinguished=False)
        assert not is_isomorphic(a, b, use_distinguished=True)

    def test_permutation_invariance(self):
        g = catalog.k4_minus_edge()
        h = permute_edges(g, (4, 3, 2, 1, 0))
        assert is_isomorphic(g, h)

    def test_loop_vs_parallel_distinguished(self):
        a = Multigraph(2, ((0, 0), (0, 1)))
        b = Multigraph(2, ((0, 1), (0, 1)))
        assert not is_isomorphic(a, b)


def _census(max_edges: int) -> list[Multigraph]:
    return [g for d in range(max_edges + 1) for g in enumerate_connected_sp(d)]


def _children(g: Multigraph) -> list[Multigraph]:
    """Every one-operation child of g, isomorphic repeats included."""
    out = [op(g, v) for op in (add_loop, add_leaf) for v in range(g.n)]
    return out + [op(g, i) for op in (duplicate_edge, subdivide_edge) for i in range(g.e)]


def _marked_versions(g: Multigraph) -> list[Multigraph]:
    return [
        g.with_distinguished(i)
        for i, (u, v) in enumerate(g.edges)
        if u != v and not _is_bridge(g, i)
    ]


def _relabel(g: Multigraph, vmap, order) -> Multigraph:
    """g with vertex v renamed vmap[v] and new edge j the old edge order[j]."""
    edges = tuple((vmap[g.edges[o][0]], vmap[g.edges[o][1]]) for o in order)
    d = None if g.distinguished is None else order.index(g.distinguished)
    return Multigraph(g.n, edges, d)


def _assert_matches_oracle(graphs, use_distinguished):
    certs = [canonical_form(g, use_distinguished) for g in graphs]
    for i, j in combinations(range(len(graphs)), 2):
        a, b = graphs[i], graphs[j]
        want = backtrack_isomorphic(a, b, use_distinguished=use_distinguished)
        assert (certs[i] == certs[j]) == want, (a, b)


REGULAR_GRAPHS = [
    Multigraph(6, ((1, 2), (0, 1), (3, 4), (3, 5), (0, 2), (1, 3), (0, 5), (1, 2), (0, 5),
                   (2, 4), (3, 4), (4, 5))),
    Multigraph(8, ((1, 6), (0, 1), (6, 7), (4, 6), (4, 5), (2, 5), (2, 4), (1, 2), (0, 7),
                   (3, 7), (0, 3), (3, 5))),
]


def _cube() -> Multigraph:
    return Multigraph(8, tuple((u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b))


class TestCanonicalForm:
    """The certificate against the backtracking oracle in ``iso_oracle``."""

    def test_sp_census_pairs(self):
        _assert_matches_oracle(_census(5), False)

    def test_all_connected_census_pairs(self):
        from spcube.verify import _all_connected_multigraphs

        graphs = [g for d in range(7) for g in _all_connected_multigraphs(d)]
        assert sum(not is_series_parallel(g) for g in graphs) == 1  # K4
        _assert_matches_oracle(graphs, False)

    def test_census_children_pairs(self):
        # the unreduced candidates of each level: many isomorphic pairs
        for d in range(5):
            kids = [h for g in enumerate_connected_sp(d) for h in _children(g)]
            _assert_matches_oracle(kids, False)

    @pytest.mark.parametrize("use_distinguished", [True, False])
    def test_marked_term_graph_pairs(self, use_distinguished):
        from spcube.verify import _redundant_terms

        for d in range(1, 6):
            graphs = [to_marked_graph(t) for t in _redundant_terms(d)]
            _assert_matches_oracle(graphs, use_distinguished)

    @pytest.mark.parametrize("use_distinguished", [True, False])
    def test_marked_census_pairs(self, use_distinguished):
        for d in range(1, 6):
            graphs = [h for g in enumerate_connected_sp(d) for h in _marked_versions(g)]
            _assert_matches_oracle(graphs, use_distinguished)

    @pytest.mark.parametrize("g", REGULAR_GRAPHS)
    def test_cells_that_are_not_orbits(self, g):
        # regular graphs that are not vertex-transitive: refinement leaves
        # one cell, and the choice of branch vertex matters
        rng = random.Random(2014)
        cert = canonical_form(g)
        for _ in range(30):
            h = _relabel(g, rng.sample(range(g.n), g.n), rng.sample(range(g.e), g.e))
            assert canonical_form(h) == cert

    def test_regular_graph_pairs(self):
        _assert_matches_oracle(REGULAR_GRAPHS + [catalog.k4_minus_edge(), _cube()], False)

    def test_marked_vs_unmarked(self):
        a = Multigraph(2, ((0, 1), (0, 1)), distinguished=0)
        b = Multigraph(2, ((0, 1), (0, 1)))
        assert canonical_form(a, marked=True) != canonical_form(b, marked=True)
        assert canonical_form(a) == canonical_form(b)
        assert not is_isomorphic(a, b)
        assert is_isomorphic(a, b, use_distinguished=False)

    def test_is_the_graph_relabelled(self):
        g = catalog.k4_minus_edge()
        n, edges, ends = canonical_form(g.with_distinguished(4), marked=True)
        assert n == g.n and len(edges) == g.e and len(ends) == 2
        assert is_isomorphic(Multigraph(n, edges), g, use_distinguished=False)

    def test_empty_and_single_vertex(self):
        assert canonical_form(Multigraph(0, ())) == (0, (), ())
        assert canonical_form(Multigraph(1, ((0, 0),))) == (1, ((0, 0),), ())

    def test_least_twins(self):
        star = Multigraph(4, ((0, 1), (0, 2), (0, 3)))
        assert least_twins(star) == [0, 1, 1, 1]
        # the two ends of a doubled edge are twins; a loop breaks that
        assert least_twins(Multigraph(2, ((0, 1), (0, 1)))) == [0, 0]
        assert least_twins(Multigraph(2, ((0, 1), (1, 1)))) == [0, 1]
        path = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
        assert least_twins(path) == [0, 1, 2, 3]


_RELABEL_POOL = _census(6) + [
    h for d in range(1, 6) for g in enumerate_connected_sp(d) for h in _marked_versions(g)
]


@st.composite
def _relabelled(draw):
    g = draw(st.sampled_from(_RELABEL_POOL))
    vmap = draw(st.permutations(range(g.n)))
    order = draw(st.permutations(range(g.e)))
    return g, _relabel(g, vmap, order)


class TestCanonicalFormProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_relabelled())
    def test_invariant_under_relabelling(self, pair):
        g, h = pair
        assert canonical_form(g) == canonical_form(h)
        assert canonical_form(g, marked=True) == canonical_form(h, marked=True)
        assert is_isomorphic(g, h)


def _cyclic_garbage(func, args) -> int:
    """Objects that ``func`` over ``args`` leaves for the cyclic collector."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        for a in args:
            func(a)
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


class TestNoCyclicGarbage:
    # a recursive closure keeps its captured state alive in a reference
    # cycle; these routines take their state as arguments instead
    terms = [t for d in range(1, 8) for t in enumerate_terms(d)]

    def test_to_marked_graph(self):
        assert _cyclic_garbage(to_marked_graph, self.terms) == 0

    def test_spanning_trees(self):
        graphs = [to_marked_graph(t) for t in self.terms]
        assert _cyclic_garbage(spanning_trees, graphs) == 0

    def test_canonical_form(self):
        graphs = [to_marked_graph(t) for t in self.terms]
        assert _cyclic_garbage(canonical_form, graphs) == 0
        assert _cyclic_garbage(lambda g: canonical_form(g, marked=True), graphs) == 0

    def test_enumerate_maps(self):
        layers = [(1, 1, 2, 2, False), (1, 1, 3, 2, True), (2, 1, 3, 3, False)]
        assert _cyclic_garbage(lambda args: list(enumerate_maps(*args)), layers) == 0

    def test_redundant_terms(self):
        assert _cyclic_garbage(_redundant_terms, range(1, 7)) == 0

    def test_fresh_term_enumeration(self):
        caches = (spterm._series_norm, spterm._parallel_norm, spterm._all_terms)

        def fresh(d):
            for cache in caches:
                cache.cache_clear()
            return list(enumerate_terms(d))

        assert _cyclic_garbage(fresh, range(1, 8)) == 0


@st.composite
def _multigraphs(draw):
    """Any multigraph on up to 6 vertices: disconnected, loops and parallel
    edges included."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return Multigraph(0, ())
    vertex = st.integers(0, n - 1)
    return Multigraph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=10))))


class TestJson:
    def test_round_trip(self):
        g = catalog.k4_y18()
        assert graph_from_json(graph_to_json(g)) == g

    @pytest.mark.parametrize("marked", [False, True])
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(g=_multigraphs(), data=st.data())
    def test_round_trip_random(self, marked, g, data):
        if marked:
            markable = [i for i, (u, v) in enumerate(g.edges) if u != v and not _is_bridge(g, i)]
            assume(markable)
            g = g.with_distinguished(data.draw(st.sampled_from(markable)))
        text = graph_to_json(g)
        assert graph_from_json(text) == g
        assert graph_to_json(graph_from_json(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            graph_from_json("[1,2,3]")


class TestDerivedGraphsAreValid:
    """Every producer that builds with the unchecked ``Multigraph.derived``
    gives the graph that the checking constructor builds from its fields:
    pairs ordered, ends in range and the mark neither a loop nor a
    bridge."""

    @pytest.mark.parametrize("marked", [False, True])
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(g=_connected_multigraphs(), h=_connected_multigraphs(), data=st.data())
    def test_random_producers(self, marked, g, h, data):
        markable = [i for i, (u, v) in enumerate(g.edges) if u != v and not _is_bridge(g, i)]
        if marked:
            assume(markable)
            g = g.with_distinguished(data.draw(st.sampled_from(markable)))
        made = [op(g, v) for op in (add_loop, add_leaf) for v in range(g.n)]
        made += [
            op(g, i) for op in (duplicate_edge, subdivide_edge) for i in range(g.e)
            if i != g.distinguished
        ]
        made.append(permute_edges(g, tuple(data.draw(st.permutations(range(g.e))))))
        made += [b.graph for b in blocks(g)]
        v, w = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, h.n - 1))
        made.append(one_sum(g, v, h, w))
        if marked:
            made += [two_sum(g, g.with_distinguished(i)) for i in markable]
        for f in made:
            assert f == Multigraph(f.n, f.edges, f.distinguished)

    def test_term_graphs_and_the_all_connected_census(self):
        made = [to_marked_graph(t) for d in range(1, 7) for t in _redundant_terms(d)]
        made += [g for d in range(6) for g in _all_connected_multigraphs(d)]
        for f in made:
            assert f == Multigraph(f.n, f.edges, f.distinguished)


class TestTreeCount:
    """``tree_count`` by the series-parallel reduction, against the
    whole-graph Kirchhoff determinant ``_kirchhoff_count``."""

    def test_matches_enumeration(self):
        for g in (catalog.k4_minus_edge(), catalog.triangle(), catalog.c2()):
            assert tree_count(g) == len(spanning_trees(g))

    def test_k4_cayley(self):
        assert tree_count(catalog.k4_x16()) == 16

    def test_all_connected_multigraphs(self):
        for d in range(7):
            for g in _all_connected_multigraphs(d):
                assert tree_count(g) == _kirchhoff_count(g), g

    def test_census(self):
        for d in range(9):
            for g in enumerate_connected_sp(d):
                assert tree_count(g) == _kirchhoff_count(g), g

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_decorated_k4_cores(self, rng):
        g = _decorated_k4(rng)
        assert tree_count(g) == _kirchhoff_count(g)

    def test_two_cores_joined_by_a_path(self):
        k4 = catalog.k4_x16()
        g = _union(k4, k4)
        assert tree_count(g) == _kirchhoff_count(g) == 0
        assert tree_count(Multigraph(g.n + 1, g.edges + ((3, 8), (8, 4)))) == 16 * 16

    def test_long_path_and_cycle(self):
        n = 10_000
        path = Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))
        assert tree_count(path) == 1
        assert tree_count(Multigraph(n, path.edges + ((0, n - 1),))) == n

    @pytest.mark.parametrize(
        "g", [Multigraph(2, ()), _union(catalog.triangle(), catalog.k4_x16())]
    )
    def test_disconnected_is_zero(self, g):
        assert tree_count(g) == _kirchhoff_count(g) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="tree count of the empty graph is undefined"):
            tree_count(Multigraph(0, ()))

    @pytest.mark.parametrize(
        "g",
        [Multigraph(10**6, ()), Multigraph(10**6, ((0, 1),) * 5)],
        ids=["isolated", "bundle"],
    )
    def test_too_few_edges_decided_before_the_reduction(self, monkeypatch, g):
        # fewer edges than n - 1: no spanning tree, and no per-vertex work
        # to find that out
        def unreduced(*args):
            raise AssertionError("the reduction ran on a graph with too few edges")

        monkeypatch.setattr(multigraph, "_sp_reduce", unreduced)
        assert tree_count(g) == 0
        with pytest.raises(ValueError, match="^spanning trees require a connected graph$"):
            spanning_trees(g)

    def test_core_guard(self, monkeypatch):
        # with the guard at 4, K4 and K4 with pendant and series-parallel
        # parts still count: only the core's vertices are measured
        monkeypatch.setattr(multigraph, "CORE_VERTEX_LIMIT", 4)
        decorated = subdivide_edge(add_leaf(catalog.k4_x16(), 0), 0)
        assert tree_count(decorated) == _kirchhoff_count(decorated)

        def no_det(m):
            raise AssertionError("determinant taken past the core guard")

        # the 5-vertex wheel is all core, and is refused before any matrix
        monkeypatch.setattr(multigraph, "_int_det", no_det)
        wheel = Multigraph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)))
        with pytest.raises(SizeGuardError, match="core of 5 vertices exceeds the tree-count guard 4"):
            tree_count(wheel)


class TestPropertySuites:
    def test_deletion_contraction(self):
        assert check_deletion_contraction(max_edges=6) == []

    def test_tree_weights(self):
        assert check_tree_weights(max_edges=6) == []

    def test_tree_count_routes(self):
        assert check_tree_count_routes(max_edges=6) == []

    def test_sp_closure(self):
        assert check_sp_closure(max_edges=5) == []

    def test_blocks_partition(self):
        assert check_blocks_partition(max_edges=6) == []

    def test_sp_vs_minor(self):
        assert check_sp_vs_minor(max_edges=5) == []

    def test_sp_vs_minor_deep(self):
        assert check_sp_vs_minor(max_edges=6) == []

    @pytest.mark.slow
    def test_deletion_contraction_deep(self):
        assert check_deletion_contraction(max_edges=8) == []
