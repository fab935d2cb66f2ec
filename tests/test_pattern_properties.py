"""Property tests: the mask operators against their string definitions in
``pattern_oracle``, round trips through the string boundary, and the
validity of everything built by the unchecked mask constructors."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pattern_oracle as oracle
from spcube import (
    CODUP,
    DUP,
    EdgePattern,
    Multigraph,
    PatternGraph,
    VertexPattern,
    alon_pattern,
    dual_pattern,
    duplicate_e,
    duplicate_v,
    edge_pattern_from_pattern_graph,
    enumerate_terms,
    f2_edge_set,
    f2_vertex_set,
    format_pattern,
    format_string,
    h_graph,
    layer_strings,
    parse_pattern,
    parse_string,
    partite_pattern,
    pattern_graph_from_edge_pattern,
    phi,
    product_join,
    psi,
    starred_layer_strings,
    to_marked_graph,
    x16_pattern,
    x_pattern,
    y18_pattern,
    y_pattern,
)
from spcube.multigraph import check_marked_edge
from spcube.patterns import pg_from_json, pg_is_connected, pg_to_json

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def vertex_patterns(draw, min_a: int = 0, min_b: int = 0) -> VertexPattern:
    a = draw(st.integers(min_a, 4))
    b = draw(st.integers(min_b, 4))
    pool = layer_strings(a, b)
    return VertexPattern(a, b, draw(st.sets(st.sampled_from(pool), max_size=len(pool))))


@st.composite
def edge_patterns(draw, min_size: int = 0) -> EdgePattern:
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0, 3))
    pool = starred_layer_strings(a, b)
    strings = draw(st.sets(st.sampled_from(pool), min_size=min_size, max_size=len(pool)))
    return EdgePattern(a, b, strings)


def _width(p) -> int:
    return p.a + p.b + isinstance(p, EdgePattern)


class TestOperatorsAgainstStrings:
    @PROPERTY
    @given(vertex_patterns())
    def test_duplicate_v(self, x):
        for i in range(_width(x)):
            for kind in (DUP, CODUP):
                assert duplicate_v(x, i, kind) == oracle.duplicate_v_reference(x, i, kind)

    @PROPERTY
    @given(edge_patterns())
    def test_duplicate_e_every_coordinate_and_the_star(self, y):
        for i in range(_width(y)):
            for kind in (DUP, CODUP):
                assert duplicate_e(y, i, kind) == oracle.duplicate_e_reference(y, i, kind)

    @PROPERTY
    @given(vertex_patterns() | edge_patterns())
    def test_dual(self, p):
        assert dual_pattern(p) == oracle.dual_reference(p)

    @PROPERTY
    @given(edge_patterns())
    def test_phi(self, y):
        assert phi(y) == oracle.phi_reference(y)

    @PROPERTY
    @given(vertex_patterns(min_a=1, min_b=1))
    def test_psi(self, x):
        for i in range(_width(x)):
            assert psi(x, i) == oracle.psi_reference(x, i)


class TestPatternGraphsAgainstStrings:
    @PROPERTY
    @given(edge_patterns(min_size=1))
    def test_edge_pattern_maps(self, y):
        h = pattern_graph_from_edge_pattern(y)
        assert h == oracle.pattern_graph_reference(y)
        assert edge_pattern_from_pattern_graph(h) == oracle.edge_pattern_reference(h) == y

    # pattern graphs of 2-connected marked graphs are connected
    TERMS = [t for d in range(1, 6) for t in enumerate_terms(d)]

    @PROPERTY
    @given(st.sampled_from(TERMS), st.sampled_from(TERMS))
    def test_product_join(self, t1, t2):
        h1, h2 = h_graph(to_marked_graph(t1), 0), h_graph(to_marked_graph(t2), 0)
        assert product_join(h1, h2) == oracle.product_join_reference(h1, h2)


class TestStringBoundary:
    @PROPERTY
    @given(vertex_patterns() | edge_patterns())
    def test_pattern_file_round_trip(self, p):
        text = format_pattern(p)
        assert parse_pattern(text) == p
        assert format_pattern(parse_pattern(text)) == text

    @PROPERTY
    @given(edge_patterns(min_size=1))
    def test_pattern_graph_json_round_trip(self, y):
        h = pattern_graph_from_edge_pattern(y)
        assert pg_from_json(pg_to_json(h)) == h
        if pg_is_connected(h):
            joined = product_join(h, h)
            assert pg_from_json(pg_to_json(joined)) == joined

    @PROPERTY
    @given(vertex_patterns() | edge_patterns())
    def test_element_strings(self, p):
        starred = isinstance(p, EdgePattern)
        for s in p.strings:
            assert format_string(parse_string(s, _width(p), starred), _width(p)) == s


def _assert_valid(p) -> None:
    """The invariants the string constructors check, on an object that a
    mask constructor built without checking."""
    if isinstance(p, PatternGraph):
        for part in (p.lower, p.upper):  # strictly increasing masks
            assert all(m < n for m, n in zip(part, part[1:]))
            assert all(0 <= m < 1 << p.width for m in part)
        weights = {m.bit_count() for m in p.lower}
        assert len(weights) <= 1  # the lower part is one layer
        assert all(m.bit_count() == w + 1 for w in weights for m in p.upper)
        low = len(p.lower)
        assert all(e < f for e, f in zip(p.edges, p.edges[1:]))  # canonical order
        for x, y in p.edges:  # lower vertices first, then upper ones
            assert 0 <= x < low <= y < low + len(p.upper)
            lo, hi = p.lower[x], p.upper[y - low]
            assert lo & ~hi == 0 and (hi ^ lo).bit_count() == 1  # upward Hamming-1
        return
    assert p.a >= 0 and p.b >= 0
    if isinstance(p, VertexPattern):
        assert all(0 <= m < 1 << (p.a + p.b) and m.bit_count() == p.b for m in p.masks)
        return
    n = p.a + p.b + 1
    for lower, star in p.pairs:
        assert 0 <= star < n and 0 <= lower < 1 << n
        assert not lower >> star & 1 and lower.bit_count() == p.b


@st.composite
def connected_multigraphs(draw) -> Multigraph:
    """A path through n vertices, then extra edges (loops and parallel
    edges too), in a drawn order."""
    n = draw(st.integers(1, 4))
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(v, v + 1) for v in range(n - 1)] + draw(st.lists(extra, max_size=4))
    return Multigraph(n, tuple(draw(st.permutations(edges))))


class TestMaskConstructorsBuildValidObjects:
    @PROPERTY
    @given(vertex_patterns() | edge_patterns())
    def test_duplication_and_dual(self, p):
        _assert_valid(dual_pattern(p))
        dup = duplicate_v if isinstance(p, VertexPattern) else duplicate_e
        for i in range(_width(p)):
            for kind in (DUP, CODUP):
                _assert_valid(dup(p, i, kind))

    @PROPERTY
    @given(edge_patterns())
    def test_phi_and_pattern_graphs(self, y):
        _assert_valid(phi(y))
        h = pattern_graph_from_edge_pattern(y)
        _assert_valid(h)
        if y.pairs:
            _assert_valid(edge_pattern_from_pattern_graph(h))

    @PROPERTY
    @given(vertex_patterns(min_a=1, min_b=1))
    def test_psi(self, x):
        for i in range(_width(x)):
            _assert_valid(psi(x, i))

    @PROPERTY
    @given(connected_multigraphs())
    def test_tree_patterns(self, g):
        _assert_valid(x_pattern(g))
        for i in range(g.e):
            try:
                check_marked_edge(g, i)
            except ValueError:
                continue  # a loop or a bridge: Y and H are undefined
            _assert_valid(y_pattern(g, i))
            _assert_valid(h_graph(g, i))

    @PROPERTY
    @given(
        st.sampled_from(TestPatternGraphsAgainstStrings.TERMS),
        st.sampled_from(TestPatternGraphsAgainstStrings.TERMS),
    )
    def test_product_join(self, t1, t2):
        h1, h2 = h_graph(to_marked_graph(t1), 0), h_graph(to_marked_graph(t2), 0)
        _assert_valid(product_join(h1, h2))

    @PROPERTY
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_named_families(self, sizes):
        _assert_valid(alon_pattern(tuple(sizes)))
        _assert_valid(partite_pattern(tuple(sizes)))

    def test_fixed_named_patterns(self):
        _assert_valid(x16_pattern())
        _assert_valid(y18_pattern())

    @PROPERTY
    @given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 2**128 - 1))
    def test_f2_sets(self, a, b, seed):
        _assert_valid(f2_vertex_set(a, b, seed))
        _assert_valid(f2_edge_set(a, b, seed))
