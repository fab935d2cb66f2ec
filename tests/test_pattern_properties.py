"""Property tests: the mask operators against their string definitions in
``pattern_oracle``, and round trips through the string boundary."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pattern_oracle as oracle
from spcube import (
    CODUP,
    DUP,
    EdgePattern,
    VertexPattern,
    dual_pattern,
    duplicate_e,
    duplicate_v,
    edge_pattern_from_pattern_graph,
    enumerate_terms,
    format_pattern,
    format_string,
    h_graph,
    layer_strings,
    parse_pattern,
    parse_string,
    pattern_graph_from_edge_pattern,
    phi,
    product_join,
    psi,
    starred_layer_strings,
    to_marked_graph,
)
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
