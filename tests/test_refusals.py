"""The library's refusals at its public boundary: the call, the exception
it raises and its message, one row each."""

import pytest

from spcube import catalog, constructions, embeddings, multigraph, operators, patterns, search, spterm
from spcube.errors import SizeGuardError
from spcube.multigraph import Multigraph
from spcube.patterns import EdgePattern, PatternGraph, VertexPattern
from spcube.spterm import EDGE, SpTerm, parse_term
from spcube.verify import _kirchhoff_count

_XC2 = VertexPattern(1, 1, {"01", "10"})
_DOUBLE = Multigraph(2, [(0, 1), (0, 1)])

_REFUSALS = {
    # L(1, 69) has 70 strings, at EX_LAYER_LIMIT, but 70!/59! maps of L(1, 10)
    # into it, in orbits of 10!: the pattern's ten 1s are interchangeable
    "ex_layer-maps": (
        lambda: embeddings.ex_layer(1, 69, VertexPattern(1, 10, {"0" + "1" * 10})),
        SizeGuardError,
        "23802271452960 embedding maps per orbit exceed the guard 1000000",
    ),
    "ex_cube-empty": (
        lambda: embeddings.ex_cube(2, VertexPattern(1, 1)),
        ValueError,
        "the empty pattern embeds in every set; ex is undefined",
    ),
    "count_maps-smaller-target": (
        lambda: embeddings.count_maps(2, 2, 1, 3),
        ValueError,
        "target layer must dominate the source layer",
    ),
    "enumerate_maps-smaller-target": (
        lambda: next(embeddings.enumerate_maps(2, 2, 1, 3)),
        ValueError,
        "target layer must dominate the source layer",
    ),
    "density_t-kinds": (
        lambda: embeddings.density_t(_XC2, EdgePattern(0, 0, {"*"})),
        ValueError,
        "patterns must be of the same kind",
    ),
    "contains-kinds": (
        lambda: embeddings.contains_pattern(EdgePattern(0, 0, {"*"}), _XC2),
        ValueError,
        "set and pattern kinds differ",
    ),
    "contains-cube-lengths": (
        lambda: embeddings.contains_pattern({"01", "011"}, _XC2),
        ValueError,
        "cube-mode set must have strings of uniform length",
    ),
    "parse_term-open": (lambda: parse_term("S("), ValueError, "unexpected end of term"),
    "parse_term-no-paren": (lambda: parse_term("Se"), ValueError, "expected '(' after 'S' at position 0"),
    "parse_term-empty-node": (lambda: parse_term("S()"), ValueError, "unexpected character ')' at position 2"),
    "parse_term-separator": (lambda: parse_term("S(e;e)"), ValueError, "unexpected character ';' at position 3"),
    "parse_term-kind": (lambda: parse_term("Q(e)"), ValueError, "unexpected character 'Q' at position 0"),
    "parse_term-trailing": (lambda: parse_term("e,e"), ValueError, "trailing input at position 1: ',e'"),
    "parse_term-deep": (lambda: parse_term("S(" * 5000), ValueError, "term is nested too deeply"),
    "SpTerm-edge-children": (lambda: SpTerm("e", (EDGE,)), ValueError, "an edge has no children"),
    "SpTerm-one-child": (
        lambda: SpTerm("S", (EDGE,)),
        ValueError,
        "series/parallel nodes need at least 2 children",
    ),
    "SpTerm-kind": (lambda: SpTerm("Q", ()), ValueError, "unknown term kind 'Q'"),
    "SpTerm-unflattened": (
        lambda: SpTerm("S", (spterm.series(EDGE, EDGE), EDGE)),
        ValueError,
        "term is not flattened",
    ),
    "series-empty": (lambda: spterm.series(), ValueError, "series/parallel nodes need at least 2 children"),
    "parallel-empty": (lambda: spterm.parallel(), ValueError, "series/parallel nodes need at least 2 children"),
    "random_vectors-dim": (
        lambda: constructions.random_vectors(1, 65, 1),
        ValueError,
        "dimension must be between 1 and 64",
    ),
    "f2_vertex_set-negative": (
        lambda: constructions.f2_vertex_set(-1, 2, 1),
        ValueError,
        "layer parameters must be nonnegative",
    ),
    "f2_vertex_set_from_vectors-count": (
        lambda: constructions.f2_vertex_set_from_vectors(2, 2, [1]),
        ValueError,
        "need 4 vectors, got 1",
    ),
    "f2_vertex_set-b": (lambda: constructions.f2_vertex_set(2, 0, 1), ValueError, "b must be at least 1"),
    "f2_vertex_count-b": (lambda: constructions.f2_vertex_count(2, 0, 1), ValueError, "b must be at least 1"),
    "f2_edge_set_from_vectors-count": (
        lambda: constructions.f2_edge_set_from_vectors(1, 1, [1]),
        ValueError,
        "need 4 vectors, got 1",
    ),
    "f2_edge_set-b": (lambda: constructions.f2_edge_set(1, 0, 1), ValueError, "b must be at least 1"),
    "density_lower_bound-b": (lambda: constructions.density_lower_bound(0), ValueError, "b must be at least 1"),
    "VertexPattern-negative": (
        lambda: VertexPattern(-1, 1),
        ValueError,
        "layer parameters must be nonnegative",
    ),
    "PatternGraph-outside": (
        lambda: PatternGraph(["00"], ["01"], [("00", "11")]),
        ValueError,
        "edge (00,11) has an endpoint outside the parts",
    ),
    "PatternGraph-not-hamming-1": (
        lambda: PatternGraph(["01"], ["10"], [("01", "10")]),
        ValueError,
        "'01'/'10' is not an upward Hamming-1 pair",
    ),
    "PatternGraph-two-layers": (
        lambda: PatternGraph(["00", "11"], [], []),
        ValueError,
        "each part must sit in a single layer",
    ),
    "PatternGraph-layer-gap": (
        lambda: PatternGraph(["00"], ["11"], []),
        ValueError,
        "upper part must sit one layer above the lower part",
    ),
    "y_pattern-unmarked": (
        lambda: patterns.y_pattern(_DOUBLE),
        ValueError,
        "no edge index given and the graph is unmarked",
    ),
    "psi-no-zero": (
        lambda: patterns.psi(VertexPattern(0, 2, {"11"}), 0),
        ValueError,
        "psi needs at least one zero and one one per string",
    ),
    "edge_pattern_from_pattern_graph-empty": (
        lambda: patterns.edge_pattern_from_pattern_graph(PatternGraph(["0"], ["1"], [])),
        ValueError,
        "pattern graph has no edges",
    ),
    "Multigraph-negative": (lambda: Multigraph(-1, []), ValueError, "vertex count must be nonnegative"),
    "check_marked_edge-range": (
        lambda: multigraph.check_marked_edge(_DOUBLE, 2),
        ValueError,
        "distinguished edge index 2 out of range",
    ),
    "add_leaf-vertex": (lambda: multigraph.add_leaf(_DOUBLE, 2), ValueError, "vertex 2 out of range"),
    "one_sum-marked-second": (
        lambda: multigraph.one_sum(_DOUBLE, 0, Multigraph(2, [(0, 1), (0, 1)], 0), 0),
        ValueError,
        "one_sum keeps only the first graph's marking",
    ),
    "permute_edges-order": (
        lambda: multigraph.permute_edges(_DOUBLE, (0, 0)),
        ValueError,
        "order must be a permutation of the edge indices",
    ),
    "duplicate_v-kind": (
        lambda: operators.duplicate_v(_XC2, 0, "X"),
        ValueError,
        "kind must be 'D' or \"D'\"",
    ),
    "max_spanning_trees-mode": (lambda: search.max_spanning_trees(3, "bogus"), ValueError, "unknown mode 'bogus'"),
    "m_value-d": (lambda: search.m_value(0), ValueError, "d must be at least 1"),
    "m_table-method": (lambda: search.m_table(3, "bogus"), ValueError, "unknown method 'bogus'"),
    "fib_chain-negative": (lambda: catalog.fib_chain(-1), ValueError, "d must be nonnegative"),
}


@pytest.mark.parametrize("call, exception, message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_refused_before_work(monkeypatch, call, exception, message):
    def listed(*args):
        raise AssertionError("a layer was listed before the refusal")

    # every refusal comes before any layer is listed
    monkeypatch.setattr(embeddings, "layer_masks", listed)
    monkeypatch.setattr(embeddings, "starred_layer_masks", listed)
    with pytest.raises(exception) as info:
        call()
    assert str(info.value) == message


def test_kirchhoff_count_of_a_disconnected_graph():
    # vertex 1 is isolated: the Laplacian minor's first column is zero, so
    # the elimination finds no pivot for it and the determinant is 0
    g = Multigraph(3, [(0, 2)])
    assert _kirchhoff_count(g) == multigraph.tree_count(g) == 0
