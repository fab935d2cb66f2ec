import pytest

from spcube import (
    CODUP,
    DUP,
    EdgePattern,
    VertexPattern,
    duplicate_e,
    duplicate_v,
    x_pattern,
    y_pattern,
)
from spcube import catalog
from spcube.multigraph import duplicate_edge, subdivide_edge
from spcube.verify import (
    check_core_correspondence_census,
    check_core_correspondence_terms,
    check_operator_laws,
)

X_C2 = VertexPattern(1, 1, frozenset({"01", "10"}))


class TestVertexOperators:
    def test_duplication_gives_triple_edge_pattern(self):
        got = duplicate_v(X_C2, 1, DUP)
        assert got == x_pattern(catalog.parallel_edges(3))
        assert got.strings == {"001", "010", "100"}

    def test_coduplication_gives_triangle_pattern(self):
        got = duplicate_v(X_C2, 1, CODUP)
        assert got == x_pattern(subdivide_edge(catalog.c2(), 1))
        assert got.strings == {"011", "101", "110"}

    def test_empty(self):
        empty = VertexPattern(1, 1, frozenset())
        assert duplicate_v(empty, 0, DUP).strings == frozenset()

    def test_range_checked(self):
        with pytest.raises(ValueError):
            duplicate_v(X_C2, 2, DUP)
        with pytest.raises(ValueError):
            duplicate_v(VertexPattern(0, 0, frozenset({""})), 0, DUP)

    def test_layers(self):
        assert (duplicate_v(X_C2, 0, DUP).a, duplicate_v(X_C2, 0, DUP).b) == (2, 1)
        assert (duplicate_v(X_C2, 0, CODUP).a, duplicate_v(X_C2, 0, CODUP).b) == (1, 2)


class TestEdgeOperators:
    def test_duplication_matches_graph_op(self):
        tri = catalog.partite_graph((1, 1))  # marked triangle, mark last
        y = y_pattern(tri)
        for i in (0, 1):
            got = duplicate_e(y, i, DUP)
            want = y_pattern(duplicate_edge(tri, i))
            assert got == want

    def test_coduplication_from_c2(self):
        y_c2 = EdgePattern(0, 0, frozenset({"*"}))
        got = duplicate_e(y_c2, 0, CODUP)
        assert got.strings == {"1*", "*1"}
        tri = subdivide_edge(catalog.c2_marked(), 1)
        assert got == y_pattern(tri, 0)

    def test_star_splits(self):
        y = EdgePattern(1, 1, frozenset({"01*"}))
        assert duplicate_e(y, 2, DUP).strings == {"010*", "01*0"}
        assert duplicate_e(y, 2, CODUP).strings == {"011*", "01*1"}

    def test_empty(self):
        empty = EdgePattern(1, 1, frozenset())
        assert duplicate_e(empty, 0, DUP).strings == frozenset()


class TestCorrespondence:
    def test_terms(self):
        assert check_core_correspondence_terms(max_d=6) == []

    def test_census(self):
        assert check_core_correspondence_census(max_edges=5) == []

    def test_census_deep(self):
        assert check_core_correspondence_census(max_edges=6) == []

    def test_laws(self):
        assert check_operator_laws() == []
