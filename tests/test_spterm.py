import pytest

from spcube import (
    EDGE,
    Multigraph,
    canonical,
    canonical_key,
    dual,
    edge_count,
    enumerate_connected_sp,
    enumerate_terms,
    format_term,
    is_isomorphic,
    is_series_parallel,
    parallel,
    parse_term,
    series,
    spanning_trees,
    tf_counts,
    to_marked_graph,
)
from spcube import catalog
from spcube.spterm import _norm, compose_canonical, reverse_term
from spcube.verify import (
    check_census_small_counts,
    check_dual_tf,
    check_marked_graphs_valid,
    check_term_enumeration,
    check_tf_oracle,
)


class TestConstruction:
    def test_flattening(self):
        t = series(series(EDGE, EDGE), EDGE)
        assert t == series(EDGE, EDGE, EDGE)
        assert parallel(parallel(EDGE, EDGE), EDGE) == parallel(EDGE, EDGE, EDGE)

    def test_single_child_collapses(self):
        assert series(EDGE) == EDGE

    def test_direct_nesting_rejected(self):
        from spcube.spterm import SpTerm

        with pytest.raises(ValueError):
            SpTerm("S", (SpTerm("S", (EDGE, EDGE)), EDGE))


class TestMarkedGraph:
    def test_edge_gives_c2(self):
        g = to_marked_graph(EDGE)
        assert is_isomorphic(g, catalog.c2_marked(), use_distinguished=True)

    def test_series_gives_triangle(self):
        g = to_marked_graph(series(EDGE, EDGE))
        assert g.n == 3 and g.e == 3 and g.distinguished == 0

    def test_parallel_gives_triple_edge(self):
        g = to_marked_graph(parallel(EDGE, EDGE))
        assert g.edges == ((0, 1),) * 3

    def test_distinguished_first_then_leaf_order(self):
        t = series(EDGE, parallel(EDGE, EDGE))
        g = to_marked_graph(t)
        assert g.distinguished == 0
        assert g.edges[0] == (0, 1)
        assert g.e == 1 + edge_count(t)

    def test_always_two_connected_and_sp(self):
        assert check_marked_graphs_valid(max_d=6) == []


class TestDual:
    def test_edge_self_dual(self):
        assert dual(EDGE) == EDGE

    def test_series_to_parallel(self):
        assert dual(series(EDGE, EDGE)) == parallel(EDGE, EDGE)

    def test_involution_and_tf_swap(self):
        assert check_dual_tf(max_d=6) == []


class TestCanonical:
    def test_parallel_children_unordered(self):
        t1 = parallel(EDGE, series(EDGE, EDGE))
        t2 = parallel(series(EDGE, EDGE), EDGE)
        assert canonical_key(t1) == canonical_key(t2)

    def test_terminal_swap_merges(self):
        t1 = series(EDGE, parallel(EDGE, EDGE))
        t2 = series(parallel(EDGE, EDGE), EDGE)
        assert canonical_key(t1) == canonical_key(t2)

    def test_series_vs_parallel_distinct(self):
        assert canonical_key(series(EDGE, EDGE)) != canonical_key(parallel(EDGE, EDGE))

    def test_inner_series_reversal_is_not_equivalence(self):
        # flipping an inner chain changes the marked graph
        t1 = series(EDGE, parallel(EDGE, series(EDGE, parallel(EDGE, EDGE))))
        t2 = series(EDGE, parallel(EDGE, series(parallel(EDGE, EDGE), EDGE)))
        assert canonical_key(t1) != canonical_key(t2)
        assert not is_isomorphic(
            to_marked_graph(t1), to_marked_graph(t2), use_distinguished=True
        )

    def test_reverse_is_involution(self):
        for d in range(1, 6):
            for t in enumerate_terms(d):
                assert reverse_term(reverse_term(t)) == t


class TestComposeCanonical:
    def test_matches_canonicalizing(self):
        pairs = {
            d: [(c, _norm(reverse_term(c))) for c in enumerate_terms(d)]
            for d in range(1, 9)
        }
        for d1 in range(1, 9):
            for d2 in range(1, 10 - d1):
                for p1 in pairs[d1]:
                    for p2 in pairs[d2]:
                        for kind, build in (("S", series), ("P", parallel)):
                            c, r = compose_canonical(kind, p1, p2)
                            assert c == canonical(build(p1[0], p2[0]))
                            assert r == _norm(reverse_term(c))


class TestParser:
    def test_round_trip(self):
        for d in range(1, 6):
            for t in enumerate_terms(d):
                assert parse_term(format_term(t)) == t

    def test_examples(self):
        assert parse_term("e") == EDGE
        assert parse_term("S(e,P(e,e))") == series(EDGE, parallel(EDGE, EDGE))

    def test_rejects_trailing(self):
        with pytest.raises(ValueError):
            parse_term("e,e")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_term("S(e")


class TestEnumeration:
    def test_counts_small(self):
        assert len(list(enumerate_terms(1))) == 1
        assert len(list(enumerate_terms(2))) == 2
        assert len(list(enumerate_terms(3))) == 4

    def test_matches_isomorphism_oracle(self):
        assert check_term_enumeration(max_d=5) == []

    @pytest.mark.slow
    def test_matches_isomorphism_oracle_deep(self):
        assert check_term_enumeration(max_d=7) == []

    def test_sorted_and_canonical(self):
        for d in range(1, 7):
            keys = [canonical_key(t) for t in enumerate_terms(d)]
            assert keys == sorted(keys)
            assert all(format_term(t) == canonical_key(t) for t in enumerate_terms(d))


class TestTfCounts:
    def test_edge(self):
        assert tf_counts(EDGE) == (1, 1)

    def test_parallel_pair(self):
        t = parallel(EDGE, EDGE)
        assert tf_counts(t) == (2, 1)
        assert len(spanning_trees(to_marked_graph(t))) == 3

    def test_series_pair(self):
        t = series(EDGE, EDGE)
        assert tf_counts(t) == (1, 2)
        assert len(spanning_trees(to_marked_graph(t))) == 3

    def test_oracle_equivalence(self):
        assert check_tf_oracle(max_d=7) == []

    @pytest.mark.slow
    def test_oracle_equivalence_deep(self):
        assert check_tf_oracle(max_d=10) == []


class TestCensus:
    def test_d0(self):
        assert enumerate_connected_sp(0) == [Multigraph(1, ())]

    def test_d1(self):
        got = enumerate_connected_sp(1)
        assert len(got) == 2  # single edge, single loop

    def test_d2_oracle_count(self):
        # brute-force isomorphism dedup gives exactly four 2-edge graphs:
        # two loops, loop+edge, the 2-cycle, and the 3-vertex path
        got = enumerate_connected_sp(2)
        assert len(got) == 4
        assert check_census_small_counts() == []

    def test_all_connected_and_sp(self):
        for d in range(5):
            for g in enumerate_connected_sp(d):
                assert g.is_connected()
                assert is_series_parallel(g)

    def test_deterministic(self):
        assert enumerate_connected_sp(3) == enumerate_connected_sp(3)

    def test_pairwise_distinct(self):
        gs = enumerate_connected_sp(4)
        for i, a in enumerate(gs):
            for b in gs[i + 1 :]:
                assert not is_isomorphic(a, b)
