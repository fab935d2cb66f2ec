import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from spcube import (
    EDGE,
    Multigraph,
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
    tree_bitsets,
    tree_count,
    tree_sets,
)
from spcube import catalog, search, spterm
from spcube.multigraph import (
    add_leaf,
    add_loop,
    canonical_form,
    contract,
    delete_edge,
    duplicate_edge,
    subdivide_edge,
)
from spcube.patterns import _split
from spcube.spterm import (
    GraphDedup,
    SpTerm,
    _nodes,
    _norm,
    _norm_terms,
    _reversed_key,
    canonical,
    reverse_term,
)
from spcube.verify import (
    _term_counts,
    check_census_small_counts,
    check_dual_tf,
    check_marked_graphs_valid,
    check_term_counts,
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
        with pytest.raises(ValueError):
            SpTerm("S", (SpTerm("S", (EDGE, EDGE)), EDGE))


def _rebuilt(t: SpTerm) -> SpTerm:
    """t with every node rebuilt by the checking constructor."""
    return SpTerm(t.kind, tuple(_rebuilt(c) for c in t.children))


def _assert_passes_the_checks(t: SpTerm) -> None:
    r = _rebuilt(t)
    assert r == t and r.key == t.key and hash(r) == hash(t), t.key


class TestDerivedTerms:
    """Every term built by ``SpTerm.derived`` is one the checking
    constructor accepts, equal to it with the same key and hash."""

    def test_normalized_enumeration(self):
        for d in range(1, 9):
            for t in _norm_terms(d):
                _assert_passes_the_checks(t)

    def test_derivations(self):
        terms = [t for d in range(1, 8) for t in enumerate_terms(d)]
        small = [t for d in range(1, 4) for t in enumerate_terms(d)]
        for t in terms:
            for derived in (dual(t), reverse_term(t), canonical(t), _norm(reverse_term(t))):
                _assert_passes_the_checks(derived)
            for u in small:
                for derived in (series(t, u), series(u, t), parallel(t, u), parallel(u, t)):
                    _assert_passes_the_checks(derived)

    def test_dp_witnesses(self):
        # the DP builds its witnesses and their reversals by series and
        # by merging normalized parallel parts
        frontiers, built = [{}], {}
        search._dp_frontiers(frontiers, search.M_TABLE_LIMIT)
        for d, frontier in enumerate(frontiers):
            for trip in frontier:
                witness, reversal = search._witness(frontiers, built, d, trip)
                _assert_passes_the_checks(witness)
                _assert_passes_the_checks(reversal)


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


@st.composite
def _terms(draw, edges):
    """A term with the given number of edges, from a random binary
    series/parallel split (flattening makes every term reachable)."""
    if edges == 1:
        return EDGE
    left = draw(st.integers(1, edges - 1))
    build = draw(st.sampled_from([series, parallel]))
    return build(draw(_terms(left)), draw(_terms(edges - left)))


class TestParser:
    def test_round_trip(self):
        for d in range(1, 6):
            for t in enumerate_terms(d):
                assert parse_term(format_term(t)) == t

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 24).flatmap(_terms))
    def test_round_trip_random_terms(self, t):
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

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_term("S(" * 5000 + "e" + ")" * 5000)


class TestEnumeration:
    def test_counts_small(self):
        assert len(list(enumerate_terms(1))) == 1
        assert len(list(enumerate_terms(2))) == 2
        assert len(list(enumerate_terms(3))) == 4

    def test_matches_isomorphism_oracle(self):
        assert check_term_enumeration(max_d=5) == []

    def test_matches_isomorphism_oracle_deep(self):
        assert check_term_enumeration(max_d=7) == []

    def test_closed_form_counts(self):
        assert _term_counts(12)[1:] == TERM_COUNTS
        assert check_term_counts(max_d=9) == []

    @pytest.mark.slow
    def test_closed_form_counts_at_the_guard(self):
        assert check_term_counts(max_d=search.M_TERMS_LIMIT) == []

    @pytest.mark.slow
    def test_keys_pinned_at_the_guard(self):
        assert max(GUARD_TERM_KEYS_SHA256) == search.M_TERMS_LIMIT
        for d, want in GUARD_TERM_KEYS_SHA256.items():
            text = "\n".join(t.key for t in enumerate_terms(d))
            assert hashlib.sha256(text.encode()).hexdigest() == want, d

    def test_closed_form_counts_catch_a_dropped_series_part(self, fresh_enumeration):
        walk = spterm._walk

        def dropping(kind, pool, fits, prefix, start, remaining, out):
            # a finished series node of three or more children loses its last
            if kind == "S" and remaining == 0 and len(prefix) > 2:
                out.append(SpTerm.derived("S", tuple(prefix[:-1])))
            else:
                walk(kind, pool, fits, prefix, start, remaining, out)

        fresh_enumeration.setattr(spterm, "_walk", dropping)
        assert check_term_counts(max_d=9) != []

    def test_closed_form_counts_catch_a_rule_without_reversal(self, fresh_enumeration):
        fresh_enumeration.setattr(spterm, "_reversed_key", lambda t, memo: t.key)
        bad = check_term_counts(max_d=9)
        assert bad[0] == "d=3: 5 canonical terms, the count gives 4"

    def test_sorted_and_canonical(self):
        for d in range(1, 7):
            keys = [canonical_key(t) for t in enumerate_terms(d)]
            assert keys == sorted(keys)
            assert all(format_term(t) == canonical_key(t) for t in enumerate_terms(d))

    def test_nodes_in_key_order(self):
        # the walk emits key order with no sort, so none is made here either
        for d in range(2, 11):
            for kind in ("P", "S"):
                keys = [t.key for t in _nodes(kind, d)]
                assert all(a < b for a, b in zip(keys, keys[1:])), (kind, d)

    def test_keys_pinned(self):
        for d, want in enumerate(TERM_KEYS_SHA256, start=1):
            text = "\n".join(t.key for t in enumerate_terms(d))
            assert hashlib.sha256(text.encode()).hexdigest() == want, d

    def test_reversed_key_matches_reversal(self):
        for d in range(1, 10):
            memo = {}
            for t in _norm_terms(d):
                assert _reversed_key(t, memo) == _norm(reverse_term(t)).key


@pytest.fixture
def fresh_enumeration(monkeypatch):
    """monkeypatch, with the term enumeration's caches emptied before the
    test and again after it undoes its patches."""
    caches = (spterm._nodes, spterm._all_terms)
    for cache in caches:
        cache.cache_clear()
    with monkeypatch.context() as patch:
        yield patch
    for cache in caches:
        cache.cache_clear()


# canonical terms with d edges, d = 1..12, 366,422 in all: the closed
# form's counts, which enumerate_terms matches
TERM_COUNTS = [1, 2, 4, 11, 30, 98, 328, 1193, 4459, 17287, 68283, 274726]

# sha256 of the newline-joined keys of enumerate_terms(d), d = 1..10,
# recorded from the enumeration that reversed and normalized every term
TERM_KEYS_SHA256 = [
    "3f79bb7b435b05321651daefd374cdc681dc06faa65e374e38337b88ca046dea",
    "c4291a830185cd466dccd7609dbe5a85ce8760aab248abf67ff21140a325e747",
    "01fc7dce3ef277da3899029535bc9f6b0d8084a73ecf4691d5692416246d5a9d",
    "a6cf377496d3b72abe582653c2595bb0b5220639dc25f2216af5f459b9fde16b",
    "40bd389f1df630dc9503c770b2b8568b42f13f145b29f3ee1a750ca0802f1dd5",
    "e4a613f4f7c7c1f78d1a5c2873786ae738b12b0ca7cbefa85e9d4f7f45f5ad97",
    "04574268bcff2d715077a61a12c6ec1dc1640b9e3bae0cad41ce810e7905927a",
    "0340d215696adbaa18e611a3807eecfc8b24d4542da442a78c867e263e2f3f1c",
    "a4ccca832177344153e5fc942f2e2c8316e1f5e592028b3bcc0aceb9d9e9f818",
    "8ec155e92fdf07a174304ac536c59f1e3c085dcc046054d2760944505ef74f8a",
]

# the same digests at d = 11 and at the guard d = 12, recorded from the
# enumeration that sorted each kind of node after building it
GUARD_TERM_KEYS_SHA256 = {
    11: "1db9dfc14c2bc1e1bd5ec1fd1036811852fdad8683e2075430f26efb282433bf",
    12: "7e485e5ed494a93f92f8fe8eca5cb95fedabcfb1889dcd2f8ddf335df547068e",
}


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


def _enumerated_sets(t):
    """(T, F) of t from its marked graph's enumerated trees, each sorted."""
    forests, trees = _split(spanning_trees(to_marked_graph(t)), 0)
    return trees, forests


def _check_tree_sets(max_d):
    for d in range(1, max_d + 1):
        for t in enumerate_terms(d):
            trees, forests = tree_sets(t)
            assert (sorted(trees), sorted(forests)) == _enumerated_sets(t), t.key


class TestTreeSets:
    def test_small(self):
        assert tree_sets(EDGE) == ([1], [0])
        # series: both edges in the tree; a forest drops one of them
        trees, forests = tree_sets(series(EDGE, EDGE))
        assert trees == [0b11] and sorted(forests) == [0b01, 0b10]
        # parallel: the dual
        trees, forests = tree_sets(parallel(EDGE, EDGE))
        assert sorted(trees) == [0b01, 0b10] and forests == [0]

    def test_leaf_order(self):
        # leaf i sits at bit i: the lone edge of S(P(e,e),e) is bit 2
        trees, forests = tree_sets(series(parallel(EDGE, EDGE), EDGE))
        assert sorted(trees) == [0b101, 0b110]
        assert sorted(forests) == [0b001, 0b010, 0b100]

    def test_matches_enumeration(self):
        _check_tree_sets(8)

    @pytest.mark.slow
    def test_matches_enumeration_deep(self):
        _check_tree_sets(10)

    def test_bitsets(self):
        # bit m is set when mask m is in the set: leaf 0 is mask 0b1
        assert tree_bitsets(EDGE) == (1 << 0b1, 1 << 0)
        assert tree_bitsets(series(EDGE, EDGE)) == (1 << 0b11, 1 << 0b01 | 1 << 0b10)
        assert tree_bitsets(parallel(EDGE, EDGE)) == (1 << 0b01 | 1 << 0b10, 1 << 0)

    def test_popcounts_match_tf_counts(self):
        for d in range(1, 11):
            for t in enumerate_terms(d):
                trees, forests = tree_bitsets(t)
                assert (trees.bit_count(), forests.bit_count()) == tf_counts(t), t.key

    def test_sizes_match_tf_counts(self):
        for d in range(1, 11):
            for t in enumerate_terms(d):
                trees, forests = tree_sets(t)
                assert (len(trees), len(forests)) == tf_counts(t), t.key

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(11, 16).flatmap(_terms))
    def test_random_terms(self, t):
        trees, forests = tree_sets(t)
        assert (sorted(trees), sorted(forests)) == _enumerated_sets(t)
        g = to_marked_graph(t)
        assert len(trees) == tree_count(delete_edge(g, 0))
        assert len(forests) == tree_count(contract(g, 0))


class TestGraphDedup:
    # a doubled edge (0,1) and the path 0-2-1: 0 and 1 are twins
    G = Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))

    def test_marks_tell_classes_apart(self):
        dedup = GraphDedup(use_distinguished=True)
        assert dedup.add(self.G.with_distinguished(0))
        assert not dedup.add(self.G.with_distinguished(1))  # the parallel copy
        assert dedup.add(self.G.with_distinguished(2))
        assert not dedup.add(self.G.with_distinguished(3))  # the twin swap
        assert dedup.add(self.G)
        plain = GraphDedup()
        assert plain.add(self.G.with_distinguished(0))
        assert not plain.add(self.G.with_distinguished(2))

    def test_labelled_repeat_needs_no_certificate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spterm, "canonical_form", lambda g, marked: calls.append(g) or (g.n,))
        dedup = GraphDedup()
        relabelled = Multigraph(3, ((1, 2), (0, 2), (0, 2), (1, 0)))  # G, vertices 1 and 2 swapped
        assert dedup.add(self.G)
        assert not dedup.add(Multigraph(3, tuple(reversed(self.G.edges))))
        assert not dedup.add(relabelled)
        assert calls == [self.G, relabelled]


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

    def test_counts(self):
        assert [len(enumerate_connected_sp(d)) for d in range(9)] == CENSUS_COUNTS

    def test_counts_match_all_connected_oracle(self):
        # a different generator (edge addition) and recognizer (reduction)
        from spcube.verify import _all_connected_multigraphs

        for d in range(7):
            sp = [g for g in _all_connected_multigraphs(d) if is_series_parallel(g)]
            assert len(enumerate_connected_sp(d)) == len(sp)

    def test_representatives_pinned(self):
        for d, want in enumerate(CENSUS_SHA256):
            text = repr([(g.n, g.edges) for g in enumerate_connected_sp(d)])
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, d

    def test_skipped_children_repeat_an_earlier_kept_child(self):
        # each operation the skip rules drop gives the class of a child the
        # same parent was offered before it, so no class is lost
        for d in range(7):
            for g, _ in spterm._census_level(d):
                every = [(op, v) for v in range(g.n) for op in (add_loop, add_leaf)]
                every += [(op, i) for i in range(g.e) for op in (duplicate_edge, subdivide_edge)]
                kept = list(spterm._operations(g))
                rest = iter(every)
                assert all(k in rest for k in kept)  # kept in census order
                offered = set()
                for op, x in every:
                    cert = canonical_form(op(g, x))
                    if (op, x) in kept:
                        offered.add(cert)
                    else:
                        assert cert in offered, (g, op.__name__, x)

    def test_returns_a_fresh_list(self):
        got = enumerate_connected_sp(3)
        got.clear()
        assert len(enumerate_connected_sp(3)) == CENSUS_COUNTS[3]


CENSUS_COUNTS = [1, 2, 4, 11, 30, 95, 327, 1207, 4749]

# sha256 of repr([(n, edges), ...]) of each census level, recorded from the
# census that deduplicated every candidate with the backtracking matcher
CENSUS_SHA256 = [
    "851c366d8b71b994",
    "86e981eb2e13f72b",
    "6e255ba7b2c7574d",
    "c888d00e71f568a9",
    "1c58ca72d1b7acbb",
    "88154b58262356ab",
    "7038c658926c9ef0",
    "429b9e6ff9a19f0f",
    "db2f2cc5eb129042",
]
