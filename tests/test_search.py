import hashlib
import random
from collections import Counter
from functools import lru_cache
from itertools import repeat

import pytest

from spcube import catalog, search, spterm
from spcube import (
    EDGE,
    SizeGuardError,
    add_leaf,
    add_loop,
    canonical,
    check_m_bounds,
    contract,
    delete_edge,
    duplicate_edge,
    enumerate_connected_sp,
    enumerate_terms,
    fib,
    fib_table,
    is_series_parallel,
    m_table,
    m_value,
    max_spanning_trees,
    parallel,
    rows_to_csv,
    rows_to_markdown,
    series,
    spanning_trees,
    to_marked_graph,
    tree_count,
    tree_sets,
    y_pattern,
)
from spcube.multigraph import _count_tf
from spcube.patterns import _starred
from spcube.search import m_value_all_marked_graphs
from spcube.verify import (
    check_fib_chain,
    check_fib_exhaustive,
    check_m_methods_agree,
    check_m_onesum_guard,
)

TABLE_M = [1, 2, 4, 8, 14, 24, 42, 72, 122, 204, 343, 576, 960, 1608, 2680, 4480]

# pinned from the DP that canonicalized every candidate from scratch
M_WITNESSES = {
    13: "P(S(P(S(e,P(e,e)),S(e,e)),P(e,e)),S(P(S(e,e),e),P(S(e,e),e)))",
    14: "P(S(P(S(e,P(e,e)),S(e,e)),P(S(e,e),e)),S(P(S(e,e),e),P(S(e,e),e)))",
    15: "P(S(P(S(e,P(e,e)),S(e,e)),P(S(e,e),e)),S(P(S(e,e),S(e,e)),P(S(e,e),e)))",
    16: "P(S(P(S(e,P(e,e)),S(e,e)),P(S(e,e),e)),S(P(S(e,P(e,e)),S(e,e)),P(S(e,e),e)))",
}


# `table m --max-d 9 --method terms` witnesses, pinned from the route that
# built each term's Y pattern from its marked graph's enumerated trees
M_TERMS_WITNESSES = [
    "e",
    "P(e,e)",
    "P(S(e,e),e)",
    "P(S(e,e),S(e,e))",
    "P(S(P(e,e),e),S(e,e))",
    "P(S(P(S(e,e),e),e),S(e,e))",
    "P(S(P(S(e,e),e),P(e,e)),S(e,e))",
    "P(S(P(S(e,e),S(e,e)),P(e,e)),S(e,e))",
    "P(S(P(S(P(e,e),e),S(e,e)),P(e,e)),S(e,e))",
]

# rows 10-12 of `table m --max-d 12 --method terms`, pinned from the route
# that built every term by the checking constructor
M_TERMS_GUARD_WITNESSES = {
    10: "P(S(P(S(P(e,e),e),S(P(e,e),e)),P(e,e)),S(e,e))",
    11: "P(S(P(S(P(e,e),e),S(e,e)),P(e,e)),S(P(S(e,e),e),e))",
    12: "P(S(P(S(e,e),S(e,e)),P(e,e)),S(P(S(e,e),S(e,e)),P(e,e)))",
}

# `table fib --max-d 8` witnesses, pinned from the census that deduplicated
# every candidate with the backtracking matcher
FIB_WITNESSES = [
    '{"vertices": 1, "edges": [], "distinguished": null}',
    '{"vertices": 1, "edges": [[0, 0]], "distinguished": null}',
    '{"vertices": 2, "edges": [[0, 1], [0, 1]], "distinguished": null}',
    '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]], "distinguished": null}',
    '{"vertices": 3, "edges": [[0, 2], [1, 2], [0, 1], [0, 1]], "distinguished": null}',
    '{"vertices": 3, "edges": [[0, 2], [0, 2], [1, 2], [0, 1], [0, 1]], "distinguished": null}',
    '{"vertices": 4, "edges": [[0, 3], [2, 3], [0, 2], [1, 2], [0, 1], [0, 1]], '
    '"distinguished": null}',
    '{"vertices": 4, "edges": [[0, 3], [0, 3], [2, 3], [0, 2], [1, 2], [0, 1], [0, 1]], '
    '"distinguished": null}',
    '{"vertices": 5, "edges": [[0, 3], [2, 4], [3, 4], [2, 3], [0, 2], [1, 2], [0, 1], '
    '[0, 1]], "distinguished": null}',
]


def _full_census_row(d):
    """Row d as the whole census level gives it: the first optimum, by
    strict >, of the sorted ``enumerate_connected_sp(d)``."""
    best, witness = -1, None
    for g in enumerate_connected_sp(d):
        c = tree_count(g)
        if c > best:
            best, witness = c, g
    return best, witness


def _fresh_census(monkeypatch):
    """Give ``spterm._census_level`` an empty cache of its own for one
    test, so the test sees every level built and leaves the process's
    cache as it was; returns the freshly cached builder."""
    census = lru_cache(maxsize=None)(spterm._census_level.__wrapped__)
    monkeypatch.setattr(spterm, "_census_level", census)
    monkeypatch.setattr(search, "_census_level", census)
    return census


def _prune_reference(cands):
    """Quadratic maxima of vectors: the oracle for the staircase prune."""
    items = sorted(cands.items(), key=lambda kv: (-kv[0][0], -kv[0][1], -kv[0][2]))
    kept = []
    for trip, term in items:
        a, b, e = trip
        if any(ka >= a and kb >= b and ke >= e for (ka, kb, ke), _ in kept):
            continue
        kept.append((trip, term))
    return dict(kept)


def _canonicalizing_frontiers(d_max):
    """The m-table DP as it was first written, the route ``M_WITNESSES``
    were pinned from: every candidate is canonicalized from scratch, the
    key-least kept per triple, and the triples pruned afterwards."""
    frontier = [{} for _ in range(d_max + 1)]
    for d in range(1, d_max + 1):
        cands = {(1, 1, 1): EDGE} if d == 1 else {}
        for d1 in range(1, d // 2 + 1):
            for trip1, w1 in frontier[d1].items():
                for trip2, w2 in frontier[d - d1].items():
                    for in_series, build in ((True, series), (False, parallel)):
                        trip = search._combine(in_series, trip1, trip2)
                        w = canonical(build(w1, w2))
                        if trip not in cands or w.key < cands[trip].key:
                            cands[trip] = w
        frontier[d] = _prune_reference(cands)
    return frontier


def _kept_witnesses(d_max):
    """Every kept triple's (witness, normalized reversal) through d_max,
    one dict per frontier, each built by the DP's lazy builder."""
    frontiers, built = [{}], {}
    search._dp_frontiers(frontiers, d_max)
    return [
        {trip: search._witness(frontiers, built, d, trip) for trip in frontier}
        for d, frontier in enumerate(frontiers)
    ]


class TestFib:
    def test_base(self):
        assert fib(1) == 1 and fib(2) == 1 and fib(3) == 2

    def test_values(self):
        assert fib(7) == 13
        assert fib(10) == 55
        assert fib(17) == 1597

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fib(0)


class TestMaxSpanningTrees:
    def test_d0(self):
        assert max_spanning_trees(0).value == 1

    def test_d4(self):
        assert max_spanning_trees(4).value == 5

    def test_d6(self):
        assert max_spanning_trees(6).value == 13

    def test_witness_mode(self):
        row = max_spanning_trees(10, "witness")
        assert row.value == fib(11)
        assert len(spanning_trees(row.witness)) == row.value

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            max_spanning_trees(12, "exhaustive")
        with pytest.raises(SizeGuardError):
            max_spanning_trees(25, "witness")

    @pytest.mark.parametrize("mode", ["exhaustive", "witness"])
    def test_negative_size_refused(self, mode):
        for call in (max_spanning_trees, fib_table):
            with pytest.raises(ValueError, match="^the edge count must be nonnegative, not -1$"):
                call(-1, mode)

    def test_exhaustive_suite(self):
        assert check_fib_exhaustive(max_d=6) == []

    def test_table_8_witnesses(self):
        rows = fib_table(8)
        assert [r.value for r in rows] == [fib(d + 1) for d in range(9)]
        assert [r.witness_text() for r in rows] == FIB_WITNESSES

    def test_table_rows_are_the_rows_built_alone(self):
        # fib_table(11) reads level d at fib(12) halved 11 - d times, and
        # max_spanning_trees(d) at fib(d + 1): the routes read different
        # levels; to 8 edges the whole census level is a third route
        for row in fib_table(11):
            alone = max_spanning_trees(row.d)
            assert (alone.d, alone.value, alone.witness) == (row.d, row.value, row.witness)
            if row.d <= 8:
                assert (row.value, row.witness) == _full_census_row(row.d)

    @pytest.mark.parametrize("d", range(9))
    def test_scan_matches_full_census(self, d):
        row = max_spanning_trees(d)
        assert (row.value, row.witness) == _full_census_row(d)

    @pytest.mark.slow
    def test_row_9_matches_full_census_level(self):
        row = max_spanning_trees(9)
        assert row.value == 55 == fib(10)
        assert (row.value, row.witness) == _full_census_row(9)
        assert len(spterm._census_level(9)) == 19694

    def test_children_reach_at_most_twice_the_parent(self):
        # why a bounded level grows from its parent level at half the
        # floor: a loop or a leaf keeps T(P), and a duplicated or
        # subdivided edge adds T(P / e) or T(P - e), each at most T(P).
        # The level carries each count, from its parent's by deletion and
        # contraction: with c_e of P's trees using e, duplicating e gives
        # T + c_e and subdividing it 2 T - c_e; recounted from scratch here
        for d in range(7):
            for g, t in spterm._census_level(d):
                assert t == tree_count(g)
                for op, x in spterm._operations(g):
                    c = tree_count(op(g, x))
                    if op in (add_loop, add_leaf):
                        assert c == t
                        continue
                    uses = t - tree_count(delete_edge(g, x))  # c_e
                    assert c == (t + uses if op is duplicate_edge else 2 * t - uses)
                    assert t <= c <= 2 * t

    def test_chain_levels_carry_their_counts(self):
        # every class of the twelve levels fib_table(11) reads carries the
        # count a recount from scratch gives it
        top = tree_count(catalog.fib_chain(11))
        for d in range(12):
            level = spterm._census_level(d, -(-top >> (11 - d)))
            assert level
            for g, t in level:
                assert t == tree_count(g)

    @pytest.mark.parametrize("d", range(8))
    def test_bounded_level_is_the_full_level_filtered(self, d):
        # the same graphs in the same order as the full level, less the
        # classes below the floor
        full = spterm._census_level(d)
        top = fib(d + 1)
        for floor in (0, 1, (top + 1) // 2, top, top + 1):
            want = [(g.n, g.edges) for g, _ in full if tree_count(g) >= floor]
            got = [(g.n, g.edges) for g, _ in spterm._census_level(d, floor)]
            assert got == want, floor

    def test_bounded_levels_count_one_child_per_edge(self, monkeypatch):
        # a child's count comes from its parent's trees, so a bounded level
        # enumerates each parent's trees once and counts no child.
        # fib_table(8) reads one chain of nine levels: it enumerates the
        # trees of the 62 classes of the eight lower levels, and counts
        # only the chain graph's trees
        _fresh_census(monkeypatch)
        calls = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def count(g):
                calls[module.__name__, name] += 1
                return real(g)

            return count

        monkeypatch.setattr(spterm, "spanning_trees", counting(spterm, "spanning_trees"))
        monkeypatch.setattr(search, "tree_count", counting(search, "tree_count"))
        fib_table(8)
        assert not hasattr(spterm, "tree_count")
        assert calls == {("spcube.spterm", "spanning_trees"): 62, ("spcube.search", "tree_count"): 1}

    def test_children_below_the_floor_cost_no_certificate(self, monkeypatch):
        # a bounded level offers the deduplication only the children that
        # reach its floor, so a child below it is never certified
        census = _fresh_census(monkeypatch)
        offered = []
        real_add = spterm.GraphDedup.add

        def recording_add(self, g):
            offered.append(g)
            return real_add(self, g)

        monkeypatch.setattr(spterm.GraphDedup, "add", recording_add)
        floors = [fib(9)]
        while len(floors) < 9:
            floors.insert(0, (floors[0] + 1) // 2)
        census(8, floors[8])
        assert {g.e for g in offered} == set(range(1, 9))
        assert all(tree_count(g) >= floors[g.e] for g in offered)

    @pytest.mark.parametrize("d", [10, pytest.param(11, marks=pytest.mark.slow)])
    def test_rows_above_the_full_census(self, d, monkeypatch):
        row = max_spanning_trees(d)
        g = row.witness
        assert row.value == fib(d + 1) == tree_count(g)
        assert g.e == d and g.is_connected() and is_series_parallel(g)
        # with the bound halved the level keeps more classes, and the same
        # optimum with the same representative
        census = _fresh_census(monkeypatch)
        monkeypatch.setattr(search, "_census_level", lambda k, floor: census(k, floor // 2))
        halved = max_spanning_trees(d)
        assert (halved.value, halved.witness) == (row.value, row.witness)

    def test_row_millis_time_each_level(self, monkeypatch):
        # the clock steps only on dedup insertions, one tick per candidate.
        # fib_table(6) builds one chain of levels, each once and in row
        # order: level d at floor_d, fib(7) halved 6 - d times and rounded
        # up each time.  Row d's millis is exactly its own level's ticks
        clock = [0.0]
        ticks = Counter()  # (level, floor) -> insertions
        built = []  # (level, floor), in the order their builds began
        building = []
        real_level = spterm._census_level.__wrapped__
        real_add = spterm.GraphDedup.add

        def tracked_level(d, floor=0):
            built.append((d, floor))
            building.append((d, floor))
            try:
                return real_level(d, floor)
            finally:
                building.pop()

        def counting_add(self, g):
            ticks[building[-1]] += 1
            clock[0] += 1
            return real_add(self, g)

        census = lru_cache(maxsize=None)(tracked_level)
        monkeypatch.setattr(spterm, "_census_level", census)
        monkeypatch.setattr(search, "_census_level", census)
        monkeypatch.setattr(search.time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(spterm.GraphDedup, "add", counting_add)
        rows = fib_table(6)
        floors = [fib(7)]
        while len(floors) < 7:
            floors.insert(0, (floors[0] + 1) // 2)
        assert built == list(enumerate(floors))
        assert all(ticks[level] for level in built[1:])
        assert [r.millis for r in rows] == [1000.0 * ticks[level] for level in built]
        assert sum(r.millis for r in rows) == 1000.0 * clock[0]

    def test_chain_recurrence_to_16(self):
        assert check_fib_chain(max_d=16) == []


class TestMTable:
    def test_small_values(self):
        rows = m_table(5)
        assert [r.value for r in rows] == [1, 2, 4, 8, 14]

    def test_table_prefix_12(self):
        rows = m_table(12)
        assert [r.value for r in rows] == TABLE_M[:12]

    def test_table_16_and_witnesses(self):
        rows = m_table(16)
        assert [r.value for r in rows] == TABLE_M
        assert {r.d: r.witness_text() for r in rows[12:]} == M_WITNESSES
        for row in rows[12:]:
            assert len(y_pattern(to_marked_graph(row.witness), 0)) == row.value

    def test_row_millis_time_each_frontier(self, monkeypatch):
        # the clock steps only while a frontier is pruned, by its candidate count
        clock = [0.0]
        sizes = []
        real_prune = search._prune

        def counting_prune(cands):
            sizes.append(len(cands))
            clock[0] += len(cands)
            return real_prune(cands)

        monkeypatch.setattr(search.time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(search, "_prune", counting_prune)
        rows = m_table(8)
        assert len(sizes) == 8
        assert [r.millis for r in rows] == [1000.0 * n for n in sizes]

    def test_every_kept_witness_to_16(self):
        # sha256 of the sorted "d T F |Y| witness" lines of every kept
        # triple, pinned from the DP that oriented each winner by the
        # memoized key of its rebuilt normalized reversal; the
        # canonicalizing oracle below reaches only d = 12
        lines = sorted(
            f"{d} {t} {f} {y} {w.key}"
            for d, frontier in enumerate(_kept_witnesses(16))
            for (t, f, y), (w, _) in frontier.items()
        )
        assert len(lines) == 1543
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "3cc4f19f354445daced6fbf1c47f9e5bc757560116e5a85848562075ed1fafaa"
        )

    def test_frontiers_match_canonicalizing_dp(self):
        witnesses = _kept_witnesses(12)
        terms = [{trip: w for trip, (w, _) in frontier.items()} for frontier in witnesses]
        assert terms == _canonicalizing_frontiers(12)
        for frontier in witnesses:
            for w, r in frontier.values():
                assert canonical(w) == w
                assert r == spterm._norm(spterm.reverse_term(w))

    def test_combine_gives_every_terms_triple(self):
        # the DP's rule on every term, not only on the frontier's: the
        # fold of (T, F, |Y|) from the marked graph's deletion,
        # contraction and Y pattern
        for d in range(1, 9):
            for t in enumerate_terms(d):
                g = to_marked_graph(t)
                want = (
                    tree_count(delete_edge(g, 0)),
                    tree_count(contract(g, 0)),
                    len(y_pattern(g, 0)),
                )
                assert spterm._fold(t, repeat((1, 1, 1)), search._combine) == want, t.key

    def test_compose_shares_the_tf_rule(self):
        # the triple rule's (T, F) is multigraph's (T, F) rule, on both kinds
        rng = random.Random(362)
        for _ in range(200):
            x, y = (tuple(rng.randint(0, 60) for _ in range(3)) for _ in range(2))
            for in_series, trip in zip((True, False), search._compose(x, y)):
                assert trip[:2] == _count_tf(in_series, x[:2], y[:2])
                assert trip == search._combine(in_series, x, y)

    def test_witnesses_built_only_where_rows_read(self, monkeypatch):
        # m_table builds the witness of each (d, triple) that its rows'
        # largest-|Y| triples reach through their producers, and each once
        builds = []
        real_witness = search._witness

        def recording_witness(frontiers, built, d, trip):
            if (d, trip) not in built:
                builds.append((d, trip))
            return real_witness(frontiers, built, d, trip)

        monkeypatch.setattr(search, "_witness", recording_witness)
        rows = m_table(16)
        frontiers = [{}]
        search._dp_frontiers(frontiers, 16)
        stack = [
            (row.d, trip) for row in rows for trip in frontiers[row.d] if trip[2] == row.value
        ]
        reached = set()
        while stack:
            d, trip = node = stack.pop()
            if node not in reached:
                reached.add(node)
                for _, d1, x, y in frontiers[d][trip]:
                    stack += [(d1, x), (d - d1, y)]
        assert len(reached) == 42
        assert len(builds) == len(set(builds))
        assert set(builds) == reached

    def test_pruning_keeps_the_maxima(self):
        # every triple that the rule reaches from (1, 1, 1), with no prune:
        # its largest |Y| at each d is the pruned DP's m(d)
        closure = [set(), {(1, 1, 1)}]
        for d in range(2, 14):
            closure.append({
                search._combine(in_series, x, y)
                for d1 in range(1, d // 2 + 1)
                for x in closure[d1]
                for y in closure[d - d1]
                for in_series in (True, False)
            })
        assert [max(y for _, _, y in level) for level in closure[1:]] == [
            r.value for r in m_table(13)
        ]

    def test_staircase_prune_matches_quadratic(self):
        rng = random.Random(1975)
        for _ in range(400):
            hi = rng.choice([1, 3, 8, 1000])  # small ranges force ties
            cands = {
                tuple(rng.randint(0, hi) for _ in range(3)): i
                for i in range(rng.randint(0, 60))
            }
            got = search._prune(cands)
            assert list(got.items()) == list(_prune_reference(cands).items())

    def test_witnesses_revalidate(self):
        for row in m_table(9):
            g = to_marked_graph(row.witness)
            assert len(y_pattern(g, 0)) == row.value

    def test_methods_agree(self):
        assert check_m_methods_agree(max_d=6) == []

    def test_methods_agree_deep(self):
        assert check_m_methods_agree(max_d=8) == []

    def test_bounds(self):
        rows = m_table(10)
        report = check_m_bounds(rows)
        assert all(r["ok"] for r in report)
        # spot values: d=5 gives 12 <= 14 <= 32.5, d=10 gives 143 <= 204 <= 720
        assert report[4]["lower"] == 12 and report[4]["value"] == 14
        assert report[9]["lower"] == 143 and float(report[9]["upper"]) == 720

    def test_d1_tight(self):
        report = check_m_bounds(m_table(1))
        assert report[0]["lower"] == 1 and float(report[0]["upper"]) == 1

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            m_table(17)

    @pytest.mark.parametrize("call", [m_table, m_value])
    def test_terms_guard(self, monkeypatch, call):
        def no_terms(d):
            raise AssertionError(f"terms enumerated at d = {d} above the guard")

        monkeypatch.setattr(search, "enumerate_terms", no_terms)
        with pytest.raises(SizeGuardError, match="guarded at d = 12"):
            call(13, "terms")

    def test_onesum_guard(self):
        assert check_m_onesum_guard(max_d=4) == []

    def test_onesum_guard_deep(self):
        assert check_m_onesum_guard(max_d=6) == []

    def test_all_marked_graphs_small(self):
        assert m_value_all_marked_graphs(1) == 1
        assert m_value_all_marked_graphs(2) == 2

    def test_pair_count_matches_listed_pairs(self):
        # the shifted-AND count of the bitsets against the kernel that
        # lists the pairs of the decoded sets
        for d in range(1, 9):
            for t in enumerate_terms(d):
                trees, forests = tree_sets(t)
                assert search._y_size(t) == len(_starred(forests, trees)), t.key

    @pytest.mark.slow
    def test_terms_route_at_its_guard(self):
        assert m_value(12, "terms")[0] == m_value(12)[0] == TABLE_M[11]
        for d, witness in M_TERMS_GUARD_WITNESSES.items():
            value, term = m_value(d, "terms")
            assert (value, term.key) == (TABLE_M[d - 1], witness)

    def test_terms_method_witness(self):
        value, witness = m_value(4, "terms")
        assert value == 8
        assert len(y_pattern(to_marked_graph(witness), 0)) == 8

    def test_terms_table_pinned(self):
        rows = m_table(9, "terms")
        assert [r.value for r in rows] == TABLE_M[:9]
        assert [r.witness_text() for r in rows] == M_TERMS_WITNESSES

    def test_witness_rules(self):
        # the terms route reports the key-least optimum; the DP the
        # key-least on its pruned frontier, which can be key-larger (d = 8, 9)
        for d in range(1, 10):
            v_dp, w_dp = m_value(d, "dp")
            v_terms, w_terms = m_value(d, "terms")
            assert v_dp == v_terms == TABLE_M[d - 1]
            for w in (w_dp, w_terms):
                assert len(y_pattern(to_marked_graph(w), 0)) == v_dp
            assert w_terms.key <= w_dp.key
        assert w_dp.key == "P(S(P(S(e,P(e,e)),S(e,e)),P(e,e)),S(e,e))"
        assert w_terms.key < w_dp.key


class TestEmitters:
    def test_csv(self):
        text = rows_to_csv(m_table(3))
        lines = text.strip().splitlines()
        assert lines[0] == "d,value,witness-term,millis"
        assert len(lines) == 4
        assert lines[3].startswith("3,4,")

    def test_markdown(self):
        text = rows_to_markdown(fib_table(3))
        assert text.startswith("| d | value | witness-term | millis |")
        assert text.count("\n") == 6
