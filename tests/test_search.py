import random

import pytest

from spcube import search
from spcube import (
    SizeGuardError,
    check_m_bounds,
    fib,
    fib_table,
    m_table,
    m_value,
    max_spanning_trees,
    rows_to_csv,
    rows_to_markdown,
    spanning_trees,
    to_marked_graph,
    y_pattern,
)
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
            max_spanning_trees(9, "exhaustive")
        with pytest.raises(SizeGuardError):
            max_spanning_trees(17, "witness")

    def test_exhaustive_suite(self):
        assert check_fib_exhaustive(max_d=6) == []

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

    @pytest.mark.slow
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

    def test_onesum_guard(self):
        assert check_m_onesum_guard(max_d=4) == []

    @pytest.mark.slow
    def test_onesum_guard_deep(self):
        assert check_m_onesum_guard(max_d=6) == []

    def test_all_marked_graphs_small(self):
        assert m_value_all_marked_graphs(1) == 1
        assert m_value_all_marked_graphs(2) == 2

    def test_terms_method_witness(self):
        value, witness = m_value(4, "terms")
        assert value == 8
        assert len(y_pattern(to_marked_graph(witness), 0)) == 8


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
