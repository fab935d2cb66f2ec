import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spcube import (
    EdgePattern,
    Multigraph,
    VertexPattern,
    format_pattern,
    graph_to_json,
    layer_strings,
    load_graph,
    load_pattern,
    parse_pattern,
    save_graph,
    save_pattern,
    tree_count,
    x_pattern,
    y_pattern,
)
from spcube import catalog, embeddings, multigraph, patterns, search, verify
from spcube.cli import PATTERN_OUTPUT_LIMIT, PATTERN_TREE_LIMIT, _named_output, main
from spcube.search import fib
from spcube.patterns import pg_from_json, pg_to_json, h_graph


class TestPatternFiles:
    def test_round_trip_vertex(self):
        x = x_pattern(catalog.k4_minus_edge())
        assert parse_pattern(format_pattern(x)) == x

    def test_round_trip_edge(self):
        y = EdgePattern(1, 1, frozenset({"01*", "*01", "1*0"}))
        assert parse_pattern(format_pattern(y)) == y

    def test_sorted_output(self):
        x = VertexPattern(2, 2, frozenset(layer_strings(2, 2)))
        lines = format_pattern(x).strip().splitlines()
        assert lines[0] == "vertex 2 2"
        assert lines[1:] == sorted(lines[1:])

    def test_empty_string_layer(self):
        # L(0,0) has one string, the empty one: {""} and {} are two files
        full, empty = VertexPattern(0, 0, {""}), VertexPattern(0, 0, set())
        assert format_pattern(full) == "vertex 0 0\n\n"
        assert format_pattern(empty) == "vertex 0 0\n"
        assert parse_pattern(format_pattern(full)) == full
        assert parse_pattern(format_pattern(empty)) == empty
        with pytest.raises(ValueError):
            parse_pattern("vertex 0 0\n0\n")

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_pattern("widget 1 1\n01\n")

    def test_pattern_graph_json_round_trip(self):
        h = h_graph(catalog.k4_minus_edge(), 4)
        assert pg_from_json(pg_to_json(h)) == h

    def test_save_and_load_graph(self, tmp_path):
        g = catalog.partite_graph((1, 2, 2))
        assert g.distinguished is not None
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert path.read_text() == graph_to_json(g) + "\n"
        assert load_graph(path) == g

    @pytest.mark.parametrize(
        "pattern",
        [
            x_pattern(catalog.k4_minus_edge()),
            y_pattern(catalog.k4_minus_edge(), 4),
            VertexPattern(0, 0, set()),
            VertexPattern(0, 0, {""}),
        ],
        ids=["vertex", "edge", "empty", "empty-string"],
    )
    def test_save_and_load_pattern(self, tmp_path, pattern):
        path = tmp_path / "p.pat"
        save_pattern(pattern, path)
        assert path.read_text() == format_pattern(pattern)
        assert load_pattern(path) == pattern


# the time columns: csv and markdown millis, and verify's seconds
_TIMES = re.compile(r"(,[\d.]+|\| [\d.]+ \||\([\d.]+s\))(?=\r?$)", re.MULTILINE)


@pytest.fixture
def k4me_file(tmp_path):
    path = tmp_path / "k4me.json"
    path.write_text(graph_to_json(catalog.k4_minus_edge()) + "\n")
    return str(path)


class TestCli:
    def test_pattern_x_worked_example(self, k4me_file, capsys):
        assert main(["pattern", "x", "--graph", k4me_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "vertex 2 3"
        assert set(out[1:]) == {
            "01110", "10110", "11010", "11100",
            "01011", "01101", "10101", "10011",
        }

    def test_pattern_y(self, k4me_file, capsys):
        assert main(["pattern", "y", "--graph", k4me_file, "--edge", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "edge 1 2"  # one zero, two ones per starred string
        assert len(out) == 9

    def test_pattern_h_identifies_cycle(self, k4me_file, capsys):
        assert main(["pattern", "h", "--graph", k4me_file, "--edge", "4"]) == 0
        out = capsys.readouterr().out
        assert "cycle(8)" in out

    def test_pattern_named(self, capsys):
        assert main(["pattern", "named", "--name", "x16"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "vertex 3 3" and len(out) == 17

    def test_dual_involution_via_files(self, tmp_path, capsys):
        p = tmp_path / "p.txt"
        x = x_pattern(catalog.k4_minus_edge())
        p.write_text(format_pattern(x))
        out1 = tmp_path / "out1.txt"
        out2 = tmp_path / "out2.txt"
        assert main(["op", "dual", "--pattern", str(p), "--out", str(out1)]) == 0
        assert main(["op", "dual", "--pattern", str(out1), "--out", str(out2)]) == 0
        assert out2.read_text() == p.read_text()

    def test_op_dup(self, tmp_path, capsys):
        p = tmp_path / "p.txt"
        p.write_text("vertex 1 1\n01\n10\n")
        assert main(["op", "dup", "--pattern", str(p), "--coord", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "vertex 2 1"
        assert set(out[1:]) == {"001", "010", "100"}

    def test_op_phi_psi(self, tmp_path, capsys):
        y = tmp_path / "y.txt"
        y.write_text("edge 0 0\n*\n")
        assert main(["op", "phi", "--pattern", str(y)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert set(out[1:]) == {"01", "10"}
        x = tmp_path / "x.txt"
        x.write_text("vertex 1 1\n01\n10\n")
        assert main(["op", "psi", "--pattern", str(x), "--coord", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["edge 0 0", "*"]

    def test_product_join(self, tmp_path, capsys):
        k2 = h_graph(catalog.c2_marked(), 0)
        f1 = tmp_path / "h1.json"
        f1.write_text(pg_to_json(k2))
        assert main(
            ["op", "product-join", "--h1", str(f1), "--h2", str(f1)]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["lower"] == ["00"]
        assert sorted(data["upper"]) == ["01", "10"]

    def test_product_join_above_output_guard_exit_2(self, monkeypatch, tmp_path, capsys):
        # the star of 1183 edges joined with itself: 7,099 strings of
        # width 2,366 (see test_patterns.py)
        ups = [1 << i for i in range(1183)]
        h = patterns.PatternGraph.from_masks(1183, [0], ups, [(0, u) for u in ups])
        star = tmp_path / "star.json"
        star.write_text(pg_to_json(h))

        def unbuilt(h):
            raise AssertionError("a join was started above the output guard")

        monkeypatch.setattr(patterns, "pg_is_connected", unbuilt)
        assert main(["op", "product-join", "--h1", str(star), "--h2", str(star)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the pattern output guard {PATTERN_OUTPUT_LIMIT} (strings x width)" in captured.err

    @pytest.mark.parametrize(
        "text",
        [
            '{"lower": ["00"], "edges": []}',
            '{"lower": ["00"], "upper": ["01"]}',
            '["00", "01"]',
            '{"lower": "0", "upper": ["1"], "edges": []}',
            '{"lower": ["00"], "upper": "01", "edges": []}',
            '{"lower": ["00"], "upper": ["01"], "edges": "00"}',
            '{"lower": [0], "upper": ["1"], "edges": []}',
            '{"lower": ["0"], "upper": [true], "edges": []}',
            '{"lower": ["0"], "upper": ["1"], "edges": [["0", 1]]}',
            '{"lower": ["0"], "upper": ["1"], "edges": [["0"]]}',
            '{"lower": ["0"], "upper": ["1"], "edges": [["0", "1", "1"]]}',
            '{"lower": ["0"], "upper": ["1"], "edges": ["01"]}',
        ],
    )
    def test_malformed_pattern_graph_json_exit_1(self, tmp_path, capsys, text):
        good = tmp_path / "good.json"
        good.write_text(pg_to_json(h_graph(catalog.c2_marked(), 0)))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for h1, h2 in ((bad, good), (good, bad)):
            assert main(["op", "product-join", "--h1", str(h1), "--h2", str(h2)]) == 1
            assert "error: pattern-graph JSON" in capsys.readouterr().err

    def test_non_binary_pattern_graph_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "g.json"
        bad.write_text('{"lower":["0a"],"upper":["1a"],"edges":[["0a","1a"]]}')
        assert main(["op", "product-join", "--h1", str(bad), "--h2", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "0a0a" not in captured.out
        assert "error: pattern-graph string '0a' is not a 0/1 string" in captured.err

    def test_density(self, tmp_path, capsys):
        small = tmp_path / "s.txt"
        small.write_text("vertex 1 1\n01\n10\n")
        big = tmp_path / "b.txt"
        big.write_text("vertex 2 2\n0011\n1100\n")
        assert main(["density", "--small", str(small), "--big", str(big)]) == 0
        assert capsys.readouterr().out.strip() == "0/1"

    def test_contains(self, tmp_path, capsys):
        small = tmp_path / "s.txt"
        small.write_text("vertex 1 1\n01\n10\n")
        big = tmp_path / "b.txt"
        big.write_text("vertex 2 2\n0011\n1100\n")
        assert main(["contains", "--set", str(big), "--pattern", str(small)]) == 0
        assert "contains: no" in capsys.readouterr().out

    def test_contains_cube_mode(self, tmp_path, capsys):
        pattern = tmp_path / "p.txt"
        pattern.write_text("vertex 1 1\n01\n10\n")
        pool = tmp_path / "pool.txt"
        pool.write_text("000\n011\n\n101\n110\n")  # even-weight class of Q3
        assert main(["contains", "--set", str(pool), "--pattern", str(pattern)]) == 0
        assert capsys.readouterr().out.startswith("contains: yes")

    @pytest.mark.parametrize(
        "kind, pattern, lines, bad",
        [
            ("vertex", "vertex 1 1\n01\n", "0a\n10\n", "line 1: '0a' is not a 0/1 string"),
            ("vertex", "vertex 1 1\n01\n", "01\n\n0*\n", "line 3: '0*' is not a 0/1 string"),
            ("vertex", "vertex 1 1\n01\n", "01\n011\n", "line 2: '011' is not a string of length 2"),
            ("edge", "edge 0 1\n1*\n", "1*1\n101\n", "line 2: '101' has no '*'"),
            ("edge", "edge 0 1\n1*\n", "1**\n", "line 1: '1**' is not a starred 0/1 string"),
        ],
        ids=["bad-character", "star-for-vertex", "length", "no-star-for-edge", "two-stars"],
    )
    def test_contains_cube_mode_malformed_exit_1(self, tmp_path, capsys, kind, pattern, lines, bad):
        p = tmp_path / "p.txt"
        p.write_text(pattern)
        pool = tmp_path / "pool.txt"
        pool.write_text(lines)
        assert main(["contains", "--set", str(pool), "--pattern", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {pool} {bad}\n")

    def test_ex_layer(self, tmp_path, capsys):
        small = tmp_path / "s.txt"
        small.write_text("vertex 1 1\n01\n10\n")
        assert main(["ex-layer", "--a", "2", "--b", "2", "--pattern", str(small)]) == 0
        out = capsys.readouterr().out
        assert "ex = 2" in out and "0011 1100" in out

    def test_ex_layer_guard_exit_2(self, tmp_path, capsys):
        small = tmp_path / "s.txt"
        small.write_text("vertex 1 1\n01\n10\n")
        assert main(["ex-layer", "--a", "5", "--b", "5", "--pattern", str(small)]) == 2

    def test_ex_layer_guard_before_listing_exit_2(self, tmp_path, capsys, monkeypatch):
        # L(3000,3000) cannot be listed: the guard must come first
        def unlisted(*args):
            raise AssertionError("the layer was listed before its guard")

        monkeypatch.setattr(embeddings, "layer_masks", unlisted)
        small = tmp_path / "s.txt"
        small.write_text("vertex 1 1\n01\n10\n")
        assert main(["ex-layer", "--a", "3000", "--b", "3000", "--pattern", str(small)]) == 2
        assert "refused: layer size " in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--brute-force"]], ids=["bnb", "brute-force"])
    @pytest.mark.parametrize(
        "a, b, text",
        [(8000, 8000, "vertex 1 1\n01\n10\n"), (200000, 0, "vertex 1 0\n0\n"),
         (2000, 0, "vertex 1 0\n0\n")],
        ids=["8000-8000", "200000-0", "2000-0"],
    )
    def test_ex_layer_refused_from_its_parameters(
        self, tmp_path, capsys, monkeypatch, flags, a, b, text
    ):
        # C(16000, 8000) has more digits than Python writes, 200000! takes
        # seconds, and the brute force's map recursion would go 2,000 deep:
        # the width guard refuses all three before any of that
        def uncounted(*args):
            raise AssertionError("maps counted past the width guard")

        monkeypatch.setattr(embeddings, "count_maps", uncounted)
        monkeypatch.setattr(embeddings, "enumerate_maps", uncounted)
        small = tmp_path / "s.txt"
        small.write_text(text)
        argv = ["ex-layer", "--a", str(a), "--b", str(b), "--pattern", str(small)]
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"refused: target width {a + b} exceeds the map-search guard 512\n"
        )

    @pytest.mark.parametrize("command", ["density", "contains"])
    def test_wide_layer_refused_exit_2(self, tmp_path, capsys, command):
        # one string of L(500,500): the map search would recurse 1,000 deep
        wide = tmp_path / "wide.pat"
        wide.write_text("vertex 500 500\n" + "0" * 500 + "1" * 500 + "\n")
        flags = ["--small", "--big"] if command == "density" else ["--set", "--pattern"]
        assert main([command, flags[0], str(wide), flags[1], str(wide)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("refused: target width 1000 exceeds the map-search guard 512\n")

    def test_ex_cube(self, tmp_path, capsys):
        small = tmp_path / "s.txt"
        small.write_text("vertex 1 1\n01\n10\n")
        assert main(["ex-cube", "--n", "2", "--pattern", str(small)]) == 0
        assert "ex = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["-1", "-2"])
    @pytest.mark.parametrize("text", ["vertex 1 1\n01\n10\n", "edge 0 0\n*\n"], ids=["xc2", "star"])
    def test_ex_cube_negative_dimension_exit_1(self, tmp_path, capsys, n, text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        assert main(["ex-cube", "--n", n, "--pattern", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: cube dimension must be nonnegative\n")

    def test_f2_requires_seed(self, capsys):
        assert main(["f2", "--a", "4", "--b", "4"]) == 64

    def test_f2_runs(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(
            ["f2", "--a", "3", "--b", "3", "--seed", "7", "--out", str(out)]
        ) == 0
        pattern = parse_pattern(out.read_text())
        assert (pattern.a, pattern.b) == (3, 3)

    @pytest.mark.parametrize(
        "seed, code", [(2**128 - 1, 0), (2**128, 1), (-1, 1)], ids=["max", "over", "negative"]
    )
    def test_f2_seed_domain(self, capsys, seed, code):
        assert main(["f2", "--a", "2", "--b", "2", "--seed", str(seed)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.endswith(f"error: seed must be between 0 and 2**128 - 1, got {seed}\n")

    def test_f2_edge_mode(self, capsys):
        assert main(["f2", "--a", "2", "--b", "1", "--seed", "5", "--mode", "edge"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("edge 2 1")

    @pytest.mark.parametrize(
        "argv, digest, density_line",
        [
            (
                ["--a", "10", "--b", "10"],
                "c6ff209403987c4475ae16af16593984eee06ab403b0c5a7ef86c5539fefbcf7",
                "# seed 1 size 52028 density 13007/46189 (~0.2816, basis probability ~0.2891)\n",
            ),
            (
                ["--a", "7", "--b", "7", "--mode", "edge"],
                "673efc845ab24eaf093a7093b23e52e46706333b19603853314648831817b13f",
                "# seed 1 size 7192 density 899/6435 (~0.1397, basis probability ~0.1450)\n",
            ),
        ],
        ids=["vertex-10-10", "edge-7-7"],
    )
    def test_f2_output_pinned(self, capsys, argv, digest, density_line):
        # sha256 of stdout as recorded from the per-subset rank construction
        assert main(["f2", "--seed", "1", *argv]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert captured.err.endswith(density_line)

    def test_table_fib(self, capsys):
        assert main(["table", "fib", "--max-d", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["1", "1", "2", "3", "5"]

    def test_table_fib_witness_chain_at_guard(self, capsys):
        assert main(["table", "fib", "--max-d", "24", "--witness-only"]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(25))
        for d, value, *_ in rows:
            d, value = int(d), int(value)
            assert value == fib(d + 1) == tree_count(catalog.fib_chain(d))

    def test_table_fib_census_above_guard_exit_2(self, monkeypatch, capsys):
        def no_level(d, floor):
            raise AssertionError(f"level {d} built above the guard")

        monkeypatch.setattr(search, "_census_level", no_level)
        assert main(["table", "fib", "--max-d", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refused: exhaustive census is guarded at 11 edges" in captured.err

    def test_table_m_terms_above_guard_exit_2(self, monkeypatch, capsys):
        def no_terms(d):
            raise AssertionError(f"terms enumerated at d = {d} above the guard")

        monkeypatch.setattr(search, "enumerate_terms", no_terms)
        assert main(["table", "m", "--max-d", "13", "--method", "terms"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refused: m table by terms is guarded at d = 12" in captured.err

    def test_table_fib_witness_chain_above_guard_exit_2(self, capsys):
        assert main(["table", "fib", "--max-d", "25", "--witness-only"]) == 2
        assert "refused: witness chain is guarded at 24 edges" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--witness-only"]], ids=["census", "witness-only"])
    def test_table_fib_negative_size_exit_1(self, capsys, extra):
        assert main(["table", "fib", "--max-d", "-1", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: the edge count must be nonnegative, not -1\n")

    @pytest.mark.parametrize(
        "name, sizes",
        [("alon", (1,)), ("alon", (1, 1)), ("alon", (2, 3, 2)), ("alon", (1, 4, 1, 2)),
         ("partite", (1,)), ("partite", (1, 1)), ("partite", (2, 2, 3)), ("partite", (3, 1, 2, 1))],
    )
    def test_named_output_count(self, name, sizes):
        p = patterns.named_pattern(name, sizes)
        width = p.a + p.b + (name == "partite")
        assert _named_output(name, sizes) == len(p) * width == len(p) * sum(sizes)

    @pytest.mark.parametrize(
        "name, params",
        [("partite", "100000"), ("alon", "300,300,300"), ("alon", ",".join(["300"] * 5000))],
    )
    def test_pattern_named_above_output_guard_exit_2(self, monkeypatch, capsys, name, params):
        def unbuilt(sizes):
            raise AssertionError("a pattern was built above the output guard")

        # the graph each named family is read off, and the trees of any graph
        monkeypatch.setitem(patterns._NAMED, name, (unbuilt, patterns._NAMED[name][1]))
        monkeypatch.setattr(patterns, "spanning_trees", unbuilt)
        assert main(["pattern", "named", "--name", name, "--params", params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"refused: the {name} pattern would write over {PATTERN_OUTPUT_LIMIT}" in captured.err

    def test_named_output_at_the_guard(self):
        # partite (2^12) has 2^12 strings of 2^12 characters
        side = 2**12
        assert _named_output("partite", (side,)) == PATTERN_OUTPUT_LIMIT
        assert _named_output("partite", (side + 1,)) > PATTERN_OUTPUT_LIMIT
        assert _named_output("alon", (1, 1, 0)) == _named_output("x16", ()) == 0

    def test_pattern_at_tree_guard(self, tmp_path, capsys):
        pairs = PATTERN_TREE_LIMIT.bit_length() - 1  # a chain of parallel pairs
        g = Multigraph(pairs + 1, tuple(e for j in range(pairs) for e in ((j, j + 1),) * 2))
        assert tree_count(g) == PATTERN_TREE_LIMIT
        path = tmp_path / "g.json"
        path.write_text(graph_to_json(g))
        assert main(["pattern", "x", "--graph", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + PATTERN_TREE_LIMIT
        # one more edge in the last pair: 3/2 of the limit
        path.write_text(graph_to_json(Multigraph(g.n, g.edges + ((pairs - 1, pairs),))))
        assert main(["pattern", "x", "--graph", str(path)]) == 2

    @pytest.mark.parametrize("kind", ["x", "y", "h"])
    def test_pattern_above_tree_guard_refused_before_work(self, kind, tmp_path, capsys, monkeypatch):
        def no_trees(g):
            raise AssertionError("spanning trees enumerated past the guard")

        monkeypatch.setattr(patterns, "spanning_trees", no_trees)
        k10 = Multigraph(10, tuple((u, v) for u in range(10) for v in range(u + 1, 10)), 0)
        path = tmp_path / "k10.json"
        path.write_text(graph_to_json(k10))
        assert main(["pattern", kind, "--graph", str(path)]) == 2
        assert "refused: 100000000 spanning trees exceed the pattern guard" in capsys.readouterr().err

    def test_pattern_vertex_guard(self, tmp_path, capsys, monkeypatch):
        # the guard is on the vertices of the irreducible core: a path
        # reduces to nothing, so it has no determinant to take
        n = 10_000
        path = tmp_path / "g.json"
        path.write_text(graph_to_json(Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))))
        assert main(["pattern", "x", "--graph", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1" * (n - 1)]

        def no_det(m):
            raise AssertionError("determinant taken past the core guard")

        monkeypatch.setattr(multigraph, "_int_det", no_det)
        rim = 256  # the wheel's hub and rim: every vertex has degree at least 3
        edges = [(0, i) for i in range(1, rim + 1)] + [(i, i % rim + 1) for i in range(1, rim + 1)]
        path.write_text(graph_to_json(Multigraph(rim + 1, tuple(edges))))
        assert main(["pattern", "x", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refused: an irreducible core of 257 vertices exceeds the tree-count guard 256" in (
            captured.err
        )

    def test_pattern_output_guard_refused_before_trees(self, tmp_path, capsys, monkeypatch):
        def no_trees(g):
            raise AssertionError("spanning trees enumerated past the output guard")

        monkeypatch.setattr(patterns, "spanning_trees", no_trees)
        # k parallel edges: k trees of k characters each, one past k * k = 2^24
        k = 4097
        assert k * k > PATTERN_OUTPUT_LIMIT >= (k - 1) ** 2
        path = tmp_path / "bundle.json"
        path.write_text(graph_to_json(Multigraph(2, ((0, 1),) * k)))
        assert main(["pattern", "x", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refused: 4097 spanning trees of 4097 edges exceed the pattern output guard" in (
            captured.err
        )

    def test_pattern_header_above_width_guard_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.pat"
        huge.write_text("vertex 10000000000 0\n")
        assert main(["op", "dual", "--pattern", str(huge)]) == 2
        assert "refused: pattern width 10000000000 exceeds" in capsys.readouterr().err
        at_guard = tmp_path / "at_guard.pat"
        at_guard.write_text(f"vertex 0 {patterns.PATTERN_WIDTH_LIMIT}\n")
        assert main(["op", "dual", "--pattern", str(at_guard)]) == 0
        assert capsys.readouterr().out == f"vertex {patterns.PATTERN_WIDTH_LIMIT} 0\n"

    def test_table_m_markdown(self, capsys):
        assert main(["table", "m", "--max-d", "5", "--emit", "md"]) == 0
        out = capsys.readouterr().out
        assert "| 5 | 14 |" in out

    def test_unknown_flag_exit_64(self, capsys):
        assert main(["table", "fib", "--max-d", "3", "--frobnicate"]) == 64

    def test_domain_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": 2, "edges": [[0, 5]]}')
        assert main(["pattern", "x", "--graph", str(bad)]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("pattern named", "pattern named requires --name"),
            ("pattern named --name bogus --params 1", "unknown named pattern 'bogus'"),
            ("pattern x", "pattern x requires --graph"),
            ("op product-join", "product-join requires --h1 and --h2"),
            ("op product-join --h1 {x}", "product-join requires --h1 and --h2"),
            ("op dual", "op dual requires --pattern"),
            ("op dup --pattern {x}", "dup/codup require --coord"),
            ("op psi --pattern {x}", "psi requires --coord"),
            ("op psi --pattern {y} --coord 0", "psi expects a vertex pattern"),
        ],
    )
    def test_missing_or_wrong_input_exit_1(self, tmp_path, capsys, argv, message):
        files = {"x": tmp_path / "x.pat", "y": tmp_path / "y.pat"}
        files["x"].write_text("vertex 1 1\n01\n10\n")
        files["y"].write_text("edge 0 0\n*\n")
        assert main(argv.format(**files).split()) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"

    def test_verify_fail_exit_1(self, monkeypatch, capsys):
        def failing(count):
            return [f"violation {i}" for i in range(count)]

        monkeypatch.setattr(verify, "ALL_CHECKS", [("failing", failing, {"count": 7}, {})])
        assert main(["verify"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("FAIL failing (") and out[0].endswith("s): 7 violation(s)")
        assert out[1:] == [f"     - violation {i}" for i in range(5)]

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": 2, "edges": [1, 2]}',
            '{"vertices": 2, "edges": [[0, 1, 1]]}',
            '{"vertices": 2, "edges": {"0": 1}}',
            '{"vertices": 2, "edges": [[0, true]]}',
            '{"vertices": 2.0, "edges": [[0, 1]]}',
            '{"vertices": "2", "edges": [[0, 1]]}',
            '{"vertices": true, "edges": [[0, 0]]}',
            '{"vertices": 2, "edges": [[0, 1], [0, 1]], "distinguished": true}',
            '{"vertices": 2, "edges": [[0, 1], [0, 1]], "distinguished": "0"}',
        ],
    )
    def test_malformed_graph_json_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["pattern", "x", "--graph", str(bad)]) == 1
        assert "error: graph JSON" in capsys.readouterr().err

    def test_missing_file_exit_1(self, capsys):
        assert main(["pattern", "x", "--graph", "/nonexistent.json"]) == 1

    def test_invocation_echoed(self, k4me_file, capsys):
        main(["pattern", "x", "--graph", k4me_file])
        err = capsys.readouterr().err
        assert err.startswith("# spcube pattern")

    @pytest.mark.parametrize(
        "argv, want",
        [
            pytest.param(["verify"], None, marks=pytest.mark.slow),
            # table fib reads no --method, so its echo names none
            (["table", "fib", "--max-d", "4"], "# spcube table fib --emit csv --max-d 4"),
            (["table", "m", "--max-d", "6", "--emit", "md"],
             "# spcube table m --emit md --max-d 6 --method dp"),
            (["f2", "--a", "3", "--b", "2", "--seed", "7", "--mode", "edge"], None),
            (["pattern", "named", "--name", "partite", "--params", "1,2"], None),
            (["ex-layer", "--a", "2", "--b", "2", "--pattern", "{xc2}"], None),
        ],
        ids=["verify", "table-fib", "table-m", "f2", "pattern-named", "ex-layer"],
    )
    def test_echo_reruns(self, tmp_path, capsys, argv, want):
        # the echoed line, run again, does the same work
        xc2 = tmp_path / "x c2.pat"  # a space, so the path must be quoted
        xc2.write_text("vertex 1 1\n01\n10\n")
        argv = [arg.format(xc2=xc2) for arg in argv]
        code = main(argv)
        first = capsys.readouterr()
        echo = first.err.splitlines()[0]
        assert echo.startswith("# spcube ")
        assert want is None or echo == want
        again = shlex.split(echo.removeprefix("# spcube "))
        assert main(again) == code
        second = capsys.readouterr()
        assert _TIMES.sub("", second.out) == _TIMES.sub("", first.out)
        assert second.err.splitlines()[0] == echo

    def test_echo_keeps_zero_seed(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["f2", "--a", "2", "--b", "2", "--seed", "0", "--out", str(out)]) == 0
        assert "--seed 0" in capsys.readouterr().err.splitlines()[0]

    def test_echo_keeps_zero_coord(self, tmp_path, capsys):
        p = tmp_path / "p.txt"
        p.write_text("vertex 1 1\n01\n10\n")
        assert main(["op", "dup", "--pattern", str(p), "--coord", "0"]) == 0
        assert "--coord 0" in capsys.readouterr().err.splitlines()[0]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["table", "fib", "--max-d", "3", "--method", "dp"], "--method"),
            (["table", "fib", "--max-d", "3", "--method", "terms"], "--method"),
            (["table", "m", "--max-d", "3", "--witness-only"], "--witness-only"),
        ],
    )
    def test_option_of_the_other_table_exit_64(self, capsys, argv, option):
        assert main(argv) == 64
        assert f"error: {option} applies to table" in capsys.readouterr().err

    def test_removed_options_rejected(self, k4me_file, tmp_path, capsys):
        # --threads changed nothing, and ex-cube --mode only re-asked the
        # pattern file's header
        xc2 = tmp_path / "xc2.pat"
        xc2.write_text("vertex 1 1\n01\n10\n")
        assert main(["--threads", "4", "pattern", "x", "--graph", k4me_file]) == 64
        assert main(["ex-cube", "--n", "2", "--pattern", str(xc2), "--mode", "vertex"]) == 64


class TestOneParser:
    """``main`` builds its parser on the first call and reuses it: no call
    leaves a trace in the next one."""

    def test_built_on_the_first_call_not_at_import(self):
        src = str(Path(patterns.__file__).parents[1])
        probe = (
            "import spcube.cli as c; print(c._build_parser.cache_info().currsize); "
            "c.main(['table', 'fib', '--max-d', '0']); print(c._build_parser.cache_info().currsize)"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert run.stdout.splitlines()[0] == "0"
        assert run.stdout.splitlines()[-1] == "1"

    def test_one_command_then_another(self, capsys):
        # table m resolves its --method in the namespace; table fib refuses
        # any --method, so a resolved default that outlived its call would
        # refuse the fib table.  The echo lists every option the namespace
        # holds, so one left from an earlier command would show there
        assert main(["table", "m", "--max-d", "2"]) == 0
        assert [ln.split(",")[1] for ln in capsys.readouterr().out.splitlines()[1:]] == ["1", "2"]
        assert main(["table", "fib", "--max-d", "2"]) == 0
        captured = capsys.readouterr()
        assert [ln.split(",")[1] for ln in captured.out.splitlines()[1:]] == ["1", "1", "2"]
        assert captured.err.splitlines()[0] == "# spcube table fib --emit csv --max-d 2"
        assert main(["pattern", "named", "--name", "x16"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("vertex 3 3\n")
        assert captured.err.splitlines()[0] == "# spcube pattern named --name x16"

    def test_usage_error_then_a_valid_command(self, capsys):
        assert main(["table", "fib", "--max-d", "3", "--frobnicate"]) == 64
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err
        assert main(["table", "fib", "--max-d", "3"]) == 0
        captured = capsys.readouterr()
        assert [ln.split(",")[1] for ln in captured.out.splitlines()[1:]] == ["1", "1", "2", "3"]
        assert captured.err.splitlines()[0] == "# spcube table fib --emit csv --max-d 3"

    def test_help_twice(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr()
        assert main(["--help"]) == 0
        second = capsys.readouterr()
        assert first.out.startswith("usage: spcube") and first.err == ""
        assert second == first


# every subcommand that reads a file, with {f} the fuzzed file, {x} a valid
# pattern file and {h} a valid pattern-graph file
_READS_A_FILE = {
    "pattern-x": ["pattern", "x", "--graph", "{f}"],
    "pattern-y": ["pattern", "y", "--graph", "{f}", "--edge", "0"],
    "pattern-h": ["pattern", "h", "--graph", "{f}"],
    "op-dup": ["op", "dup", "--pattern", "{f}", "--coord", "0"],
    "op-codup": ["op", "codup", "--pattern", "{f}", "--coord", "1"],
    "op-dual": ["op", "dual", "--pattern", "{f}"],
    "op-phi": ["op", "phi", "--pattern", "{f}"],
    "op-psi": ["op", "psi", "--pattern", "{f}", "--coord", "0"],
    "product-join-h1": ["op", "product-join", "--h1", "{f}", "--h2", "{h}"],
    "product-join-h2": ["op", "product-join", "--h1", "{h}", "--h2", "{f}"],
    "density-small": ["density", "--small", "{f}", "--big", "{x}"],
    "density-big": ["density", "--small", "{x}", "--big", "{f}"],
    "density-both": ["density", "--small", "{f}", "--big", "{f}"],
    "contains-set": ["contains", "--set", "{f}", "--pattern", "{x}"],
    "contains-pattern": ["contains", "--set", "{x}", "--pattern", "{f}"],
    "contains-both": ["contains", "--set", "{f}", "--pattern", "{f}"],
    "ex-layer": ["ex-layer", "--a", "2", "--b", "2", "--pattern", "{f}"],
    "ex-layer-huge": ["ex-layer", "--a", "3000", "--b", "3000", "--pattern", "{f}"],
    "ex-layer-brute-force": ["ex-layer", "--a", "2", "--b", "2", "--pattern", "{f}", "--brute-force"],
    "ex-cube": ["ex-cube", "--n", "2", "--pattern", "{f}"],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "x.pat").write_text("vertex 1 1\n01\n10\n")
    (path / "h.json").write_text(pg_to_json(h_graph(catalog.c2_marked(), 0)) + "\n")
    return path


class TestFuzz:
    @pytest.mark.parametrize("argv", _READS_A_FILE.values(), ids=_READS_A_FILE.keys())
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.binary())
    @example(data=b"vertex 1 1\n01\n10\n")
    @example(data=b"vertex 500 500\n" + b"0" * 500 + b"1" * 500 + b"\n")
    @example(data=b"[" * 100_000 + b"]" * 100_000)  # deeper than the JSON decoder recurses
    @example(data=b"vertex 10000000000 0\n")  # 1 << (a + b) would be 1.25 GB
    def test_any_bytes_exit_with_a_documented_code(self, fuzz_dir, argv, data):
        fuzzed = fuzz_dir / "fuzzed"
        fuzzed.write_bytes(data)
        names = {"f": fuzzed, "x": fuzz_dir / "x.pat", "h": fuzz_dir / "h.json"}
        assert main([arg.format(**names) for arg in argv]) in (0, 1, 2, 64)
