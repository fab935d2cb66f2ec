import json

import pytest

from spcube import (
    EdgePattern,
    VertexPattern,
    format_pattern,
    graph_to_json,
    layer_strings,
    parse_pattern,
    x_pattern,
)
from spcube import catalog
from spcube.cli import main
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

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_pattern("widget 1 1\n01\n")

    def test_pattern_graph_json_round_trip(self):
        h = h_graph(catalog.k4_minus_edge(), 4)
        assert pg_from_json(pg_to_json(h)) == h


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

    def test_ex_cube(self, tmp_path, capsys):
        small = tmp_path / "s.txt"
        small.write_text("vertex 1 1\n01\n10\n")
        assert main(["ex-cube", "--n", "2", "--pattern", str(small)]) == 0
        assert "ex = 2" in capsys.readouterr().out

    def test_f2_requires_seed(self, capsys):
        assert main(["f2", "--a", "4", "--b", "4"]) == 64

    def test_f2_runs(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(
            ["f2", "--a", "3", "--b", "3", "--seed", "7", "--out", str(out)]
        ) == 0
        pattern = parse_pattern(out.read_text())
        assert (pattern.a, pattern.b) == (3, 3)

    def test_f2_edge_mode(self, capsys):
        assert main(["f2", "--a", "2", "--b", "1", "--seed", "5", "--mode", "edge"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("edge 2 1")

    def test_table_fib(self, capsys):
        assert main(["table", "fib", "--max-d", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["1", "1", "2", "3", "5"]

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

    def test_echo_keeps_zero_seed(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["f2", "--a", "2", "--b", "2", "--seed", "0", "--out", str(out)]) == 0
        assert "--seed 0" in capsys.readouterr().err.splitlines()[0]

    def test_echo_keeps_zero_coord(self, tmp_path, capsys):
        p = tmp_path / "p.txt"
        p.write_text("vertex 1 1\n01\n10\n")
        assert main(["op", "dup", "--pattern", str(p), "--coord", "0"]) == 0
        assert "--coord 0" in capsys.readouterr().err.splitlines()[0]

    def test_threads_flag_accepted(self, k4me_file, capsys):
        assert main(["--threads", "4", "pattern", "x", "--graph", k4me_file]) == 0
