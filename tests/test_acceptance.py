"""Acceptance suite: the quantitative contract of the whole package.

Each test prints one PASS line with its headline numbers (run pytest with
-s to see them).  Bounds and tolerances are pinned here, not configurable.
"""

import time

from spcube import (
    contains_pattern,
    density_lower_bound,
    enumerate_maps,
    ex_layer,
    ex_layer_bruteforce,
    f2_vertex_density,
    f2_vertex_set,
    fib,
    h_graph,
    layer_strings,
    m_table,
    max_spanning_trees,
    x16_pattern,
    x_pattern,
    y18_pattern,
)
from spcube import catalog
from spcube.cli import main
from spcube.patterns import VertexPattern, pg_shape
from spcube.embeddings import count_maps
from spcube.verify import (
    check_core_correspondence_terms,
    check_duality,
    check_gluing,
    check_named_patterns,
    check_phi_psi,
)

X_WORKED = {
    "01110", "10110", "11010", "11100",
    "01011", "01101", "10101", "10011",
}
X_CONTRACT = {"0101", "0110", "1001", "1010"}
X_DELETE = {"0111", "1011", "1101", "1110"}
TABLE_M_12 = [1, 2, 4, 8, 14, 24, 42, 72, 122, 204, 343, 576]
TABLE_M_STRETCH = [960, 1608]
FIB_MAXIMA = [1, 1, 2, 3, 5, 8, 13, 21, 34]


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_worked_example(capsys):
    start = time.perf_counter()
    g = catalog.k4_minus_edge()
    assert x_pattern(g).strings == frozenset(X_WORKED)
    from spcube.multigraph import contract, delete_edge

    assert x_pattern(contract(g, 4)).strings == frozenset(X_CONTRACT)
    assert x_pattern(delete_edge(g, 4)).strings == frozenset(X_DELETE)
    h = h_graph(g, 4)
    assert pg_shape(h) == "cycle(8)"
    # same answers through the CLI surface
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        from spcube.multigraph import graph_to_json

        fh.write(graph_to_json(g))
        path = fh.name
    assert main(["pattern", "x", "--graph", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert set(out[1:]) == X_WORKED
    assert main(["pattern", "h", "--graph", path, "--edge", "4"]) == 0
    assert "cycle(8)" in capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report("01 worked example", f"{elapsed:.2f}s")


def test_criterion_02_m_table():
    start = time.perf_counter()
    rows = m_table(12)
    values = [r.value for r in rows]
    assert values == TABLE_M_12
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    stretch = [r.value for r in m_table(14)[12:]]
    assert stretch == TABLE_M_STRETCH
    _report("02 max-edge table", f"m(1..12) exact in {elapsed:.2f}s; stretch 13-14 ok")


def test_criterion_03_fibonacci():
    start = time.perf_counter()
    values = [max_spanning_trees(d, "exhaustive").value for d in range(9)]
    assert values == FIB_MAXIMA
    assert values == [fib(d + 1) for d in range(9)]
    chain = [max_spanning_trees(d, "witness").value for d in range(17)]
    assert chain == [fib(d + 1) for d in range(17)]
    assert chain[16] == 1597
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("03 fibonacci maxima", f"census to 8 edges + chain to 16 in {elapsed:.2f}s")


def test_criterion_04_m_bounds():
    from spcube import check_m_bounds

    rows = m_table(14)
    report = check_m_bounds(rows)
    assert all(r["ok"] for r in report)
    _report("04 m bounds", f"F(d+2)-1 <= m(d) <= d*F(d+2)/2 for d <= {rows[-1].d}")


def test_criterion_05_core_correspondence():
    assert check_core_correspondence_terms(max_d=8) == []
    _report("05 operator correspondence", "every term with <= 8 edges, 0 violations")


def test_criterion_06_duality():
    assert check_duality(max_d=8) == []
    _report("06 duality", "every term with <= 8 edges, 0 violations")


def test_criterion_07_gluing():
    assert check_gluing(samples=200, max_combined=10, seed=1729) == []
    _report("07 product-join gluing", "200 random 2-sums, 0 violations")


def test_criterion_08_phi_psi():
    assert check_phi_psi(max_d=8) == []
    _report("08 phi/psi identities", "every term with <= 8 edges, 0 violations")


def test_criterion_09_named_patterns():
    assert check_named_patterns(max_total=7) == []
    x16 = x16_pattern()
    assert len(x16) == 16
    assert frozenset(layer_strings(3, 3)) - x16.strings == {
        "010101", "011010", "100110", "101001",
    }
    # y18: the Hamming-1 pairs between L(3,2) and L(2,3), each less two strings
    lower = set(layer_strings(3, 2)) - {"00011", "01100"}
    upper = set(layer_strings(2, 3)) - {"10101", "11010"}
    y18 = set()
    for lo in lower:
        for up in upper:
            diff = [j for j in range(5) if lo[j] != up[j]]
            if len(diff) == 1:
                y18.add(lo[: diff[0]] + "*" + lo[diff[0] + 1 :])
    assert len(y18) == 18 and y18_pattern().strings == y18
    _report("09 named patterns", "every block tuple of total <= 7 + x16/y18 exact")


def test_criterion_10_f2():
    start = time.perf_counter()
    full_middle = VertexPattern(2, 2, frozenset(layer_strings(2, 2)))
    for seed in range(50):
        contained, _ = contains_pattern(f2_vertex_set(4, 4, seed), full_middle)
        assert not contained
    mean = sum(f2_vertex_density(8, 8, seed) for seed in range(100)) / 100
    target = density_lower_bound(8)
    assert abs(float(mean) - float(target)) <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        "10 GF(2) construction",
        f"50 seeds avoid middle layer; mean density {float(mean):.4f} "
        f"vs {float(target):.4f} in {elapsed:.1f}s",
    )


def test_criterion_11_map_counts():
    from itertools import product as iproduct
    from math import factorial

    checked = 0
    for a, b, a2, b2 in iproduct(range(4), repeat=4):
        if a > a2 or b > b2:
            continue
        plain = sum(1 for _ in enumerate_maps(a, b, a2, b2))
        assert plain == factorial(a2 + b2) // (
            factorial(a2 - a) * factorial(b2 - b)
        )
        starred = sum(1 for _ in enumerate_maps(a, b, a2, b2, starred=True))
        assert starred == factorial(a2 + b2 + 1) // (
            factorial(a2 - a) * factorial(b2 - b)
        )
        assert plain == count_maps(a, b, a2, b2)
        checked += 1
    _report("11 embedding counts", f"{checked} parameter tuples, both formulas")


def test_criterion_12_extremal_oracles():
    xc2 = VertexPattern(1, 1, frozenset({"01", "10"}))
    value, _ = ex_layer(1, 1, xc2)
    assert value == 1
    value, witness = ex_layer(2, 2, xc2)
    assert value == 2 and witness == ["0011", "1100"]

    import random

    rng = random.Random(98765)
    layers = [(2, 2), (1, 3), (3, 1), (4, 1), (1, 4), (2, 3), (3, 2), (5, 1)]
    for trial in range(20):
        a2, b2 = rng.choice(layers)
        a = rng.randint(0, min(a2, 2))
        b = rng.randint(0, min(b2, 2))
        pool = layer_strings(a, b)
        x = VertexPattern(a, b, frozenset(rng.sample(pool, rng.randint(1, len(pool)))))
        assert ex_layer(a2, b2, x) == ex_layer_bruteforce(a2, b2, x)
    _report("12 extremal oracles", "pinned values + 20 random cross-checks")
