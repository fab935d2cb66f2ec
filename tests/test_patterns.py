import random
from itertools import product

import pytest

from pattern_oracle import (
    components_reference,
    h_reference,
    json_reference,
    psi_reference,
    shape_reference,
    two_connected_reference,
    y_reference,
)
from spcube import (
    EDGE,
    EdgePattern,
    Multigraph,
    PatternGraph,
    SizeGuardError,
    VertexPattern,
    alon_pattern,
    dual_pattern,
    edge_pattern_from_pattern_graph,
    enumerate_connected_sp,
    enumerate_terms,
    h_graph,
    layer_strings,
    named_pattern,
    partite_pattern,
    format_string,
    parse_string,
    pattern_graph_from_edge_pattern,
    pg_is_two_connected,
    phi,
    product_join,
    psi,
    series,
    spanning_trees,
    starred_layer_strings,
    to_marked_graph,
    two_sum,
    x16_pattern,
    x_k4_pattern,
    x_pattern,
    y18_pattern,
    y_k4_pattern,
    y_pattern,
)
from spcube import catalog, multigraph, patterns
from spcube.embeddings import _cube_universe
from spcube.multigraph import _is_bridge
from spcube.patterns import (
    PATTERN_OUTPUT_LIMIT,
    pg_components, pg_from_json, pg_is_connected, pg_shape, pg_to_json, sort_key,
)
from spcube.verify import (
    check_duality,
    check_g0_components,
    check_gluing,
    check_h_connected,
    check_named_patterns,
    check_phi_psi,
    check_weight_law,
)

TRIANGLE_MARKED = Multigraph(3, ((0, 1), (1, 2), (0, 2)), distinguished=2)


class TestTypes:
    def test_vertex_pattern_validates(self):
        with pytest.raises(ValueError):
            VertexPattern(1, 1, frozenset({"11"}))

    def test_edge_pattern_validates(self):
        with pytest.raises(ValueError):
            EdgePattern(1, 0, frozenset({"00"}))
        with pytest.raises(ValueError):
            EdgePattern(1, 0, frozenset({"**"}))

    def test_pattern_graph_validates_strings(self):
        with pytest.raises(ValueError):
            PatternGraph(frozenset({"0a"}), frozenset({"1a"}), frozenset({("0a", "1a")}))
        with pytest.raises(ValueError):
            PatternGraph(frozenset(), frozenset({"1a"}), frozenset())
        with pytest.raises(ValueError):
            PatternGraph(frozenset(), frozenset({"01", "011"}), frozenset())
        with pytest.raises(ValueError):  # an upper part over two layers
            PatternGraph(frozenset(), frozenset({"01", "11"}), frozenset())
        with pytest.raises(ValueError):
            pg_from_json('{"lower": [], "upper": ["01", "11"], "edges": []}')
        h = PatternGraph(frozenset(), frozenset({"01"}), frozenset())
        assert (h.width, h.upper) == (2, (0b10,))  # character j is bit j

    def test_string_boundary(self):
        # character j is coordinate j, bit j of the mask
        assert parse_string("1000", 4) == 0b0001
        assert parse_string("0110", 4) == 0b0110
        assert parse_string("01*", 3, starred=True) == (0b010, 2)
        assert format_string(0b0001, 4) == "1000"
        assert format_string((0b010, 0), 3) == "*10"
        assert format_string(0, 0) == ""
        for bad, width, starred in [
            ("0a", 2, False), ("01", 3, False), ("0*", 2, False), ("01", 2, True),
            ("**", 2, True), (" 1", 2, False), ("1_0", 3, False), (5, 1, False),
        ]:
            with pytest.raises(ValueError):
                parse_string(bad, width, starred)

    def test_sort_order_zero_one_star(self):
        strings = ["1*", "*1", "10", "01"]
        assert sorted(strings, key=sort_key) == ["01", "10", "1*", "*1"]

    def test_element_order_is_string_order(self):
        # the starred layers and the cube universes are sorted as masks and
        # pairs; their strings must come out as sort_key sorts them
        for width in range(8):
            every = ["".join(c) for c in product("01*", repeat=width) if c.count("*") == 1]
            for b in range(width):
                want = sorted((s for s in every if s.count("1") == b), key=sort_key)
                assert starred_layer_strings(width - 1 - b, b) == want
        for n in range(5):
            for starred in (False, True):
                want = sorted(
                    ("".join(c) for c in product("01*", repeat=n) if c.count("*") == starred),
                    key=sort_key,
                )
                assert [format_string(e, n) for e in _cube_universe(n, starred)] == want


class TestXPattern:
    def test_worked_example(self):
        x = x_pattern(catalog.k4_minus_edge())
        assert (x.a, x.b) == (2, 3)
        assert x.strings == {
            "01110", "10110", "11010", "11100",
            "01011", "01101", "10101", "10011",
        }

    def test_c2(self):
        x = x_pattern(catalog.c2())
        assert (x.a, x.b) == (1, 1)
        assert x.strings == {"01", "10"}

    def test_fib_witness_g4(self):
        assert len(x_pattern(catalog.fib_chain(4))) == 5

    def test_k1_empty_string(self):
        x = x_pattern(catalog.k1())
        assert (x.a, x.b) == (0, 0)
        assert x.strings == {""}

    def test_layer_law(self):
        assert check_weight_law(max_d=6) == []


class TestYPattern:
    def test_worked_example_eight_cycle(self):
        y = y_pattern(catalog.k4_minus_edge(), 4)
        assert (y.a, y.b) == (1, 2)  # L'(e-v, v-2)
        assert len(y) == 8

    def test_c2(self):
        y = y_pattern(catalog.c2(), 0)
        assert y.strings == {"*"}
        assert (y.a, y.b) == (0, 0)

    def test_triangle(self):
        assert y_pattern(TRIANGLE_MARKED, 2).strings == {"1*", "*1"}

    def test_bridge_rejected(self):
        g = Multigraph(3, ((0, 1), (1, 2), (1, 2)))
        with pytest.raises(ValueError):
            y_pattern(g, 0)

    def test_loop_rejected(self):
        g = Multigraph(2, ((0, 1), (0, 1), (0, 0)))
        with pytest.raises(ValueError):
            y_pattern(g, 2)

    def test_defaults_to_mark(self):
        g = catalog.c2_marked()
        assert y_pattern(g) == y_pattern(g, 0)


class TestHGraph:
    def test_worked_example_c8(self):
        h = h_graph(catalog.k4_minus_edge(), 4)
        assert pg_shape(h) == "cycle(8)"
        # the eight-cycle vertex sequence, lower/upper alternating
        cycle = ["0101", "0111", "0110", "1110", "1010", "1011", "1001", "1101"]
        want = set()
        for i, s in enumerate(cycle):
            t = cycle[(i + 1) % 8]
            lo, hi = (s, t) if s.count("1") < t.count("1") else (t, s)
            want.add((parse_string(lo, 4), parse_string(hi, 4)))
        assert {(h.lower[x], h.upper[y - len(h.lower)]) for x, y in h.edges} == want

    def test_triangle_path(self):
        h = h_graph(TRIANGLE_MARKED, 2)
        assert pg_shape(h) == "path(3)"

    def test_connected_for_terms(self):
        assert check_h_connected(max_d=6) == []

    def test_edge_pattern_round_trip(self):
        h = h_graph(catalog.k4_minus_edge(), 4)
        y = y_pattern(catalog.k4_minus_edge(), 4)
        assert edge_pattern_from_pattern_graph(h) == y
        assert pattern_graph_from_edge_pattern(y) == h


class TestDualPattern:
    def test_triangle_vs_triple_edge(self):
        tri = x_pattern(Multigraph(3, ((0, 1), (1, 2), (0, 2))))
        par = x_pattern(catalog.parallel_edges(3))
        assert dual_pattern(tri) == par

    def test_involution_random(self):
        import random

        rng = random.Random(1)
        pool = layer_strings(2, 3)
        for _ in range(100):
            x = VertexPattern(2, 3, frozenset(rng.sample(pool, rng.randint(0, 8))))
            assert dual_pattern(dual_pattern(x)) == x

    def test_star_fixed(self):
        y = EdgePattern(0, 1, frozenset({"1*", "*1"}))
        assert dual_pattern(y).strings == {"0*", "*0"}

    def test_term_duality_suite(self):
        assert check_duality(max_d=6) == []


class TestPhiPsi:
    def test_phi_on_worked_example(self):
        g = catalog.k4_minus_edge()  # the marked edge is already last
        assert phi(y_pattern(g, 4)) == x_pattern(g)

    def test_phi_single_star(self):
        y = EdgePattern(0, 0, frozenset({"*"}))
        assert phi(y).strings == {"01", "10"}

    def test_phi_empty(self):
        assert phi(EdgePattern(1, 1, frozenset())).strings == frozenset()

    def test_psi_on_worked_example(self):
        # y_pattern is psi of x_pattern, so psi is checked against Y from
        # the two minors' trees
        g = catalog.k4_minus_edge()
        assert psi(x_pattern(g), 4) == y_reference(g, 4)

    def test_psi_c2(self):
        x = VertexPattern(1, 1, frozenset({"01", "10"}))
        assert psi(x, 0).strings == {"*"}

    def test_psi_single_string_empty(self):
        x = VertexPattern(1, 1, frozenset({"01"}))
        assert psi(x, 0).strings == frozenset()

    def test_psi_range_checked(self):
        x = VertexPattern(1, 1, frozenset({"01"}))
        with pytest.raises(ValueError):
            psi(x, 2)

    def test_round_trips_for_terms(self):
        assert check_phi_psi(max_d=6) == []


def _valid_edges(g):
    return [i for i, (u, v) in enumerate(g.edges) if u != v and not _is_bridge(g, i)]


class TestAgainstDefinitions:
    """Y, H and psi against the string-level definitions in pattern_oracle."""

    def test_y_and_h_on_census(self):
        checked = 0
        for d in range(1, 7):
            for g in enumerate_connected_sp(d):
                for i in _valid_edges(g):
                    assert y_pattern(g, i) == y_reference(g, i)
                    assert h_graph(g, i) == h_reference(g, i)
                    checked += 1
        assert checked == 1082

    def test_y_and_h_on_terms(self):
        checked = 0
        for d in range(1, 8):
            for t in enumerate_terms(d):
                g = to_marked_graph(t)
                for i in _valid_edges(g):
                    assert y_pattern(g, i) == y_reference(g, i)
                    assert h_graph(g, i) == h_reference(g, i)
                    checked += 1
        assert checked == 3569

    def test_h_is_the_graph_of_y_on_census(self):
        # when i is neither a loop nor a bridge, each tree of g/i has a
        # Hamming-1 partner among the trees of g - i and vice versa
        for d in range(1, 7):
            for g in enumerate_connected_sp(d):
                for i in _valid_edges(g):
                    h = h_graph(g, i)
                    assert all(len(c) > 1 for c in components_reference(h))
                    assert h == pattern_graph_from_edge_pattern(y_pattern(g, i))

    def test_psi_on_random_patterns(self):
        rng = random.Random(4242)
        for _ in range(300):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            pool = layer_strings(a, b)
            x = VertexPattern(a, b, frozenset(rng.sample(pool, rng.randint(0, len(pool)))))
            i = rng.randrange(a + b)
            assert psi(x, i) == psi_reference(x, i)


def _random_pattern_graph(rng: random.Random) -> PatternGraph:
    """Random parts of two consecutive layers and a random subset of the
    Hamming-1 pairs between them, so isolated vertices are common."""
    width = rng.randint(1, 6)
    k = rng.randint(0, width - 1)
    lower = [m for m in range(1 << width) if m.bit_count() == k and rng.random() < 0.6]
    upper = [m for m in range(1 << width) if m.bit_count() == k + 1 and rng.random() < 0.6]
    pairs = [(lo, hi) for lo in lower for hi in upper if lo & ~hi == 0]
    edges = [p for p in pairs if rng.random() < 0.7]
    return PatternGraph.from_masks(width, lower, upper, edges)


def _cycle(m: int) -> PatternGraph:
    """The 2m-cycle bit i - {i, i+1} - bit i+1 - ... around m coordinates."""
    upper = [1 << i | 1 << (i + 1) % m for i in range(m)]
    edges = [(1 << i, u) for u in upper for i in range(m) if u >> i & 1]
    return PatternGraph.from_masks(m, [1 << i for i in range(m)], upper, edges)


def _structure_cases() -> list[PatternGraph]:
    rng = random.Random(1919)
    cases = [_random_pattern_graph(rng) for _ in range(300)]
    for _ in range(20):  # an empty lower part, upper masks of mixed weight
        width = rng.randint(1, 5)
        upper = rng.sample(range(1 << width), rng.randint(1, 1 << width))
        cases.append(PatternGraph.from_masks(width, [], upper, []))
    cases.append(PatternGraph.from_masks(3, [0b011], [], []))
    cases.append(PatternGraph.from_masks(0, [], [], []))
    for m in range(3, 8):
        c = _cycle(m)
        cases.append(c)
        v = c.lower + c.upper  # masks by vertex number
        for cut in range(1, len(c.edges)):  # paths, some beside isolated vertices
            edges = [(v[x], v[y]) for x, y in c.edges[cut:]]
            cases.append(PatternGraph.from_masks(m, c.lower, c.upper, edges))
    cases += [product_join(_cycle(m1), _cycle(m2)) for m1 in (3, 4, 5) for m2 in (3, 4)]
    connected = [h for h in cases if h.edges and len(components_reference(h)) == 1]
    for _ in range(40):
        h1, h2 = rng.choice(connected), rng.choice(connected)
        if h1.width + h2.width <= 10:
            cases.append(product_join(h1, h2))
    return cases


class TestStructureAgainstUnionFind:
    """pg_components, pg_is_connected, pg_is_two_connected and pg_shape
    against the union-find definitions in pattern_oracle."""

    def test_random_pattern_graphs(self):
        shapes = set()
        for h in _structure_cases():
            comps = components_reference(h)
            assert pg_components(h) == comps
            assert pg_is_connected(h) == (len(comps) <= 1)
            assert pg_is_two_connected(h) == two_connected_reference(h)
            shape = pg_shape(h)
            assert shape == shape_reference(h)
            shapes.add(shape.split("(")[0])
        assert shapes == {"cycle", "path", "graph"}

    def test_components_in_one_pass(self, monkeypatch):
        """pg_components labels all of H in one search, however many
        components H has."""
        calls = []
        search = multigraph._components

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(multigraph, "_components", counted)
        monkeypatch.setattr(patterns, "_components", counted)
        lower = [1 << j for j in range(50)]
        edges = [(lo, lo | 1 << 50) for lo in lower]  # 50 disjoint edges
        h = PatternGraph.from_masks(51, lower, [hi for _, hi in edges], edges)
        comps = pg_components(h)
        assert len(calls) == 1
        assert len(comps) == 50 and comps == components_reference(h)

    def test_census_pattern_graphs(self):
        for d in range(1, 6):
            for g in enumerate_connected_sp(d):
                for i in _valid_edges(g):
                    h = h_graph(g, i)
                    assert pg_components(h) == components_reference(h)
                    assert pg_is_two_connected(h) == two_connected_reference(h)
                    assert pg_shape(h) == shape_reference(h)


class TestJsonAgainstStrings:
    """pg_to_json against the JSON built from H's strings, sorted as
    strings, and the reader's round trip."""

    @staticmethod
    def _check(h):
        text = pg_to_json(h)
        assert text == json_reference(h)
        if len({m.bit_count() for m in h.upper}) > 1:
            # only the trusted mask constructor builds an upper part over
            # several layers; the reader refuses it
            with pytest.raises(ValueError):
                pg_from_json(text)
        elif h.lower or h.upper:
            assert pg_from_json(text) == h
        else:  # no vertex writes no width
            assert pg_from_json(text) == PatternGraph((), (), ())

    def test_structure_cases(self):
        for h in _structure_cases():
            self._check(h)

    def test_census_pattern_graphs(self):
        for d in range(1, 6):
            for g in enumerate_connected_sp(d):
                for i in _valid_edges(g):
                    self._check(h_graph(g, i))


class TestProductJoin:
    def test_k2_k2(self):
        k2 = h_graph(catalog.c2_marked(), 0)
        joined = product_join(k2, k2)
        assert pg_shape(joined) == "path(3)"
        # exactly the pattern graph of the 2-sum of two marked 2-cycles
        glued = two_sum(catalog.c2_marked(), catalog.c2_marked())
        assert joined == h_graph(glued, 0)
        # and the same graph shape as the triangle's pattern graph
        assert pg_shape(h_graph(TRIANGLE_MARKED, 2)) == "path(3)"

    def test_gluing_suite(self):
        assert check_gluing(samples=60) == []

    def test_two_connected_preserved_spot(self):
        c8 = h_graph(catalog.k4_minus_edge(), 4)
        assert pg_is_two_connected(c8)
        joined = product_join(c8, c8)
        assert pg_is_two_connected(joined)
        smaller = h_graph(to_marked_graph(series(EDGE, EDGE, EDGE)), 0)
        if pg_is_two_connected(smaller):
            assert pg_is_two_connected(product_join(c8, smaller))

    def test_refused_above_the_output_guard(self, monkeypatch):
        # a star of w edges joined with itself writes 6w + 1 strings of
        # width 2w: 16,767,852 characters at w = 1182, 16,796,234 at 1183
        def star(w):
            ups = [1 << i for i in range(w)]
            return PatternGraph.from_masks(w, [0], ups, [(0, u) for u in ups])

        joined = product_join(star(1182), star(1182))
        strings = len(joined.lower) + len(joined.upper) + 2 * len(joined.edges)
        assert strings * joined.width == 7093 * 2364 <= PATTERN_OUTPUT_LIMIT

        def unbuilt(h):
            raise AssertionError("a join was started above the output guard")

        monkeypatch.setattr(patterns, "pg_is_connected", unbuilt)
        with pytest.raises(SizeGuardError, match="would write 7099 strings of width 2366, over"):
            product_join(star(1183), star(1183))

    def test_disconnected_rejected(self):
        from spcube import PatternGraph

        broken = PatternGraph(
            frozenset({"01", "10"}), frozenset({"11"}), frozenset({("01", "11")})
        )
        k2 = h_graph(catalog.c2_marked(), 0)
        with pytest.raises(ValueError):
            product_join(broken, k2)


class TestG0Components:
    def test_extra_block_multiplies(self):
        g0 = to_marked_graph(series(EDGE, EDGE))
        g = Multigraph(
            g0.n + 1,
            g0.edges + ((0, g0.n), (0, g0.n)),
            distinguished=0,
        )  # hang a 2-cycle off a terminal
        h = h_graph(g, 0)
        assert len(pg_components(h)) == 2

    def test_suite(self):
        assert check_g0_components(max_d=4) == []


class TestNamedPatterns:
    def test_alon_1_1(self):
        assert alon_pattern((1, 1)).strings == {"10", "01"}

    def test_alon_count_formula(self):
        from math import prod

        sizes = (2, 3, 2)
        want = sum(
            prod(a for j, a in enumerate(sizes) if j != i) for i in range(len(sizes))
        )
        assert len(alon_pattern(sizes)) == want == 2 * 3 + 3 * 2 + 2 * 2

    def test_partite_1_1(self):
        assert partite_pattern((1, 1)).strings == {"1*", "*1"}

    @pytest.mark.parametrize(
        "sizes", [(1,), (3,), (1, 1), (2, 1), (1, 2, 2), (3, 1, 2, 1), (2,) * 5]
    )
    def test_partite_graph_is_the_marked_path_of_classes(self, sizes):
        k = len(sizes)
        edges = [(i, i + 1) for i, a in enumerate(sizes) for _ in range(a)] + [(0, k)]
        want = Multigraph(k + 1, edges, distinguished=len(edges) - 1)
        assert catalog.partite_graph(sizes) == want

    @pytest.mark.parametrize("sizes", [(), (0,), (2, 0, 1)])
    def test_partite_graph_refuses_empty_classes(self, sizes):
        with pytest.raises(ValueError, match="need at least one class"):
            catalog.partite_graph(sizes)

    def test_partite_count_formula(self):
        sizes = (2, 2, 3)
        assert len(partite_pattern(sizes)) == len(sizes) * 2 * 2 * 3

    def test_match_class_graphs(self):
        assert check_named_patterns(max_total=7) == []

    def test_x16(self):
        x16 = x16_pattern()
        assert len(x16) == 16
        assert x_k4_pattern is x16_pattern  # one definition, two names
        missing = frozenset(layer_strings(3, 3)) - x16.strings
        assert missing == {"010101", "011010", "100110", "101001"}

    def test_y18(self):
        assert len(y18_pattern()) == 18
        assert y_k4_pattern is y18_pattern

    def test_dispatcher(self):
        # every named family is the X or Y of its catalog graph
        sizes = (2, 1, 3)
        want = {
            "alon": x_pattern(catalog.alon_graph(sizes)),
            "partite": y_pattern(catalog.partite_graph(sizes)),
            "x16": x_pattern(catalog.k4_x16()),
            "y18": y_pattern(catalog.k4_y18()),
            "x_k4": x_pattern(catalog.k4_x16()),
            "y_k4": y_pattern(catalog.k4_y18()),
        }
        for name, pattern in want.items():
            assert named_pattern(name, sizes if name in ("alon", "partite") else ()) == pattern
        assert named_pattern("alon", sizes) == alon_pattern(sizes)
        assert named_pattern("partite", sizes) == partite_pattern(sizes)
        assert x_k4_pattern is x16_pattern and y_k4_pattern is y18_pattern
        for sizes in ((), (1,)):
            with pytest.raises(ValueError, match="unknown named pattern 'nope'"):
                named_pattern("nope", sizes)
        with pytest.raises(ValueError, match="takes no size parameters"):
            named_pattern("x16", (1,))

    @pytest.mark.parametrize("name", ["alon", "partite"])
    @pytest.mark.parametrize("sizes", [(), (0,), (2, 0, 1), (3, -1)])
    def test_dispatcher_refuses_empty_classes(self, name, sizes):
        with pytest.raises(ValueError, match="need at least one class, all sizes positive"):
            named_pattern(name, sizes)


class TestK4Extension:
    def test_x_k4_from_trees(self):
        assert len(spanning_trees(catalog.k4_x16())) == 16

    def test_y_k4_is_marked_k4(self):
        g = catalog.k4_y18()
        assert g.e == 6
        assert y_k4_pattern() == y_pattern(g, 5)
