"""Aggregated property suites: every module's spec'd invariants as
callable checks returning violation lists.

Each check returns a list of human-readable violation strings (empty =
pass).  ``run_all`` drives them; the deep profile raises the search
bounds to their full documented ranges and takes about 6 s, the
default profile under a second (Python 3.11, shared 2-core x86 machine).
The pytest suite calls the same functions.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from . import catalog
from .constructions import (
    _reduce,
    density_lower_bound,
    f2_vertex_count,
    f2_vertex_density,
    f2_vertex_set,
    gf2_rank,
    random_vectors,
)
from .embeddings import (
    _map_tokens,
    apply_map,
    contains_pattern,
    count_maps,
    density_t,
    enumerate_maps,
    ex_layer,
    ex_layer_bruteforce,
)
from .multigraph import (
    Multigraph,
    _int_det,
    add_leaf,
    add_loop,
    blocks,
    canonical_form,
    contract,
    delete_edge,
    duplicate_edge,
    has_k4_minor,
    is_series_parallel,
    is_two_connected,
    one_sum,
    spanning_trees,
    subdivide_edge,
    tree_count,
    two_sum,
)
from .operators import CODUP, DUP, duplicate_e, duplicate_v
from .patterns import (
    VertexPattern,
    alon_pattern,
    dual_pattern,
    h_graph,
    layer_masks,
    layer_strings,
    parse_string,
    partite_pattern,
    pg_components,
    pg_is_connected,
    phi,
    psi,
    x_pattern,
    y_pattern,
    product_join,
    _starred,
)
from .search import fib, m_value, m_value_all_marked_graphs
from .spterm import (
    GraphDedup,
    SpTerm,
    dual,
    enumerate_connected_sp,
    enumerate_terms,
    format_term,
    tf_counts,
    to_marked_graph,
)

__all__ = ["run_all", "ALL_CHECKS"]


def _terms_upto(d_max: int):
    for d in range(1, d_max + 1):
        yield from enumerate_terms(d)


# ---------------------------------------------------------------------------
# multigraph checks


def check_deletion_contraction(max_edges: int = 6) -> list[str]:
    """|X(G)| = |X(G - e)| + |X(G / e)| for every non-bridge non-loop edge."""
    bad = []
    for d in range(1, max_edges + 1):
        for g in enumerate_connected_sp(d):
            total = len(spanning_trees(g))
            for i, (u, v) in enumerate(g.edges):
                if u == v:
                    continue
                gd = delete_edge(g, i)
                if not gd.is_connected():
                    continue
                parts = len(spanning_trees(gd)) + len(spanning_trees(contract(g, i)))
                if parts != total:
                    bad.append(f"deletion-contraction fails at edge {i} of {g}")
    return bad


def check_tree_weights(max_edges: int = 6) -> list[str]:
    """Every spanning tree has exactly v - 1 edges."""
    bad = []
    for d in range(1, max_edges + 1):
        for g in enumerate_connected_sp(d):
            for m in spanning_trees(g):
                if m.bit_count() != g.n - 1:
                    bad.append(f"tree mask {m:b} of {g} has wrong size")
    return bad


def _trees_by_subsets(g: Multigraph) -> list[int]:
    """Brute-force oracle: every acyclic (v-1)-subset of the non-loop
    edges, as sorted edge bitmasks."""
    non_loops = [i for i, (u, v) in enumerate(g.edges) if u != v]
    out = []
    for combo in combinations(non_loops, g.n - 1):
        parent = list(range(g.n))
        for idx in combo:
            u, v = g.edges[idx]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                break
            parent[u] = v
        else:
            out.append(sum(1 << idx for idx in combo))
    return sorted(out)


def _kirchhoff_count(g: Multigraph) -> int:
    """Oracle for ``tree_count``: the determinant of the whole graph's
    Laplacian with row and column 0 dropped (Kirchhoff), with no
    series-parallel reduction.  0 for a disconnected graph."""
    if g.n == 0:
        raise ValueError("tree count of the empty graph is undefined")
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    return _int_det([row[1:] for row in lap[1:]])


def check_tree_count_routes(max_edges: int = 6) -> list[str]:
    """``spanning_trees``' lists equal the brute-force subset filter's,
    and their length equals ``tree_count`` and the whole-graph Kirchhoff
    determinant."""
    bad = []
    for d in range(1, max_edges + 1):
        for g in enumerate_connected_sp(d):
            masks = spanning_trees(g)
            if not len(masks) == tree_count(g) == _kirchhoff_count(g):
                bad.append(f"enumerator, tree_count and determinant counts differ on {g}")
            if _trees_by_subsets(g) != masks:
                bad.append(f"enumerator vs subset filter differ on {g}")
    return bad


def check_sp_closure(max_edges: int = 5) -> list[str]:
    """The four elementary operations preserve series-parallelness."""
    bad = []
    for d in range(max_edges + 1):
        for g in enumerate_connected_sp(d):
            results = [add_loop(g, 0), add_leaf(g, 0)]
            results += [duplicate_edge(g, i) for i in range(g.e)]
            results += [subdivide_edge(g, i) for i in range(g.e)]
            for h in results:
                if not is_series_parallel(h):
                    bad.append(f"operation broke series-parallelness: {h}")
    return bad


def _two_connected_by_deletion(g: Multigraph) -> bool:
    """Oracle for ``is_two_connected``, by its definition: at least two
    edges, no loops, connected, and still connected after any one vertex
    is deleted, with no block search."""
    if g.e < 2 or any(u == v for u, v in g.edges) or not g.is_connected():
        return False
    return all(
        Multigraph.derived(
            g.n - 1,
            tuple((a - (a > v), b - (b > v)) for a, b in g.edges if v != a and v != b),
        ).is_connected()
        for v in range(g.n)
    )


def check_blocks_partition(max_edges: int = 6) -> list[str]:
    """Blocks partition the edge set; bridges and loops are singleton
    blocks; each block's edges map back to the parent's through its
    vertex ids."""
    bad = []
    for d in range(1, max_edges + 1):
        for g in enumerate_connected_sp(d):
            bs = blocks(g)
            seen = [i for b in bs for i in b.edge_indices]
            if sorted(seen) != list(range(g.e)):
                bad.append(f"blocks do not partition the edges of {g}")
            for b in bs:
                if b.graph.e > 1 and not _two_connected_by_deletion(b.graph):
                    bad.append(f"multi-edge block of {g} is not 2-connected")
                ids = b.vertex_ids
                back = [(ids[x], ids[y]) for x, y in b.graph.edges]
                if back != [g.edges[i] for i in b.edge_indices]:
                    bad.append(f"a block of {g} does not map back to its edges")
    return bad


def _all_connected_multigraphs(d: int) -> list[Multigraph]:
    """Census of ALL connected multigraphs with exactly d edges (not just
    series-parallel): closure under loop, leaf, and edge addition."""
    frontier = [Multigraph(1, ())]
    for _ in range(d):
        dedup = GraphDedup()
        for g in frontier:
            for v in range(g.n):
                dedup.add(add_loop(g, v))
                dedup.add(add_leaf(g, v))
                for w in range(v, g.n):
                    dedup.add(Multigraph.derived(g.n, g.edges + ((v, w),)))
        frontier = dedup.items
    return frontier


def check_sp_vs_minor(max_edges: int = 6) -> list[str]:
    """The reduction-based recognizer agrees with the brute-force K4-minor
    search on every connected multigraph with few edges."""
    bad = []
    for d in range(max_edges + 1):
        for g in _all_connected_multigraphs(d):
            if is_series_parallel(g) != (not has_k4_minor(g)):
                bad.append(f"recognizer disagrees with minor search on {g}")
    return bad


# ---------------------------------------------------------------------------
# spterm checks


def check_tf_oracle(max_d: int = 8) -> list[str]:
    """tf_counts matches the tree counts of the marked graph's deletion and
    contraction, which ``spanning_trees`` finds by reducing the graph
    rather than by walking the term.

    Both sides fold one rule, ``multigraph._count_tf``: this compares the
    term walk with the graph reduction, not the rule with anything else.
    The independent pins of the rule are ``check_tree_count_routes``,
    against the brute-force subset filter ``_trees_by_subsets``, and the
    tests' whole-graph enumerator, ``tests/tree_oracle.py``."""
    bad = []
    for t in _terms_upto(max_d):
        g = to_marked_graph(t)
        T, F = tf_counts(t)
        if len(spanning_trees(delete_edge(g, 0))) != T:
            bad.append(f"T mismatch for {format_term(t)}")
        if len(spanning_trees(contract(g, 0))) != F:
            bad.append(f"F mismatch for {format_term(t)}")
    return bad


def check_dual_tf(max_d: int = 8) -> list[str]:
    """dual swaps the (T, F) pair and is an involution."""
    bad = []
    for t in _terms_upto(max_d):
        if dual(dual(t)) != t:
            bad.append(f"dual is not an involution on {format_term(t)}")
        T, F = tf_counts(t)
        if tf_counts(dual(t)) != (F, T):
            bad.append(f"dual does not swap counts on {format_term(t)}")
    return bad


def check_marked_graphs_valid(max_d: int = 8) -> list[str]:
    """Marked graphs of terms are 2-connected and series-parallel."""
    bad = []
    for t in _terms_upto(max_d):
        g = to_marked_graph(t)
        if not is_two_connected(g):
            bad.append(f"{format_term(t)} gives a non-2-connected graph")
        if not is_series_parallel(g):
            bad.append(f"{format_term(t)} gives a non-series-parallel graph")
    return bad


def _redundant_terms(d: int) -> list[SpTerm]:
    """All flattened terms with d edges, canonical or not (series lists in
    every order); used as the generate-and-dedup enumeration oracle."""
    if d == 1:
        return [SpTerm("e")]
    out: list[SpTerm] = []
    _redundant_nodes("S", d, [], out)
    _redundant_nodes("P", d, [], out)
    return out


def _redundant_nodes(kind: str, remaining: int, prefix: list[SpTerm], out: list[SpTerm]) -> None:
    # Every ``kind`` node whose children after ``prefix`` (none of them of
    # that kind) have ``remaining`` edges.  The state is in the arguments: a
    # closure that calls itself would keep it alive in a reference cycle.
    if remaining == 0:
        out.append(SpTerm(kind, tuple(prefix)))
        return
    for size in range(1, remaining + 1):
        if size == remaining and not prefix:
            continue  # a single child is not a node
        for child in _redundant_terms(size):
            if child.kind != kind:
                prefix.append(child)
                _redundant_nodes(kind, remaining - size, prefix, out)
                prefix.pop()


def check_term_enumeration(max_d: int = 5) -> list[str]:
    """enumerate_terms is complete and duplicate-free: its count matches a
    redundant generate-then-isomorphism-dedup census, and no two canonical
    terms have isomorphic marked graphs."""
    bad = []
    for d in range(1, max_d + 1):
        canon = list(enumerate_terms(d))
        dedup = GraphDedup(use_distinguished=True)
        for t in _redundant_terms(d):
            dedup.add(to_marked_graph(t))
        if len(dedup.items) != len(canon):
            bad.append(
                f"d={d}: {len(canon)} canonical terms vs {len(dedup.items)} "
                "isomorphism classes"
            )
        first: dict[tuple, SpTerm] = {}
        for t in canon:
            t1 = first.setdefault(canonical_form(to_marked_graph(t), marked=True), t)
            if t1 is not t:
                bad.append(f"duplicate classes: {format_term(t1)} vs {format_term(t)}")
    return bad


def check_census_small_counts() -> list[str]:
    """Pinned counts for the smallest censuses (independently hand-checked):
    exactly {K1}, then {edge, loop}, then the four 2-edge graphs."""
    bad = []
    expected = {0: 1, 1: 2, 2: 4}
    for d, want in expected.items():
        got = len(enumerate_connected_sp(d))
        if got != want:
            bad.append(f"census({d}) has {got} graphs, expected {want}")
    return bad


# ---------------------------------------------------------------------------
# pattern checks


def check_weight_law(max_d: int = 7) -> list[str]:
    """Every element of x lies in L(e-v+1, v-1): a mask below bit e with
    v-1 ones.  Every element of y lies in L'(e-v, v-2): a star below e-1
    and a lower mask below bit e-1 with the star's bit clear and v-2 ones."""
    bad = []
    for t in _terms_upto(max_d):
        g = to_marked_graph(t)
        x = x_pattern(g)
        if any(m >> g.e or m.bit_count() != g.n - 1 for m in x.masks):
            bad.append(f"x layer law fails on {format_term(t)}")
        width = g.e - 1
        if any(
            not 0 <= star < width
            or lower >> star & 1
            or lower >> width
            or lower.bit_count() != g.n - 2
            for lower, star in psi(x, 0).pairs
        ):
            bad.append(f"y layer law fails on {format_term(t)}")
    return bad


def check_core_correspondence_terms(max_d: int = 8) -> list[str]:
    """Duplicating (subdividing) an undistinguished edge of a marked graph
    transforms its patterns exactly by duplication (coduplication) at the
    matching coordinate."""
    bad = []
    for t in _terms_upto(max_d):
        g = to_marked_graph(t)
        x = x_pattern(g)
        y = psi(x, 0)
        for i in range(1, g.e):
            for op, kind in ((duplicate_edge, DUP), (subdivide_edge, CODUP)):
                x2 = x_pattern(op(g, i))
                if x2 != duplicate_v(x, i, kind):
                    bad.append(
                        f"vertex correspondence fails: {format_term(t)}, edge {i}, {kind}"
                    )
                if psi(x2, 0) != duplicate_e(y, i - 1, kind):
                    bad.append(
                        f"edge correspondence fails: {format_term(t)}, edge {i}, {kind}"
                    )
    return bad


def check_core_correspondence_census(max_edges: int = 5) -> list[str]:
    """Vertex-side correspondence over the full census (covers loops and
    leaves, which terms never produce)."""
    bad = []
    for d in range(1, max_edges + 1):
        for g in enumerate_connected_sp(d):
            x = x_pattern(g)
            for i in range(g.e):
                for op, kind in ((duplicate_edge, DUP), (subdivide_edge, CODUP)):
                    if x_pattern(op(g, i)) != duplicate_v(x, i, kind):
                        bad.append(f"census correspondence fails on {g}, edge {i}")
    return bad


def check_duality(max_d: int = 8) -> list[str]:
    """Swapping series/parallel in the term complements both patterns."""
    bad = []
    for t in _terms_upto(max_d):
        x = x_pattern(to_marked_graph(t))
        xd = x_pattern(to_marked_graph(dual(t)))
        if dual_pattern(x) != xd:
            bad.append(f"x duality fails on {format_term(t)}")
        if dual_pattern(psi(x, 0)) != psi(xd, 0):
            bad.append(f"y duality fails on {format_term(t)}")
    return bad


def check_phi_psi(max_d: int = 8) -> list[str]:
    """phi recovers x from y when the marked edge is the last coordinate;
    psi at the marked coordinate gives y, the Hamming-1 pairs between the
    trees of G/0 (lower) and of G - 0 (upper), each graph's trees
    enumerated on its own."""
    from .multigraph import permute_edges

    bad = []
    for t in _terms_upto(max_d):
        g = to_marked_graph(t)
        lower, upper = spanning_trees(contract(g, 0)), spanning_trees(delete_edge(g, 0))
        if psi(x_pattern(g), 0).pairs != frozenset(_starred(lower, upper)):
            bad.append(f"psi fails on {format_term(t)}")
        order = tuple(range(1, g.e)) + (0,)
        g_last = permute_edges(g, order)
        if phi(y_pattern(g_last, g.e - 1)) != x_pattern(g_last):
            bad.append(f"phi fails on {format_term(t)}")
    return bad


def check_gluing(samples: int = 200, max_combined: int = 10, seed: int = 20240901) -> list[str]:
    """Pattern graph of a 2-sum equals the product-join of the pattern
    graphs (exact equality of masks)."""
    rng = random.Random(seed)
    by_size = {d: list(enumerate_terms(d)) for d in range(1, max_combined)}
    bad = []
    for _ in range(samples):
        d1 = rng.randint(1, max_combined - 1)
        d2 = rng.randint(1, max_combined - d1)
        t1 = rng.choice(by_size[d1])
        t2 = rng.choice(by_size[d2])
        g = two_sum(to_marked_graph(t1), to_marked_graph(t2))
        joined = product_join(
            h_graph(to_marked_graph(t1), 0), h_graph(to_marked_graph(t2), 0)
        )
        if h_graph(g, 0) != joined:
            bad.append(f"gluing fails on {format_term(t1)} + {format_term(t2)}")
    return bad


def check_h_connected(max_d: int = 8) -> list[str]:
    """Pattern graphs of 2-connected marked graphs are connected."""
    bad = []
    for t in _terms_upto(max_d):
        if not pg_is_connected(h_graph(to_marked_graph(t), 0)):
            bad.append(f"h graph of {format_term(t)} is disconnected")
    return bad


def check_g0_components(max_d: int = 5) -> list[str]:
    """Hanging extra blocks on a marked graph multiplies its pattern graph
    into tree-count-many disjoint copies."""
    extras = [catalog.c2(), catalog.triangle(), catalog.single_edge()]
    bad = []
    for t in _terms_upto(max_d):
        g0 = to_marked_graph(t)
        base = h_graph(g0, 0)
        for extra in extras:
            for v in range(g0.n):
                g = one_sum(g0, v, extra, 0)
                h = h_graph(g, 0)
                comps = pg_components(h)
                want = tree_count(extra)
                if len(comps) != want:
                    bad.append(
                        f"component count {len(comps)} != {want} on "
                        f"{format_term(t)} + extra at {v}"
                    )
                if len(h.edges) != want * len(base.edges):
                    bad.append(f"edge multiple fails on {format_term(t)}")
    return bad


def check_named_patterns(max_total: int = 7) -> list[str]:
    """alon/partite equal the patterns of their class-cycle graphs for
    every composition up to the size cap."""
    bad = []
    for total in range(1, max_total + 1):
        for k in range(1, total + 1):
            for cuts in combinations(range(1, total), k - 1):
                bounds = (0,) + cuts + (total,)
                sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                if alon_pattern(sizes) != x_pattern(catalog.alon_graph(sizes)):
                    bad.append(f"alon{sizes} != tree pattern")
                if partite_pattern(sizes) != y_pattern(catalog.partite_graph(sizes)):
                    bad.append(f"partite{sizes} != edge pattern")
    return bad


# ---------------------------------------------------------------------------
# operator checks


def _random_vertex_pattern(rng: random.Random, a: int, b: int) -> VertexPattern:
    pool = layer_masks(a, b)
    k = rng.randint(0, len(pool))
    return VertexPattern.from_masks(a, b, rng.sample(pool, k))


def check_operator_laws(trials: int = 60, seed: int = 77) -> list[str]:
    """Cardinality bounds, layer arithmetic, the duality intertwine, and
    dual-pattern involution on random patterns."""
    rng = random.Random(seed)
    bad = []
    for _ in range(trials):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if a + b == 0:
            continue
        x = _random_vertex_pattern(rng, a, b)
        i = rng.randrange(a + b)
        dx = duplicate_v(x, i, DUP)
        cx = duplicate_v(x, i, CODUP)
        if dual_pattern(dual_pattern(x)) != x:
            bad.append("dual involution fails")
        if (dx.a, dx.b) != (a + 1, b) or (cx.a, cx.b) != (a, b + 1):
            bad.append("layer arithmetic fails")
        ones = sum(m >> i & 1 for m in x.masks)
        zeros = len(x) - ones
        if len(dx) != zeros + 2 * ones or len(dx) > 2 * len(x):
            bad.append("duplication cardinality fails")
        if duplicate_v(dual_pattern(x), i, CODUP) != dual_pattern(dx):
            bad.append("duality intertwine fails")
    return bad


# ---------------------------------------------------------------------------
# embedding checks


def check_map_counts(limit: int = 3) -> list[str]:
    """Enumerated map counts match the factorial formulas.  The token
    tuples that ``enumerate_maps`` wraps are counted, with no map built."""
    bad = []
    for a, b, a2, b2 in product(range(limit + 1), repeat=4):
        if a > a2 or b > b2 or a2 + b2 == 0:
            continue
        for starred in (False, True):
            got = sum(1 for _ in _map_tokens(a, b, a2, b2, starred))
            want = count_maps(a, b, a2, b2, starred)
            if got != want:
                bad.append(f"map count mismatch at {(a, b, a2, b2, starred)}")
    return bad


def check_map_weights(trials: int = 40, seed: int = 5) -> list[str]:
    """Applying a map adds exactly (a2-a) zeros and (b2-b) ones."""
    rng = random.Random(seed)
    bad = []
    for _ in range(trials):
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        a2, b2 = a + rng.randint(0, 2), b + rng.randint(0, 2)
        if a2 + b2 == 0:
            continue
        maps = list(enumerate_maps(a, b, a2, b2))
        p = rng.choice(maps)
        for s in layer_strings(a, b):
            out = apply_map(p, s)
            try:
                ok = parse_string(out, a2 + b2).bit_count() == b2
            except ValueError:
                ok = False
            if not ok:
                bad.append(f"weight law fails for {p} on {s}")
    return bad


def check_density_properties(seed: int = 11) -> list[str]:
    """Monotonicity in the big set, the containment relation, full-layer
    density 1, empty-pattern density 1, and duality invariance."""
    rng = random.Random(seed)
    bad = []
    xc2 = VertexPattern.from_masks(1, 1, {0b10, 0b01})  # {01, 10}
    full = VertexPattern.from_masks(2, 2, layer_masks(2, 2))
    if density_t(xc2, full) != 1:
        bad.append("full-layer density is not 1")
    empty = VertexPattern.from_masks(1, 1, ())
    if density_t(empty, VertexPattern.from_masks(2, 2, {0b1100})) != 1:  # {0011}
        bad.append("empty-pattern density is not 1")
    pool = layer_masks(2, 2)
    for _ in range(25):
        big = rng.sample(pool, rng.randint(0, 6))
        sub = [m for m in big if rng.random() < 0.7]
        x1 = VertexPattern.from_masks(2, 2, sub)
        x2 = VertexPattern.from_masks(2, 2, big)
        t1 = density_t(xc2, x1)
        t2 = density_t(xc2, x2)
        if t1 > t2:
            bad.append("density not monotone in the big set")
        contained, witness = contains_pattern(x2, xc2)
        if contained != (t2 > 0):
            bad.append("containment disagrees with positive density")
        if contained and witness is not None:
            img = {apply_map(witness, s) for s in xc2.strings}
            if not img <= x2.strings:
                bad.append("containment witness does not embed")
        if density_t(dual_pattern(xc2), dual_pattern(x2)) != t2:
            bad.append("density duality fails")
    return bad


def check_ex_bnb_vs_bruteforce(trials: int = 20, seed: int = 321) -> list[str]:
    """Branch-and-bound agrees with plain subset enumeration on small layers."""
    rng = random.Random(seed)
    layers = [(2, 2), (1, 3), (3, 1), (4, 1), (1, 4), (2, 3), (3, 2)]
    bad = []
    for _ in range(trials):
        a2, b2 = rng.choice(layers)
        a = rng.randint(0, min(a2, 2))
        b = rng.randint(0, min(b2, 2))
        pool = layer_masks(a, b)
        k = rng.randint(1, len(pool))
        x = VertexPattern.from_masks(a, b, rng.sample(pool, k))
        got = ex_layer(a2, b2, x)
        want = ex_layer_bruteforce(a2, b2, x)
        if got != want:
            bad.append(f"ex mismatch on {(a2, b2)} with |X|={k}: {got} vs {want}")
    return bad


# ---------------------------------------------------------------------------
# construction checks


def check_f2_avoidance(seeds: int = 50) -> list[str]:
    """The (4,4) construction never contains the full middle layer of the
    4-cube."""
    full = VertexPattern.from_masks(2, 2, layer_masks(2, 2))
    bad = []
    for seed in range(seeds):
        s = f2_vertex_set(4, 4, seed)
        contained, _ = contains_pattern(s, full)
        if contained:
            bad.append(f"seed {seed} contains the full middle layer")
    return bad


def _f2_count_by_subsets(a: int, b: int, seed: int) -> int:
    """Independent b-subsets counted one ``gf2_rank`` call per subset."""
    vectors = random_vectors(a + b, b, seed)
    return sum(
        gf2_rank([vectors[j] for j in ones]) == b for ones in combinations(range(a + b), b)
    )


def check_f2_density(seeds: int = 100) -> list[str]:
    """Mean (8,8) density over seeds within 0.05 of the basis probability,
    and the basis-extension count matches a per-subset rank count at
    small sizes: at (4,4) and (5,4) the tail is the root, at (5,5) and
    (6,5) the suffix-rank cutoff runs above it, and (2,5), (3,5), (4,5)
    and (3,6) are searched on the dual side."""
    bad = []
    for a, b in ((3, 3), (4, 4), (5, 4), (5, 5), (6, 5), (2, 5), (3, 5), (4, 5), (3, 6)):
        for seed in (0, 1, 2):
            if f2_vertex_count(a, b, seed) != _f2_count_by_subsets(a, b, seed):
                bad.append(
                    f"basis-extension count disagrees with subset ranks at ({a},{b}) seed {seed}"
                )
    mean = sum(f2_vertex_density(8, 8, seed) for seed in range(seeds)) / seeds
    target = density_lower_bound(8)
    if abs(float(mean) - float(target)) > 0.05:
        bad.append(f"mean density {float(mean):.4f} not within 0.05 of {float(target):.4f}")
    return bad


def check_f2_b2_extraction(seeds: int = 8) -> list[str]:
    """When the construction contains a pattern with two 1s per string,
    the witness's slot vectors classify into the nonzero classes of a
    2-dimensional quotient, so the pattern sits inside the tree pattern of
    the 3-vertex class-triangle graph."""
    bad = []
    for seed in range(seeds):
        s = f2_vertex_set(4, 4, seed)
        vectors = random_vectors(8, 4, seed)
        x = VertexPattern.from_masks(2, 2, {0b0011, 0b0110, 0b1100})  # {1100, 0110, 0011}
        contained, p = contains_pattern(s, x)
        if not contained or p is None:
            continue  # nothing to extract for this seed
        slot_pos = {tok: j for j, tok in enumerate(p.tokens) if isinstance(tok, int)}
        one_pos = [j for j, tok in enumerate(p.tokens) if tok == "1"]
        w_basis = [vectors[j] for j in one_pos]
        if gf2_rank(w_basis) != len(w_basis):
            bad.append(f"seed {seed}: witness constants are dependent")
            continue
        basis: dict[int, int] = {}
        for w in w_basis:
            w2 = _reduce(w, basis)
            if w2:
                basis[w2.bit_length() - 1] = w2
        classes = {slot: _reduce(vectors[slot_pos[slot]], basis) for slot in range(4)}
        pair_of = {0: (0, 1), 1: (1, 2), 2: (0, 2)}
        nonzero_ids = sorted(c for c in set(classes.values()) if c != 0)
        if len(nonzero_ids) > 3:
            bad.append(f"seed {seed}: more than 3 nonzero quotient classes")
            continue
        edges = []
        for slot in range(4):
            c = classes[slot]
            if c == 0:
                edges.append((0, 1))  # zero-class placement is irrelevant
            else:
                edges.append(pair_of[nonzero_ids.index(c)])
        g = Multigraph(3, tuple(edges))
        if not x.masks <= x_pattern(g).masks:
            bad.append(f"seed {seed}: extracted class graph misses the pattern")
    return bad


# ---------------------------------------------------------------------------
# search checks


def check_fib_exhaustive(max_d: int = 6) -> list[str]:
    from .search import max_spanning_trees

    bad = []
    for d in range(max_d + 1):
        row = max_spanning_trees(d, "exhaustive")
        if row.value != fib(d + 1):
            bad.append(f"max tree count at {d} edges is {row.value}, not F({d + 1})")
        if tree_count(row.witness) != row.value:
            bad.append(f"witness at {d} edges does not revalidate")
        # the row is the first optimum of the whole sorted census level
        best, first = -1, None
        for g in enumerate_connected_sp(d):
            c = tree_count(g)
            if c > best:
                best, first = c, g
        if (row.value, row.witness) != (best, first):
            bad.append(f"row {d} is not the first optimum of the census level")
    return bad


def check_fib_chain(max_d: int = 16) -> list[str]:
    counts = [tree_count(catalog.fib_chain(d)) for d in range(max_d + 1)]
    bad = []
    for d in range(max_d + 1):
        if counts[d] != fib(d + 1):
            bad.append(f"chain graph at {d} edges has {counts[d]} trees")
        if d >= 2 and counts[d] != counts[d - 1] + counts[d - 2]:
            bad.append(f"chain recurrence fails at {d}")
    return bad


def check_m_methods_agree(max_d: int = 7) -> list[str]:
    bad = []
    for d in range(1, max_d + 1):
        v_dp, w_dp = m_value(d, "dp")
        v_terms, _ = m_value(d, "terms")
        if v_dp != v_terms:
            bad.append(f"m({d}): dp gives {v_dp}, terms give {v_terms}")
        y = y_pattern(to_marked_graph(w_dp), 0)
        if len(y) != v_dp:
            bad.append(f"m({d}): witness does not revalidate")
    return bad


def check_m_onesum_guard(max_d: int = 5) -> list[str]:
    """The maximum over all marked connected graphs is attained on the
    2-connected ones (cut vertices never help at fixed edge budget)."""
    bad = []
    for d in range(1, max_d + 1):
        full = m_value_all_marked_graphs(d)
        restricted, _ = m_value(d, "dp")
        if full != restricted:
            bad.append(f"m({d}): 1-sum search found {full} > {restricted}")
    return bad


# ---------------------------------------------------------------------------
# driver

ALL_CHECKS = [
    ("deletion_contraction", check_deletion_contraction, {}, {"max_edges": 8}),
    ("tree_weights", check_tree_weights, {}, {"max_edges": 7}),
    ("tree_count_routes", check_tree_count_routes, {}, {"max_edges": 7}),
    ("sp_closure", check_sp_closure, {}, {"max_edges": 6}),
    ("blocks_partition", check_blocks_partition, {}, {"max_edges": 7}),
    ("sp_vs_minor", check_sp_vs_minor, {"max_edges": 5}, {"max_edges": 6}),
    ("tf_oracle", check_tf_oracle, {}, {"max_d": 10}),
    ("dual_tf", check_dual_tf, {}, {"max_d": 9}),
    ("marked_graphs_valid", check_marked_graphs_valid, {}, {"max_d": 9}),
    ("term_enumeration", check_term_enumeration, {"max_d": 5}, {"max_d": 7}),
    ("census_small_counts", check_census_small_counts, {}, {}),
    ("weight_law", check_weight_law, {}, {"max_d": 8}),
    (
        "core_correspondence_terms",
        check_core_correspondence_terms,
        {"max_d": 6},
        {"max_d": 8},
    ),
    (
        "core_correspondence_census",
        check_core_correspondence_census,
        {"max_edges": 5},
        {"max_edges": 6},
    ),
    ("duality", check_duality, {"max_d": 7}, {"max_d": 8}),
    ("phi_psi", check_phi_psi, {"max_d": 7}, {"max_d": 8}),
    ("gluing", check_gluing, {"samples": 60}, {"samples": 200}),
    ("h_connected", check_h_connected, {"max_d": 7}, {"max_d": 8}),
    ("g0_components", check_g0_components, {"max_d": 4}, {"max_d": 5}),
    ("named_patterns", check_named_patterns, {}, {}),
    ("operator_laws", check_operator_laws, {}, {}),
    ("map_counts", check_map_counts, {}, {}),
    ("map_weights", check_map_weights, {}, {}),
    ("density_properties", check_density_properties, {}, {}),
    ("ex_bnb_vs_bruteforce", check_ex_bnb_vs_bruteforce, {"trials": 8}, {"trials": 20}),
    ("f2_avoidance", check_f2_avoidance, {"seeds": 10}, {"seeds": 50}),
    ("f2_density", check_f2_density, {"seeds": 25}, {"seeds": 100}),
    ("f2_b2_extraction", check_f2_b2_extraction, {}, {}),
    ("fib_exhaustive", check_fib_exhaustive, {"max_d": 6}, {"max_d": 8}),
    ("fib_chain", check_fib_chain, {}, {}),
    ("m_methods_agree", check_m_methods_agree, {"max_d": 6}, {"max_d": 10}),
    ("m_onesum_guard", check_m_onesum_guard, {"max_d": 4}, {"max_d": 6}),
]


def run_all(deep: bool = False) -> bool:
    """Run every check; print one line per check; True iff all pass."""
    import time

    ok = True
    for name, func, shallow_kwargs, deep_kwargs in ALL_CHECKS:
        kwargs = deep_kwargs if deep and deep_kwargs else shallow_kwargs
        start = time.perf_counter()
        violations = func(**kwargs)
        elapsed = time.perf_counter() - start
        if violations:
            ok = False
            print(f"FAIL {name} ({elapsed:.2f}s): {len(violations)} violation(s)")
            for v in violations[:5]:
                print(f"     - {v}")
        else:
            print(f"PASS {name} ({elapsed:.2f}s)")
    return ok
