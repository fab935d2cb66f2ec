"""Labeled multigraphs with an explicit edge order.

The edge order is load-bearing throughout this package: edge ``i`` of a
graph corresponds to coordinate ``i`` of every 0/1/* string derived from
it, so every operation documents exactly where newly created edges land.
All vertex ids, edge indices, and string coordinates are 0-based.

Graphs are immutable; operations return new graphs and are safe to call
from concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

__all__ = [
    "Multigraph",
    "spanning_trees",
    "tree_count",
    "minor",
    "contract",
    "delete_edge",
    "add_loop",
    "add_leaf",
    "duplicate_edge",
    "subdivide_edge",
    "apply_operation",
    "Block",
    "blocks",
    "is_series_parallel",
    "has_k4_minor",
    "is_two_connected",
    "is_isomorphic",
    "two_sum",
    "one_sum",
    "permute_edges",
    "graph_to_json",
    "graph_from_json",
    "load_graph",
    "save_graph",
]


@dataclass(frozen=True)
class Multigraph:
    """A multigraph with ``n`` vertices and an ordered tuple of edges.

    ``edges[i]`` is an unordered pair ``(u, v)`` stored with ``u <= v``;
    loops have ``u == v``.  ``distinguished`` optionally marks one edge,
    which must be neither a loop nor a bridge.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    distinguished: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((u, v) if u <= v else (v, u) for u, v in self.edges)
        )
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{self.n - 1}")
        d = self.distinguished
        if d is not None:
            if not (0 <= d < len(self.edges)):
                raise ValueError(f"distinguished edge index {d} out of range")
            u, v = self.edges[d]
            if u == v:
                raise ValueError("distinguished edge must not be a loop")
            if _is_bridge(self, d):
                raise ValueError("distinguished edge must not be a bridge")

    @property
    def e(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Number of edge endpoints at v; a loop contributes 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge index); loops appear once."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            if u != v:
                adj[v].append((u, i))
        return adj

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = _reach(self, 0, skip_edge=None)
        return len(seen) == self.n

    def with_distinguished(self, i: int | None) -> "Multigraph":
        return Multigraph(self.n, self.edges, i)


def _reach(g: Multigraph, start: int, skip_edge: int | None) -> set[int]:
    adj = g.adjacency()
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u, i in adj[v]:
            if i == skip_edge or u in seen:
                continue
            seen.add(u)
            stack.append(u)
    return seen


def _is_bridge(g: Multigraph, i: int) -> bool:
    u, v = g.edges[i]
    if u == v:
        return False
    return v not in _reach(g, u, skip_edge=i)


# ---------------------------------------------------------------------------
# spanning trees


def spanning_trees(g: Multigraph) -> list[int]:
    """All spanning trees of a connected multigraph, as sorted edge bitmasks.

    Bit ``i`` of a mask corresponds to edge ``i``.  Raises ``ValueError``
    on a disconnected (or empty) graph.  Uses subset filtering up to 20
    edges and deletion/contraction recursion beyond that; the two agree on
    their overlap.
    """
    if g.n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    if not g.is_connected():
        raise ValueError("spanning trees require a connected graph")
    if g.e <= 20:
        return _trees_filter(g)
    return sorted(_trees_recursive(g.n, list(enumerate(g.edges))))


def _trees_filter(g: Multigraph) -> list[int]:
    k = g.n - 1
    non_loops = [i for i, (u, v) in enumerate(g.edges) if u != v]
    edges = g.edges
    out = []
    for combo in combinations(non_loops, k):
        parent = list(range(g.n))
        ok = True
        for idx in combo:
            u, v = edges[idx]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                ok = False
                break
            parent[u] = v
        if ok:
            m = 0
            for idx in combo:
                m |= 1 << idx
            out.append(m)
    out.sort()
    return out


def _trees_recursive(n: int, labeled: list[tuple[int, tuple[int, int]]]) -> list[int]:
    """Deletion/contraction enumeration over (original-label, edge) pairs."""
    labeled = [(lab, e) for lab, e in labeled if e[0] != e[1]]
    if n == 1:
        return [0]
    if not labeled:
        return []
    lab0, (u0, v0) = labeled[0]
    # contract the first edge: relabel the larger endpoint onto the smaller
    keep, gone = min(u0, v0), max(u0, v0)

    def remap(w: int) -> int:
        if w == gone:
            return keep
        return w - 1 if w > gone else w

    contracted = [(lab, (remap(u), remap(v))) for lab, (u, v) in labeled[1:]]
    out = [m | (1 << lab0) for m in _trees_recursive(n - 1, contracted)]
    # delete it, unless it is a bridge of the remainder
    rest = labeled[1:]
    adj: dict[int, list[int]] = {}
    for _, (u, v) in rest:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {u0}
    stack = [u0]
    while stack:
        w = stack.pop()
        for x in adj.get(w, ()):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    if v0 in seen:
        out.extend(_trees_recursive(n, rest))
    return out


def tree_count(g: Multigraph) -> int:
    """Number of spanning trees, via an integer determinant (Kirchhoff).

    Returns 0 for disconnected graphs.  Cross-checked against
    ``len(spanning_trees(g))`` in the test suite.
    """
    if g.n == 0:
        raise ValueError("tree count of the empty graph is undefined")
    if g.n == 1:
        return 1
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor_m = [row[1:] for row in lap[1:]]
    return _int_det(minor_m)


def _int_det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [row[:] for row in m]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


# ---------------------------------------------------------------------------
# minors and the elementary operations


def contract(g: Multigraph, i: int) -> Multigraph:
    """Contract edge i (must not be a loop); the lower endpoint id survives.

    The result carries no distinguished edge.
    """
    _check_edge_index(g, i)
    u, v = g.edges[i]
    if u == v:
        raise ValueError("cannot contract a loop")
    keep, gone = u, v  # u <= v by normalization

    def remap(w: int) -> int:
        if w == gone:
            return keep
        return w - 1 if w > gone else w

    edges = tuple(
        (remap(a), remap(b)) for j, (a, b) in enumerate(g.edges) if j != i
    )
    return Multigraph(g.n - 1, edges)


def delete_edge(g: Multigraph, i: int) -> Multigraph:
    """Delete edge i, keeping all vertices.  No distinguished edge on the result."""
    _check_edge_index(g, i)
    edges = tuple(e for j, e in enumerate(g.edges) if j != i)
    return Multigraph(g.n, edges)


def minor(g: Multigraph, i: int, mode: str) -> Multigraph:
    """Contract or delete edge i; ``mode`` is ``"contract"`` or ``"delete"``."""
    if mode == "contract":
        return contract(g, i)
    if mode == "delete":
        return delete_edge(g, i)
    raise ValueError(f"unknown minor mode {mode!r}")


def _check_edge_index(g: Multigraph, i: int) -> None:
    if not (0 <= i < g.e):
        raise ValueError(f"edge index {i} out of range for a graph with {g.e} edges")


def _check_vertex(g: Multigraph, v: int) -> None:
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")


def _shifted_distinguished(d: int | None, i: int) -> int | None:
    if d is None:
        return None
    return d + 1 if d > i else d


def add_loop(g: Multigraph, v: int) -> Multigraph:
    """Append a loop at v as the last edge."""
    _check_vertex(g, v)
    return Multigraph(g.n, g.edges + ((v, v),), g.distinguished)


def add_leaf(g: Multigraph, v: int) -> Multigraph:
    """Attach a new vertex to v; the new edge is appended last."""
    _check_vertex(g, v)
    return Multigraph(g.n + 1, g.edges + ((v, g.n),), g.distinguished)


def duplicate_edge(g: Multigraph, i: int) -> Multigraph:
    """Duplicate edge i; the copy is inserted at position i+1.

    Edges after i shift up by one.  The duplicated edge must not be the
    distinguished one.
    """
    _check_edge_index(g, i)
    if g.distinguished == i:
        raise ValueError("cannot duplicate the distinguished edge")
    e = g.edges[i]
    edges = g.edges[: i + 1] + (e,) + g.edges[i + 1 :]
    return Multigraph(g.n, edges, _shifted_distinguished(g.distinguished, i))


def subdivide_edge(g: Multigraph, i: int) -> Multigraph:
    """Replace edge i = (u, v) by the 2-path u-w-v through a new vertex w.

    The two halves occupy positions i and i+1; later edges shift up by
    one.  Subdividing a loop yields two parallel edges.  The subdivided
    edge must not be the distinguished one.
    """
    _check_edge_index(g, i)
    if g.distinguished == i:
        raise ValueError("cannot subdivide the distinguished edge")
    u, v = g.edges[i]
    w = g.n
    edges = g.edges[:i] + ((u, w), (w, v)) + g.edges[i + 1 :]
    return Multigraph(g.n + 1, edges, _shifted_distinguished(g.distinguished, i))


def apply_operation(g: Multigraph, op: tuple[str, int]) -> Multigraph:
    """Apply one elementary operation, given as a (name, argument) pair.

    Names: ``loop``/``leaf`` take a vertex id, ``duplicate``/``subdivide``
    an edge index.
    """
    kind, arg = op
    if kind == "loop":
        return add_loop(g, arg)
    if kind == "leaf":
        return add_leaf(g, arg)
    if kind == "duplicate":
        return duplicate_edge(g, arg)
    if kind == "subdivide":
        return subdivide_edge(g, arg)
    raise ValueError(f"unknown operation {kind!r}")


# ---------------------------------------------------------------------------
# block structure


@dataclass(frozen=True)
class Block:
    """One block of a multigraph, with back-references into the parent.

    ``edge_indices[j]`` is the parent index of the block's edge ``j``;
    ``vertex_ids[x]`` is the parent id of the block's vertex ``x``.
    """

    graph: Multigraph
    edge_indices: tuple[int, ...]
    vertex_ids: tuple[int, ...]


def blocks(g: Multigraph) -> list[Block]:
    """Block decomposition: loops and bridges become single-edge blocks.

    Every edge index appears in exactly one block; isolated vertices
    appear in none.  Blocks are returned sorted by smallest edge index.
    """
    adj = g.adjacency()
    groups: list[list[int]] = [[i] for i, (u, v) in enumerate(g.edges) if u == v]

    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = [0]
    stack: list[int] = []
    seen_edges: set[int] = set()

    def dfs(root: int) -> None:
        # iterative DFS over (vertex, adjacency cursor, entering edge)
        frames = [(root, 0, -1)]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        while frames:
            v, ptr, in_edge = frames[-1]
            if ptr < len(adj[v]):
                frames[-1] = (v, ptr + 1, in_edge)
                u, ei = adj[v][ptr]
                if u == v or ei == in_edge or ei in seen_edges:
                    continue
                seen_edges.add(ei)
                stack.append(ei)
                if u not in disc:
                    disc[u] = low[u] = timer[0]
                    timer[0] += 1
                    frames.append((u, 0, ei))
                else:
                    low[v] = min(low[v], disc[u])
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        grp = []
                        while True:
                            ei = stack.pop()
                            grp.append(ei)
                            if ei == in_edge:
                                break
                        groups.append(grp)

    for r in range(g.n):
        if r not in disc and adj[r]:
            dfs(r)

    out = []
    for grp in groups:
        idxs = tuple(sorted(grp))
        verts = sorted({w for i in idxs for w in g.edges[i]})
        vmap = {w: x for x, w in enumerate(verts)}
        sub = Multigraph(
            len(verts), tuple((vmap[u], vmap[v]) for u, v in (g.edges[i] for i in idxs))
        )
        out.append(Block(sub, idxs, tuple(verts)))
    out.sort(key=lambda b: b.edge_indices[0])
    return out


# ---------------------------------------------------------------------------
# series-parallel recognition


def is_series_parallel(g: Multigraph) -> bool:
    """True iff g has no K4 minor.

    Implemented by exhaustive reduction (drop loops, merge parallel edges,
    suppress degree-2 vertices); a component is series-parallel iff it
    reduces to a single vertex or a single edge.  Validated against the
    brute-force minor search ``has_k4_minor`` on all small multigraphs.
    """
    comp_of = _component_labels(g)
    per_comp: dict[int, list[tuple[int, int]]] = {}
    for (u, v) in g.edges:
        per_comp.setdefault(comp_of[u], []).append((u, v))
    return all(_reduces_to_edge(edges) for edges in per_comp.values())


def _component_labels(g: Multigraph) -> list[int]:
    label = [-1] * g.n
    adj = g.adjacency()
    c = 0
    for s in range(g.n):
        if label[s] != -1:
            continue
        label[s] = c
        stack = [s]
        while stack:
            v = stack.pop()
            for u, _ in adj[v]:
                if label[u] == -1:
                    label[u] = c
                    stack.append(u)
        c += 1
    return label


def _reduces_to_edge(edges: list[tuple[int, int]]) -> bool:
    work = list(edges)
    while True:
        work = [(u, v) for u, v in work if u != v]
        # merge one parallel class
        seen: dict[tuple[int, int], int] = {}
        dup = None
        for j, e in enumerate(work):
            if e in seen:
                dup = j
                break
            seen[e] = j
        if dup is not None:
            work.pop(dup)
            continue
        inc: dict[int, list[int]] = {}
        for j, (u, v) in enumerate(work):
            inc.setdefault(u, []).append(j)
            inc.setdefault(v, []).append(j)
        # prune one pendant edge
        leaf = next((w for w, js in inc.items() if len(js) == 1), None)
        if leaf is not None:
            work.pop(inc[leaf][0])
            continue
        # suppress one degree-2 vertex
        target = next((w for w, js in inc.items() if len(js) == 2), None)
        if target is None:
            # a stuck nonempty reduction has min degree >= 3, hence a K4 minor
            return len(work) == 0
        j1, j2 = inc[target]
        ends = [w for e in (work[j1], work[j2]) for w in e if w != target]
        a, b = (ends + [target, target])[:2]  # both edges to the same vertex -> loop
        work = [e for j, e in enumerate(work) if j not in (j1, j2)]
        work.append((min(a, b), max(a, b)))


def has_k4_minor(g: Multigraph) -> bool:
    """Brute-force K4-minor test (desk scale): contract-and-check recursion."""
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return _k4_rec({v: frozenset(ns) for v, ns in adj.items()})


def _k4_rec(adj: dict[int, frozenset[int]]) -> bool:
    if len(adj) < 4:
        return False
    if sum(len(ns) for ns in adj.values()) < 12:  # fewer than 6 simple edges
        return False
    verts = [v for v, ns in adj.items() if len(ns) >= 3]
    for quad in combinations(sorted(verts), 4):
        if all(b in adj[a] for a, b in combinations(quad, 2)):
            return True
    seen_pairs = set()
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if u >= v or (u, v) in seen_pairs:
                continue
            seen_pairs.add((u, v))
            merged: dict[int, frozenset[int]] = {}
            for w, ns in adj.items():
                if w == v:
                    continue
                ns2 = set(ns)
                if v in ns2:
                    ns2.discard(v)
                    ns2.add(u)
                if w == u:
                    ns2 |= adj[v]
                    ns2.discard(u)
                    ns2.discard(v)
                merged[w] = frozenset(ns2)
            if _k4_rec(merged):
                return True
    return False


def is_two_connected(g: Multigraph) -> bool:
    """At least two edges, no loops, and every single-vertex deletion stays connected."""
    if g.e < 2 or any(u == v for u, v in g.edges):
        return False
    if not g.is_connected():
        return False
    for v in range(g.n):
        keep = [w for w in range(g.n) if w != v]
        vmap = {w: x for x, w in enumerate(keep)}
        sub = Multigraph(
            len(keep),
            tuple((vmap[a], vmap[b]) for a, b in g.edges if a != v and b != v),
        )
        if not sub.is_connected():
            return False
    return True


# ---------------------------------------------------------------------------
# isomorphism (desk-scale)


def _multiplicities(g: Multigraph) -> dict[tuple[int, int], int]:
    mult: dict[tuple[int, int], int] = {}
    for e in g.edges:
        mult[e] = mult.get(e, 0) + 1
    return mult


@lru_cache(maxsize=65536)
def _refined_colors(g: Multigraph, marked: bool) -> tuple[int, ...]:
    loops = [0] * g.n
    mult: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    special = set()
    if marked and g.distinguished is not None:
        special = set(g.edges[g.distinguished])
    colors = [
        (g.degree(v), loops[v], v in special) for v in range(g.n)
    ]
    ranks = {c: r for r, c in enumerate(sorted(set(colors)))}
    cur = [ranks[c] for c in colors]
    while True:
        keys = [
            (cur[v], tuple(sorted((cur[u], m) for u, m in mult[v].items())))
            for v in range(g.n)
        ]
        ranks = {c: r for r, c in enumerate(sorted(set(keys)))}
        nxt = [ranks[k] for k in keys]
        if len(set(nxt)) == len(set(cur)):
            return tuple(nxt)
        cur = nxt


@lru_cache(maxsize=65536)
def _signature(g: Multigraph, marked: bool):
    colors = _refined_colors(g, marked)
    esig = sorted(
        (min(colors[u], colors[v]), max(colors[u], colors[v]), u == v)
        for u, v in g.edges
    )
    return (g.n, g.e, tuple(sorted(colors)), tuple(esig))


def is_isomorphic(a: Multigraph, b: Multigraph, *, use_distinguished: bool = True) -> bool:
    """Multigraph isomorphism via color refinement plus backtracking.

    When ``use_distinguished`` and both graphs are marked, the map must
    send the distinguished edge's endpoint pair to its counterpart.
    """
    marked = use_distinguished and a.distinguished is not None and b.distinguished is not None
    if use_distinguished and (a.distinguished is None) != (b.distinguished is None):
        return False
    if _signature(a, marked) != _signature(b, marked):
        return False
    ca = _refined_colors(a, marked)
    cb = _refined_colors(b, marked)
    mult_a = _multiplicities(a)
    mult_b = _multiplicities(b)
    # refinement ranks are per-graph labels, so the marked-endpoint
    # constraint must be enforced structurally, not through colors
    special_a = set(a.edges[a.distinguished]) if marked else set()
    special_b = set(b.edges[b.distinguished]) if marked else set()

    by_color_b: dict[int, list[int]] = {}
    for v in range(b.n):
        by_color_b.setdefault(cb[v], []).append(v)

    order = sorted(range(a.n), key=lambda v: (len(by_color_b.get(ca[v], ())), ca[v], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def mult_of(m: dict, u: int, v: int) -> int:
        return m.get((min(u, v), max(u, v)), 0)

    def bt(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in by_color_b.get(ca[v], ()):
            if w in used:
                continue
            if (v in special_a) != (w in special_b):
                continue
            if mult_of(mult_a, v, v) != mult_of(mult_b, w, w):
                continue
            if all(
                mult_of(mult_a, v, p) == mult_of(mult_b, w, q)
                for p, q in mapping.items()
            ):
                mapping[v] = w
                used.add(w)
                if bt(k + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return bt(0)


# ---------------------------------------------------------------------------
# sums


def two_sum(g1: Multigraph, g2: Multigraph) -> Multigraph:
    """Glue two marked graphs by identifying their distinguished edges.

    The merged edge survives, stays distinguished, and comes first; then
    g1's remaining edges in order, then g2's.  The lower endpoint of one
    distinguished edge is identified with the lower endpoint of the other.
    """
    if g1.distinguished is None or g2.distinguished is None:
        raise ValueError("two_sum requires distinguished edges on both graphs")
    d1, d2 = g1.distinguished, g2.distinguished
    a1, b1 = g1.edges[d1]
    a2, b2 = g2.edges[d2]
    vmap: dict[int, int] = {a2: a1, b2: b1}
    nxt = g1.n
    for v in range(g2.n):
        if v not in vmap:
            vmap[v] = nxt
            nxt += 1
    edges = [(a1, b1)]
    edges += [e for j, e in enumerate(g1.edges) if j != d1]
    edges += [
        (vmap[u], vmap[v]) for j, (u, v) in enumerate(g2.edges) if j != d2
    ]
    return Multigraph(nxt, tuple(edges), distinguished=0)


def one_sum(g1: Multigraph, v1: int, g2: Multigraph, v2: int) -> Multigraph:
    """Glue two graphs at a vertex; g1's edges (and marking) come first."""
    _check_vertex(g1, v1)
    _check_vertex(g2, v2)
    if g2.distinguished is not None:
        raise ValueError("one_sum keeps only the first graph's marking")
    vmap = {v2: v1}
    nxt = g1.n
    for v in range(g2.n):
        if v not in vmap:
            vmap[v] = nxt
            nxt += 1
    edges = g1.edges + tuple((vmap[u], vmap[v]) for u, v in g2.edges)
    return Multigraph(nxt, edges, g1.distinguished)


def permute_edges(g: Multigraph, order: tuple[int, ...]) -> Multigraph:
    """Reorder edges: new edge j is old edge ``order[j]``."""
    if sorted(order) != list(range(g.e)):
        raise ValueError("order must be a permutation of the edge indices")
    d = None if g.distinguished is None else order.index(g.distinguished)
    return Multigraph(g.n, tuple(g.edges[o] for o in order), d)


# ---------------------------------------------------------------------------
# JSON graph format


def graph_to_json(g: Multigraph) -> str:
    """Serialize to the interchange format; edge array order is the coordinate order."""
    return json.dumps(
        {
            "vertices": g.n,
            "edges": [[u, v] for u, v in g.edges],
            "distinguished": g.distinguished,
        }
    )


def graph_from_json(text: str) -> Multigraph:
    """Parse the interchange format strictly: integers only (not booleans),
    edges as 2-element lists, ``distinguished`` an integer or null.  Any
    other shape raises ``ValueError``."""
    data = json.loads(text)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError("graph JSON needs 'vertices' and 'edges' fields")
    edges = data["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(uv, list) and len(uv) == 2 for uv in edges
    ):
        raise ValueError("graph JSON 'edges' must be a list of [u, v] pairs")
    dist = data.get("distinguished")
    return Multigraph(
        _json_int(data["vertices"], "'vertices'"),
        tuple((_json_int(u, "an edge end"), _json_int(v, "an edge end")) for u, v in edges),
        None if dist is None else _json_int(dist, "'distinguished'"),
    )


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"graph JSON {what} must be an integer, not {value!r}")
    return value


def load_graph(path) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def save_graph(g: Multigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g) + "\n")
