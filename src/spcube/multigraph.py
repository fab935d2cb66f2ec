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
from itertools import combinations
from math import lcm

from .errors import SizeGuardError

__all__ = [
    "Multigraph",
    "spanning_trees",
    "tree_count",
    "contract",
    "delete_edge",
    "add_loop",
    "add_leaf",
    "duplicate_edge",
    "subdivide_edge",
    "Block",
    "blocks",
    "is_series_parallel",
    "has_k4_minor",
    "is_two_connected",
    "least_twins",
    "canonical_form",
    "is_isomorphic",
    "two_sum",
    "one_sum",
    "permute_edges",
    "graph_to_json",
    "graph_from_json",
    "load_graph",
    "save_graph",
]


@dataclass(frozen=True, init=False)
class Multigraph:
    """A multigraph with ``n`` vertices and an ordered tuple of edges.

    ``edges[i]`` is an unordered pair ``(u, v)`` stored with ``u <= v``;
    loops have ``u == v``.  ``distinguished`` optionally marks one edge,
    which must be neither a loop nor a bridge.

    ``Multigraph(n, edges, distinguished)`` is the public boundary: it
    orders each pair and checks the vertex count, the endpoints and the
    mark.  Code that derives a graph from a valid one, so that all of this
    holds by construction, calls ``Multigraph.derived``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    distinguished: int | None = None

    def __init__(self, n: int, edges, distinguished: int | None = None):
        edges = _ordered(edges)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        self._fill(n, edges, distinguished)
        if distinguished is not None:
            check_marked_edge(self, distinguished)

    @classmethod
    def derived(
        cls, n: int, edges: tuple[tuple[int, int], ...], distinguished: int | None = None
    ) -> Multigraph:
        """The graph of these fields, trusted to be valid: every pair
        ordered (``u <= v``) with both ends in ``0..n-1``, and the mark,
        if any, neither a loop nor a bridge.  Nothing is checked."""
        g = object.__new__(cls)
        g._fill(n, edges, distinguished)
        return g

    def _fill(self, n: int, edges: tuple[tuple[int, int], ...], distinguished: int | None) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "distinguished", distinguished)

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


def _ordered(pairs) -> tuple[tuple[int, int], ...]:
    """The pairs as a tuple, each stored as ``(u, v)`` with ``u <= v``."""
    return tuple((u, v) if u <= v else (v, u) for u, v in pairs)


def _reach(g: Multigraph, start: int, skip_edge: int | None) -> set[int]:
    """The vertices reachable from ``start`` without edge ``skip_edge``."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if i != skip_edge:
            nbrs[u].append(v)
            nbrs[v].append(u)
    seen = {start}
    stack = [start]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def check_marked_edge(g: Multigraph, i: int) -> None:
    """Raise ``ValueError`` unless edge i of g can be marked: an index in
    range, neither a loop nor a bridge."""
    if not (0 <= i < len(g.edges)):
        raise ValueError(f"distinguished edge index {i} out of range")
    u, v = g.edges[i]
    if u == v:
        raise ValueError("distinguished edge must not be a loop")
    if _is_bridge(g, i):
        raise ValueError("distinguished edge must not be a bridge")


def _is_bridge(g: Multigraph, i: int) -> bool:
    u, v = g.edges[i]
    if u == v:
        return False
    return v not in _reach(g, u, skip_edge=i)


# ---------------------------------------------------------------------------
# spanning trees by series-parallel reduction

_PARALLEL, _SERIES, _PENDANT = 0, 1, 2

# ``tree_count`` takes a determinant only on the irreducible core, cubic in
# its vertices: a 256-vertex cubic core takes about 2 s (Python 3.11,
# shared 2-core x86 machine)
CORE_VERTEX_LIMIT = 256


def _sp_reduce(g: Multigraph) -> tuple[list[tuple[int, int, int]], list[dict[int, int] | None]]:
    """Series-parallel reduction of g (Valdes, Tarjan and Lawler, SIAM J.
    Comput. 1982), recorded as steps on numbered objects.

    Objects 0..e-1 are g's edges; loops are dropped.  ``(_PARALLEL, a, b)``
    merges two objects between one pair of vertices and ``(_SERIES, a, b)``
    joins the two objects at a vertex of degree 2; each step makes the next
    object number.  ``(_PENDANT, a, -1)`` removes a vertex of degree 1 with
    its object a.  Also returns ``adj``: for each vertex left, a map from
    its neighbours to the objects between them; None for a removed vertex.
    Every vertex left has degree 0 or at least 3, so the ones of degree at
    least 3 and their objects are the irreducible core.  The order of the
    worklist does not change whether a core is left.
    """
    adj: list[dict[int, int] | None] = [{} for _ in range(g.n)]
    steps: list[tuple[int, int, int]] = []
    nxt = g.e
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        k = adj[u].get(v)
        if k is not None:
            steps.append((_PARALLEL, k, i))
            i, nxt = nxt, nxt + 1
        adj[u][v] = adj[v][u] = i
    # a vertex's degree never grows, so it is queued once it is at most 2
    work = [v for v in range(g.n) if len(adj[v]) <= 2]
    while work:
        w = work.pop()
        nbrs = adj[w]
        if not nbrs:  # removed, or isolated
            continue
        adj[w] = None
        if len(nbrs) == 1:
            ((a, k),) = nbrs.items()
            steps.append((_PENDANT, k, -1))
            del adj[a][w]
        else:
            (a, ka), (b, kb) = nbrs.items()
            steps.append((_SERIES, ka, kb))
            k, nxt = nxt, nxt + 1
            del adj[a][w], adj[b][w]
            m = adj[a].get(b)
            if m is None:
                adj[a][b] = adj[b][a] = k
                continue  # a and b keep their degrees
            steps.append((_PARALLEL, m, k))
            adj[a][b] = adj[b][a] = nxt
            nxt += 1
            if len(adj[b]) <= 2:
                work.append(b)
        if len(adj[a]) <= 2:
            work.append(a)
    return steps, adj


def spanning_trees(g: Multigraph) -> list[int]:
    """All spanning trees of a connected multigraph, as sorted edge bitmasks.

    Bit ``i`` of a mask corresponds to edge ``i``.  Raises ``ValueError``
    on a disconnected (or empty) graph.

    The trees are composed along ``_sp_reduce``.  Each object carries its
    (T, F) mask sets: the spanning trees of its two-terminal network, and
    the 2-component spanning forests separating its terminals.  An edge has
    T = {itself} and F = {no edge}; each series or parallel step composes
    two objects' sets by ``_compose_tf``.  A pendant object is in every
    tree with one of its T masks.  Whatever does not reduce, such as K4 and
    its subdivisions, is an irreducible core.  The backtracking enumerator
    runs on it, with its objects as edges, and each core tree expands into
    T_k for its objects and F_k for the others.
    """
    if g.n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    steps, adj = _sp_reduce(g)
    tf = [([1 << i], [0]) for i in range(g.e)]
    pendant: list[list[int]] = []
    for op, a, b in steps:
        if op == _PENDANT:
            pendant.append(tf[a][0])
        else:
            tf.append(_compose_tf(op == _SERIES, tf[a], tf[b]))
    fixed = [0]
    for part in sorted(pendant, key=len):  # small products first
        fixed = _join(fixed, part)
    left = [v for v, nbrs in enumerate(adj) if nbrs is not None]
    if len(left) == 1:
        fixed.sort()
        return fixed
    core = _core(adj, left)
    if core is None:
        raise ValueError("spanning trees require a connected graph")
    cores: list[int] = []
    edges = [(x, y, 1 << j) for j, (x, y, _) in enumerate(core)]
    _grow(edges, 0, len(left) - 1, 0, list(range(len(left))), cores)
    out: list[int] = []
    for mask in cores:
        acc = [0]
        for j, (_, _, k) in enumerate(core):
            acc = _join(acc, tf[k][0] if mask >> j & 1 else tf[k][1])
        out += acc
    out = _join(out, fixed)
    out.sort()
    return out


def _core(
    adj: list[dict[int, int] | None], left: list[int]
) -> list[tuple[int, int, int]] | None:
    """The irreducible core that ``_sp_reduce`` left, as one (x, y, k) per
    object k, between core vertices x < y numbered by their place in
    ``left``.  None when what is left of the graph is disconnected: then
    so was the graph."""
    label = {v: x for x, v in enumerate(left)}
    core = [(label[v], label[u], k) for v in left for u, k in adj[v].items() if v < u]
    if not Multigraph.derived(len(left), tuple((x, y) for x, y, _ in core)).is_connected():
        return None
    return core


def _join(xs: list[int], ys: list[int]) -> list[int]:
    """Every union of one mask of xs with one of ys (their bits are disjoint)."""
    return [x | y for y in ys for x in xs]


def _compose_tf(
    series: bool, a: tuple[list[int], list[int]], b: tuple[list[int], list[int]]
) -> tuple[list[int], list[int]]:
    """The (T, F) rule: the tree and terminal-separating 2-forest masks of
    two networks a and b, on disjoint bits, composed in series or in
    parallel.  A series tree is a tree of both, and a series forest a
    forest of one and a tree of the other; parallel composition is the
    dual, with T and F swapped."""
    (ta, fa), (tb, fb) = a, b
    if series:
        return _join(ta, tb), _join(ta, fb) + _join(fa, tb)
    return _join(ta, fb) + _join(fa, tb), _join(fa, fb)


def _count_tf(series: bool, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The count form of ``_compose_tf``: the (T, F) counts of two
    networks a and b composed in series or in parallel."""
    (ta, fa), (tb, fb) = a, b
    if series:
        return ta * tb, ta * fb + fa * tb
    return ta * fb + fa * tb, fa * fb


def _grow(
    edges: list[tuple[int, int, int]],
    start: int,
    need: int,
    mask: int,
    comp: list[int],
    out: list[int],
) -> None:
    # Backtracking over acyclic edge sets grown in edge-index order (Read
    # and Tarjan, Networks 1975): extends ``mask`` by ``need`` more edges
    # from ``edges[start:]``, each joining two components of ``comp``; the
    # last edge of each tree is emitted in bulk.  The output list is an
    # argument: a closure over it that calls itself would keep it alive in
    # a cycle.
    if need == 1:
        out.extend(mask | bit for u, v, bit in edges[start:] if comp[u] != comp[v])
        return
    for j in range(start, len(edges) - need + 1):
        u, v, bit = edges[j]
        cu, cv = comp[u], comp[v]
        if cu != cv:
            _grow(edges, j + 1, need - 1, mask | bit, [cu if c == cv else c for c in comp], out)


def tree_count(g: Multigraph) -> int:
    """Number of spanning trees; 0 for a disconnected graph.

    Counted along ``_sp_reduce`` as ``spanning_trees`` enumerates, with
    (T, F) counts in place of mask sets: an edge has (1, 1), each series
    or parallel step composes two objects' counts by ``_count_tf``, and a
    pendant object multiplies the count by its T.  Only an irreducible
    core takes a determinant (``_core_count``), so a series-parallel graph
    of any size costs linear time.  Raises ``SizeGuardError`` before any
    matrix is built when the core has more than ``CORE_VERTEX_LIMIT``
    vertices, and ``ValueError`` on the empty graph.
    """
    if g.n == 0:
        raise ValueError("tree count of the empty graph is undefined")
    steps, adj = _sp_reduce(g)
    tf = [(1, 1)] * g.e
    count = 1
    for op, a, b in steps:
        if op == _PENDANT:
            count *= tf[a][0]
        else:
            tf.append(_count_tf(op == _SERIES, tf[a], tf[b]))
    left = [v for v, nbrs in enumerate(adj) if nbrs is not None]
    if len(left) == 1:
        return count
    core = _core(adj, left)
    if core is None:
        return 0
    if len(left) > CORE_VERTEX_LIMIT:
        raise SizeGuardError(
            f"an irreducible core of {len(left)} vertices exceeds the tree-count guard "
            f"{CORE_VERTEX_LIMIT}"
        )
    return count * _core_count(len(left), [(x, y, *tf[k]) for x, y, k in core])


def _core_count(size: int, objects: list[tuple[int, int, int, int]]) -> int:
    """The sum, over the spanning trees S of a core with ``size`` vertices
    and objects (x, y, T, F), of the product of T over S and of F over the
    other objects.

    That is Kirchhoff's determinant with weight T / F on each object, times
    the product of every F (each F is at least 1).  To stay in integers,
    row x of the Laplacian is scaled by D_x, the lcm of the F's at x; the
    determinant of the reduced matrix (row and column 0 dropped) then
    gains the factor D_1 ... D_{size-1}, which divides out exactly.
    """
    scale = [1] * size
    for x, y, _, f in objects:
        scale[x] = lcm(scale[x], f)
        scale[y] = lcm(scale[y], f)
    lap = [[0] * size for _ in range(size)]
    weights = 1
    for x, y, t, f in objects:
        weights *= f
        wx, wy = scale[x] // f * t, scale[y] // f * t
        lap[x][x] += wx
        lap[x][y] -= wx
        lap[y][y] += wy
        lap[y][x] -= wy
    scaled = 1
    for d in scale[1:]:
        scaled *= d
    return weights * _int_det([row[1:] for row in lap[1:]]) // scaled


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
    return Multigraph.derived(g.n, g.edges + ((v, v),), g.distinguished)


def add_leaf(g: Multigraph, v: int) -> Multigraph:
    """Attach a new vertex to v; the new edge is appended last."""
    _check_vertex(g, v)
    return Multigraph.derived(g.n + 1, g.edges + ((v, g.n),), g.distinguished)


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
    return Multigraph.derived(g.n, edges, _shifted_distinguished(g.distinguished, i))


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
    edges = g.edges[:i] + ((u, w), (v, w)) + g.edges[i + 1 :]  # w is the largest vertex
    return Multigraph.derived(g.n + 1, edges, _shifted_distinguished(g.distinguished, i))


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
        vmap = {w: x for x, w in enumerate(verts)}  # keeps each pair ordered
        sub = Multigraph.derived(
            len(verts), tuple((vmap[u], vmap[v]) for u, v in (g.edges[i] for i in idxs))
        )
        out.append(Block(sub, idxs, tuple(verts)))
    out.sort(key=lambda b: b.edge_indices[0])
    return out


# ---------------------------------------------------------------------------
# series-parallel recognition


def is_series_parallel(g: Multigraph) -> bool:
    """True iff g has no K4 minor.

    A component is series-parallel iff ``_sp_reduce`` (drop loops, merge
    parallel edges, remove pendant vertices, suppress degree-2 vertices)
    leaves no core of it: a reduction that is stuck with edges left has
    minimum degree 3, hence a K4 minor.  Validated against the brute-force
    minor search ``has_k4_minor`` on all small multigraphs.
    """
    _, adj = _sp_reduce(g)
    return not any(adj)


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
        vmap = {w: x for x, w in enumerate(keep)}  # keeps each pair ordered
        sub = Multigraph.derived(
            len(keep),
            tuple((vmap[a], vmap[b]) for a, b in g.edges if a != v and b != v),
        )
        if not sub.is_connected():
            return False
    return True


# ---------------------------------------------------------------------------
# isomorphism (desk-scale)


def least_twins(g: Multigraph) -> list[int]:
    """``least_twins(g)[v]``: the least vertex u such that swapping u and v
    is an automorphism of g (v itself when no smaller one exists).

    u and v are twins when they carry equally many loops and equally many
    edges to every other vertex.  Swaps compose by conjugation, so
    twinship is an equivalence relation and the least twin names v's class.
    """
    loops, mult = _loops_and_multiplicities(g)
    out = list(range(g.n))
    for v in range(g.n):
        for u in range(v):
            if out[u] == u and loops[u] == loops[v] and _swappable(mult, u, v):
                out[v] = u
                break
    return out


def _loops_and_multiplicities(g: Multigraph) -> tuple[list[int], list[dict[int, int]]]:
    loops = [0] * g.n
    mult: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    return loops, mult


def _swappable(mult: list[dict[int, int]], u: int, v: int) -> bool:
    """Do u and v have the same edge multiplicity to every other vertex?"""
    mu, mv = mult[u], mult[v]
    return len(mu) - (v in mu) == len(mv) - (u in mv) and all(
        mv.get(w) == m for w, m in mu.items() if w != v
    )


def canonical_form(g: Multigraph, marked: bool = False) -> tuple:
    """Canonical certificate: equal exactly on isomorphic graphs.

    Individualization-refinement (McKay and Piperno, J. Symb. Comput.
    2014).  The initial vertex colours (non-loop degree, loop count, and,
    when ``marked`` and g has a distinguished edge, whether the vertex is
    one of its endpoints) are refined to an equitable partition.  While
    the partition is not discrete, the smallest non-singleton cell (ties
    to the smallest colour) is split by individualizing one vertex per
    twin class in it (see ``least_twins``; swapping twins is an
    automorphism that fixes everything individualized so far, so their
    branches give the same leaves), and refined again.  The certificate is
    the least, over all leaves, of (n, the sorted relabelled edge pairs,
    loops included, the sorted labels of the marked endpoints).

    It is g relabelled, so equal certificates mean isomorphic graphs; every
    step is isomorphism-invariant, so isomorphic graphs get equal ones.
    """
    loops, mult = _loops_and_multiplicities(g)
    nbrs = [tuple(m.items()) for m in mult]
    ends = g.edges[g.distinguished] if marked and g.distinguished is not None else ()
    initial = [(sum(m.values()), loops[v], v in ends) for v, m in enumerate(mult)]
    return _search(g, ends, mult, nbrs, _refine(initial, nbrs), None)


def _search(
    g: Multigraph,
    ends: tuple[int, ...],
    mult: list[dict[int, int]],
    nbrs: list[tuple[tuple[int, int], ...]],
    colors: list[int],
    best: tuple | None,
) -> tuple:
    """The least leaf certificate below the equitable partition ``colors``,
    or ``best`` if that is smaller; see ``canonical_form``."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    if len(cells) == g.n:
        leaf = (
            g.n,
            tuple(sorted(
                (colors[u], colors[v]) if colors[u] <= colors[v] else (colors[v], colors[u])
                for u, v in g.edges
            )),
            tuple(sorted(colors[v] for v in ends)),
        )
        return leaf if best is None or leaf < best else best
    _, c = min((len(cell), c) for c, cell in cells.items() if len(cell) > 1)
    reps: list[int] = []
    for v in cells[c]:
        # a cell shares one loop count and one marked flag, so a twin
        # swap inside it also keeps the marked endpoint pair
        if any(_swappable(mult, u, v) for u in reps):
            continue
        reps.append(v)
        refined = _refine([2 * k + (w != v) for w, k in enumerate(colors)], nbrs)
        best = _search(g, ends, mult, nbrs, refined, best)
    return best


def _refine(colors: list, nbrs: list[tuple[tuple[int, int], ...]]) -> list[int]:
    """Colour refinement to the coarsest equitable partition finer than
    ``colors``; returns dense ranks 0..k-1 that order cells by ``colors``.

    A vertex alone in its cell is already told apart by its colour, so its
    neighbourhood is not read."""
    sizes: dict = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    while True:
        keys = [
            (c, tuple(sorted([(colors[u], m) for u, m in nbrs[v]])) if sizes[c] > 1 else ())
            for v, c in enumerate(colors)
        ]
        distinct = sorted(set(keys))
        rank = {k: r for r, k in enumerate(distinct)}
        colors = [rank[k] for k in keys]
        if len(distinct) == len(sizes):
            return colors
        sizes = {}
        for c in colors:
            sizes[c] = sizes.get(c, 0) + 1


def is_isomorphic(a: Multigraph, b: Multigraph, *, use_distinguished: bool = True) -> bool:
    """Multigraph isomorphism: equality of ``canonical_form`` certificates.

    When ``use_distinguished`` a marked graph is never isomorphic to an
    unmarked one, and when both are marked the map must send the
    distinguished edge's endpoint pair to its counterpart.
    """
    if use_distinguished and (a.distinguished is None) != (b.distinguished is None):
        return False
    return canonical_form(a, use_distinguished) == canonical_form(b, use_distinguished)


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
    # g2's mark is not a bridge, so g2 less it joins a1 and b1 and the
    # merged edge is not one either
    return Multigraph.derived(nxt, _ordered(edges), 0)


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
    edges = g1.edges + _ordered((vmap[u], vmap[v]) for u, v in g2.edges)
    return Multigraph.derived(nxt, edges, g1.distinguished)


def permute_edges(g: Multigraph, order: tuple[int, ...]) -> Multigraph:
    """Reorder edges: new edge j is old edge ``order[j]``."""
    if sorted(order) != list(range(g.e)):
        raise ValueError("order must be a permutation of the edge indices")
    d = None if g.distinguished is None else order.index(g.distinguished)
    return Multigraph.derived(g.n, tuple(g.edges[o] for o in order), d)


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
    data = _load_json(text)
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


def _load_json(text: str):
    """``json.loads``, with input nested too deeply for the decoder raising
    ``ValueError`` like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


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
