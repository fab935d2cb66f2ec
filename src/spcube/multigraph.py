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
import re
from dataclasses import dataclass
from itertools import combinations
from math import lcm, prod

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

    def is_connected(self) -> bool:
        return not any(_components(self))

    def with_distinguished(self, i: int | None) -> "Multigraph":
        return Multigraph(self.n, self.edges, i)


def _ordered(pairs) -> tuple[tuple[int, int], ...]:
    """The pairs as a tuple, each stored as ``(u, v)`` with ``u <= v``."""
    return tuple((u, v) if u <= v else (v, u) for u, v in pairs)


def _components(g: Multigraph, skip_edge: int | None = None) -> list[int]:
    """Each vertex's component number without edge ``skip_edge``, from one
    pass over the graph; components are numbered 0, 1, ... in order of
    their least vertex."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if i != skip_edge:
            nbrs[u].append(v)
            nbrs[v].append(u)
    label = [-1] * g.n
    count = 0
    for start in range(g.n):
        if label[start] < 0:
            label[start] = count
            stack = [start]
            while stack:
                for u in nbrs[stack.pop()]:
                    if label[u] < 0:
                        label[u] = count
                        stack.append(u)
            count += 1
    return label


def _groups(labels: list[int]) -> list[list[int]]:
    """The indices of each label, for labels numbered in order of first index."""
    out: list[list[int]] = []
    for x, c in enumerate(labels):
        if c == len(out):
            out.append([])
        out[c].append(x)
    return out


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
    label = _components(g, skip_edge=i)
    return label[u] != label[v]


# ---------------------------------------------------------------------------
# spanning trees by series-parallel reduction

# ``tree_count`` takes a determinant only on the irreducible core, cubic in
# its vertices: a 256-vertex cubic core takes about 2 s (Python 3.11,
# shared 2-core x86 machine)
CORE_VERTEX_LIMIT = 256


# ``spanning_trees`` holds tree sets as int bitsets of 2^e bits up to this
# many edges, and as ``_MaskList``s above.  A bitset product costs about the
# product of the operands' digit counts, and a core's splits make the most
# products, so cores cross over first (Python 3.11, shared 2-core x86
# machine, best of 200 in process, bitsets against lists): the 6-spoke
# wheel, 12 edges, 0.165 against 0.213 ms; with a doubled spoke, 13 edges,
# 0.270 against 0.222 ms; K5 with three edges subdivided, 13 edges, 0.222
# against 0.237 ms; the 7-spoke wheel, 14 edges, 0.60 against 0.36 ms.  A
# chain with no core, ``fib_chain(e)``: 0.032 against 0.057 ms at 12 edges,
# 0.064 against 0.078 ms at 13, 0.10 against 0.11 ms at 14, 0.24 against
# 0.16 ms at 15.
TREE_BITSET_LIMIT = 12


def _sp_reduce(g: Multigraph, values: list, compose) -> tuple[list, list[dict | None]]:
    """Series-parallel reduction of g (Valdes, Tarjan and Lawler, SIAM J.
    Comput. 1982), folding values as it reduces.

    ``values[i]`` is edge i's value as a two-terminal network, and
    ``compose(series, x, y)`` joins two values in series or in parallel.
    Loops are dropped, parallel networks merge, the two networks at a
    vertex of degree 2 join in series, and a vertex of degree 1 leaves
    with its network's value appended to ``pendant``.  Returns
    ``(pendant, adj)``: for each vertex left, a map from its neighbours to
    the value of the network between them; None for a removed vertex.
    Every vertex left has degree 0 or at least 3, so the ones of degree at
    least 3 and their networks are the irreducible core.  The order of the
    worklist does not change whether a core is left.
    """
    adj: list[dict | None] = [{} for _ in range(g.n)]
    pendant: list = []
    for (u, v), x in zip(g.edges, values):
        if u == v:
            continue
        if v in adj[u]:
            x = compose(False, adj[u][v], x)
        adj[u][v] = adj[v][u] = x
    # a vertex's degree never grows, so it is queued once it is at most 2
    work = [v for v in range(g.n) if len(adj[v]) <= 2]
    while work:
        w = work.pop()
        nbrs = adj[w]
        if not nbrs:  # removed, or isolated
            continue
        adj[w] = None
        if len(nbrs) == 1:
            ((a, x),) = nbrs.items()
            pendant.append(x)
            del adj[a][w]
        else:
            (a, xa), (b, xb) = nbrs.items()
            x = compose(True, xa, xb)
            del adj[a][w], adj[b][w]
            if b not in adj[a]:
                adj[a][b] = adj[b][a] = x
                continue  # a and b keep their degrees
            adj[a][b] = adj[b][a] = compose(False, adj[a][b], x)
            if len(adj[b]) <= 2:
                work.append(b)
        if len(adj[a]) <= 2:
            work.append(a)
    return pendant, adj


def spanning_trees(g: Multigraph) -> list[int]:
    """All spanning trees of a connected multigraph, as sorted edge bitmasks.

    Bit ``i`` of a mask corresponds to edge ``i``.  Raises ``ValueError``
    on a disconnected (or empty) graph.

    ``_tree_set`` reduces g by ``_sp_reduce``, folding each network's
    (T, F) mask sets by ``_count_tf``, the rule of ``tree_count``: the
    spanning trees of the two-terminal network, and the 2-component
    spanning forests separating its terminals.  An edge has T = {itself}
    and F = {no edge}.  A set is an int bitset (bit m marks mask m, as in
    ``spterm.tree_bitsets``) on graphs of at most ``TREE_BITSET_LIMIT``
    edges, and a ``_MaskList`` above; on both a product is a join and a
    sum a disjoint union.  A pendant network is in every tree with one of
    its T masks.  Whatever does not reduce, such as K4 and its
    subdivisions, is an irreducible core; it splits at one network by
    deletion and contraction, and both sides reduce again.
    """
    if g.n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    if g.n > g.e + 1:  # too few edges for a tree; else n is O(e)
        raise ValueError("spanning trees require a connected graph")
    if g.e <= TREE_BITSET_LIMIT:
        masks = _members(_tree_set(g, [(1 << (1 << i), 1) for i in range(g.e)], 1, 0))
    else:
        leaves = [(_MaskList([1 << i]), _MaskList([0])) for i in range(g.e)]
        masks = _tree_set(g, leaves, _MaskList([0]), _MaskList([])).masks
        masks.sort()
    if not masks:
        raise ValueError("spanning trees require a connected graph")
    return masks


def _tree_set(g: Multigraph, values: list, acc, out):
    """``out`` plus ``acc`` times the set of g's spanning trees, where
    ``values[i]`` is edge i's (T, F) pair of sets; a ``_MaskList`` ``out``
    is extended in place.

    The reduction leaves pendant networks, whose T's join ``acc``, and a
    core.  A core of one vertex adds ``acc``; a disconnected one adds
    nothing.  Otherwise one network (x, y, (T, F)) at a core vertex of
    least degree splits it: the trees without it are F times those of the
    core less it, and the trees with it T times those of the core with x
    and y merged (Haggard, Pearce and Royle, ACM TOMS 2010).  Each split
    takes one network off the core, so the recursion is at most as deep
    as the core has networks.
    """
    pendant, adj = _sp_reduce(g, values, _count_tf)
    factors = sorted([acc, *(t for t, _ in pendant)], key=lambda s: s.bit_count())  # small first
    acc = prod(factors[1:], start=factors[0])
    left = [v for v, nbrs in enumerate(adj) if nbrs is not None]
    if len(left) == 1:
        out += acc
        return out
    core, values = _core(adj, left)
    if not core.is_connected():
        return out
    low = min(range(core.n), key=lambda x: len(adj[left[x]]))
    j = next(j for j, e in enumerate(core.edges) if low in e)
    t, f = values.pop(j)
    out = _tree_set(delete_edge(core, j), values, acc * f, out)
    return _tree_set(contract(core, j), values, acc * t, out)


class _MaskList:
    """A set of edge masks as a list, with a bitset's arithmetic: ``*`` is
    the join of two sets on disjoint edges (every union of a member of
    each), and ``+`` the union of two disjoint sets, by concatenation;
    ``+=`` concatenates in place.  A product by {no edge}, the F of an
    edge, is the other operand itself, not a copy.  Any other product,
    and every sum, is made when its masks are first read, so one that
    nothing reads, such as the F of a reduction's last parallel merge,
    costs nothing, and a bundle of k parallel edges, a chain of k sums,
    is concatenated once.  Values may so share a list: none is mutated
    but the sum that ``_tree_set`` extends and the finished set that
    ``spanning_trees`` sorts, and a sum is made into a new list."""

    __slots__ = ("_masks", "_factors", "_terms", "_count")

    def __init__(self, masks: list[int] | None, factors: tuple | None = None, terms: tuple | None = None):
        # masks is None while the product of factors or the sum of terms is
        # not yet made
        self._masks, self._factors, self._terms = masks, factors, terms

    @property
    def masks(self) -> list[int]:
        if self._masks is None:
            if self._terms is None:
                xs, ys = self._factors
                self._masks, self._factors = [x | y for y in ys for x in xs], None
            else:
                # a chain of sums nests as deep as it is long: walk it in
                # order by a stack of the right terms still to read
                masks, stack = [], [self]
                while stack:
                    x = stack.pop()
                    while x._terms is not None:
                        x, right = x._terms
                        stack.append(right)
                    masks += x.masks
                self._masks, self._terms = masks, None
        return self._masks

    def __mul__(self, other: _MaskList) -> _MaskList:
        # only a made {no edge} is seen, so no sum is made to check it; any
        # other one is joined as a set, which is right, only slower
        if other._masks == [0]:
            return self
        if self._masks == [0]:
            return other
        return _MaskList(None, (self.masks, other.masks))

    def __add__(self, other: _MaskList) -> _MaskList:
        total = _MaskList(None, terms=(self, other))
        total._count = self.bit_count() + other.bit_count()
        return total

    def __iadd__(self, other: _MaskList) -> _MaskList:
        self.masks.extend(other.masks)
        return self

    def bit_count(self) -> int:
        """The number of members, as ``int.bit_count`` of a bitset."""
        if self._masks is not None:
            return len(self._masks)
        if self._terms is not None:
            return self._count
        xs, ys = self._factors
        return len(xs) * len(ys)


_ONE = re.compile("1")


def _members(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, ascending: one scan of
    its binary digits, linear in its length."""
    return [m.start() for m in _ONE.finditer(bin(bits)[:1:-1])]


def _core(adj: list[dict | None], left: list[int]) -> tuple[Multigraph, list]:
    """The irreducible core that ``_sp_reduce`` left, as a graph with one
    edge per network, its vertices numbered by their place in ``left``,
    and the networks' values in edge order.  When the core is disconnected,
    so was the graph."""
    label = {v: x for x, v in enumerate(left)}
    networks = [((label[v], label[u]), x) for v in left for u, x in adj[v].items() if v < u]
    return Multigraph.derived(len(left), tuple(e for e, _ in networks)), [x for _, x in networks]


def _count_tf(series: bool, a, b):
    """The (T, F) rule: the spanning trees T and the terminal-separating
    2-component spanning forests F of two networks a and b, on disjoint
    edges, composed in series or in parallel.  A series tree is a tree of
    both, and a series forest a forest of one and a tree of the other;
    parallel composition is the dual, with T and F swapped.

    T and F are counts (``tree_count``, ``spterm.tf_counts``), or sets of
    edge masks on which a product is the join and a sum the disjoint
    union: int bitsets, bit m for mask m (``spterm.tree_bitsets``, and
    ``spanning_trees`` up to ``TREE_BITSET_LIMIT`` edges), or
    ``_MaskList``s."""
    (ta, fa), (tb, fb) = a, b
    if series:
        return ta * tb, ta * fb + fa * tb
    return ta * fb + fa * tb, fa * fb


def tree_count(g: Multigraph) -> int:
    """Number of spanning trees; 0 for a disconnected graph.

    ``_sp_reduce`` folds (T, F) counts as ``spanning_trees`` folds mask
    sets: an edge has (1, 1), series and parallel joins compose by
    ``_count_tf``, and a pendant network multiplies the count by its T.
    Only an irreducible core takes a determinant (``_core_count``), so a
    series-parallel graph of any size costs linear time.  Raises
    ``SizeGuardError`` before any matrix is built when the core has more
    than ``CORE_VERTEX_LIMIT`` vertices, and ``ValueError`` on the empty
    graph.
    """
    if g.n == 0:
        raise ValueError("tree count of the empty graph is undefined")
    if g.n > g.e + 1:  # too few edges for a tree; else n is O(e)
        return 0
    pendant, adj = _sp_reduce(g, [(1, 1)] * g.e, _count_tf)
    count = prod(t for t, _ in pendant)
    left = [v for v, nbrs in enumerate(adj) if nbrs is not None]
    if len(left) == 1:
        return count
    core, values = _core(adj, left)
    if not core.is_connected():
        return 0
    if len(left) > CORE_VERTEX_LIMIT:
        raise SizeGuardError(
            f"an irreducible core of {len(left)} vertices exceeds the tree-count guard "
            f"{CORE_VERTEX_LIMIT}"
        )
    return count * _core_count(core, values)


def _core_count(core: Multigraph, values: list[tuple[int, int]]) -> int:
    """The sum, over the spanning trees S of a core whose edge i is a
    network of value ``values[i]`` = (T, F), of the product of T over S
    and of F over the other networks.

    That is Kirchhoff's determinant with weight T / F on each network, times
    the product of every F (each F is at least 1).  To stay in integers,
    row x of the Laplacian is scaled by D_x, the lcm of the F's at x; the
    determinant of the reduced matrix (row and column 0 dropped) then
    gains the factor D_1 ... D_{n-1}, which divides out exactly.
    """
    scale = [1] * core.n
    for (x, y), (_, f) in zip(core.edges, values):
        scale[x] = lcm(scale[x], f)
        scale[y] = lcm(scale[y], f)
    lap = [[0] * core.n for _ in range(core.n)]
    weights = 1
    for (x, y), (t, f) in zip(core.edges, values):
        weights *= f
        wx, wy = scale[x] // f * t, scale[y] // f * t
        lap[x][x] += wx
        lap[x][y] -= wx
        lap[y][y] += wy
        lap[y][x] -= wy
    return weights * _int_det([row[1:] for row in lap[1:]]) // prod(scale[1:])


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

    edges = _ordered((remap(a), remap(b)) for j, (a, b) in enumerate(g.edges) if j != i)
    return Multigraph.derived(g.n - 1, edges)


def delete_edge(g: Multigraph, i: int) -> Multigraph:
    """Delete edge i, keeping all vertices.  No distinguished edge on the result."""
    _check_edge_index(g, i)
    return Multigraph.derived(g.n, g.edges[:i] + g.edges[i + 1 :])


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
    out = []
    for idxs in _groups(_block_labels(g)):
        verts = sorted({w for i in idxs for w in g.edges[i]})
        vmap = {w: x for x, w in enumerate(verts)}  # keeps each pair ordered
        sub = Multigraph.derived(
            len(verts), tuple((vmap[u], vmap[v]) for u, v in (g.edges[i] for i in idxs))
        )
        out.append(Block(sub, tuple(idxs), tuple(verts)))
    return out


def _block_labels(g: Multigraph) -> list[int]:
    """Each edge's block number, blocks numbered 0, 1, ... in order of
    their least edge; a loop is a block of its own.  One iterative lowpoint
    search (Hopcroft and Tarjan, Comm. ACM 1973): an edge enters a stack
    when first crossed, a tree edge going down and a back edge from below,
    and a child c of p that finishes with ``low[c] >= disc[p]`` closes the
    block of the stacked edges down to the tree edge p-c."""
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    label = [-1] * g.e
    count = 0
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            label[i] = count
            count += 1
        else:
            nbrs[u].append((v, i))
            nbrs[v].append((u, i))
    disc = [-1] * g.n
    low = [0] * g.n
    stack: list[int] = []
    clock = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        frames = [(root, -1, iter(nbrs[root]))]  # (vertex, entering edge, cursor)
        while frames:
            v, in_edge, cursor = frames[-1]
            for u, i in cursor:
                if disc[u] < 0:
                    stack.append(i)
                    disc[u] = low[u] = clock
                    clock += 1
                    frames.append((u, i, iter(nbrs[u])))
                    break
                if disc[u] < disc[v] and i != in_edge:  # a parallel copy of in_edge is a back edge
                    stack.append(i)
                    low[v] = min(low[v], disc[u])
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        while True:
                            j = stack.pop()
                            label[j] = count
                            if j == in_edge:
                                break
                        count += 1
    first: dict[int, int] = {}
    return [first.setdefault(c, len(first)) for c in label]


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
    _, adj = _sp_reduce(g, [None] * g.e, lambda series, x, y: None)
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
    """At least two edges, no loops, connected, and a single block, so that
    no vertex deletion disconnects it (``verify._two_connected_by_deletion``
    tests that definition, vertex by vertex, as the oracle)."""
    if g.e < 2 or any(u == v for u, v in g.edges) or not g.is_connected():
        return False
    return not any(_block_labels(g))


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
