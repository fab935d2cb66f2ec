"""Named small graphs used by worked examples, named patterns, and tables.

Edge orders here are pinned: they fix the coordinate order of every
pattern derived from these graphs, and the tests assert the resulting
string sets verbatim.
"""

from __future__ import annotations

from .multigraph import Multigraph, add_leaf, duplicate_edge, subdivide_edge

__all__ = [
    "k1",
    "single_edge",
    "c2",
    "c2_marked",
    "triangle",
    "parallel_edges",
    "k4_minus_edge",
    "k4_x16",
    "k4_y18",
    "alon_graph",
    "partite_graph",
    "fib_chain",
]


def k1() -> Multigraph:
    return Multigraph(1, ())


def single_edge() -> Multigraph:
    return Multigraph(2, ((0, 1),))


def c2() -> Multigraph:
    """Two vertices joined by two parallel edges."""
    return Multigraph(2, ((0, 1), (0, 1)))


def c2_marked() -> Multigraph:
    """The 2-cycle with its first edge distinguished."""
    return Multigraph(2, ((0, 1), (0, 1)), distinguished=0)


def triangle() -> Multigraph:
    """3-cycle with edges (0,1), (1,2), (0,2) in that order."""
    return Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def parallel_edges(k: int) -> Multigraph:
    """Two vertices joined by k parallel edges."""
    return Multigraph(2, ((0, 1),) * k)


def k4_minus_edge() -> Multigraph:
    """K4 minus one edge, with the five edges ordered so that the tree
    patterns come out as 01110, 10110, 11010, 11100, 01011, 01101, 10101,
    10011.  Edge 4 is the one joining the two degree-3 vertices."""
    return Multigraph(4, ((0, 1), (0, 2), (1, 3), (2, 3), (1, 2)))


def k4_x16() -> Multigraph:
    """K4 ordered so the non-trees are 010101, 011010, 100110, 101001:
    opposite (vertex-disjoint) edges sit at positions (0,1), (2,3), (4,5)."""
    return Multigraph(4, ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)))


def k4_y18() -> Multigraph:
    """K4 with a distinguished last edge, ordered so that contracting it
    leaves the parallel pairs at coordinate pairs (1,2) and (3,4)."""
    return Multigraph(
        4, ((2, 3), (1, 2), (0, 2), (1, 3), (0, 3), (0, 1)), distinguished=5
    )


def alon_graph(sizes: tuple[int, ...]) -> Multigraph:
    """Cycle of parallel classes: class i has ``sizes[i]`` parallel edges
    between consecutive cycle vertices.  Edges are grouped by class, in
    class order, so block j of any derived string is class j.  With a
    single class the edges degenerate to loops on one vertex."""
    k = len(sizes)
    if k == 0 or any(a < 1 for a in sizes):
        raise ValueError("need at least one class, all sizes positive")
    if k == 1:
        return Multigraph(1, ((0, 0),) * sizes[0])
    edges = []
    for i, a in enumerate(sizes):
        u, v = i, (i + 1) % k
        edges += [(u, v)] * a
    return Multigraph(k, tuple(edges))


def partite_graph(sizes: tuple[int, ...]) -> Multigraph:
    """Path of parallel classes closed by a distinguished edge: the
    ``alon_graph`` of ``sizes`` and one more class of one edge, marked.

    Vertices 0..k on a path; class i sits between vertices i and i+1; the
    distinguished edge joins 0 and k and is appended last, so the first
    sum(sizes) coordinates are the class blocks in order.  An empty
    ``sizes`` is refused: its cycle would be a loop.  Otherwise the marked
    edge lies on the cycle, so it is neither a loop nor a bridge."""
    if not sizes:
        raise ValueError("need at least one class, all sizes positive")
    g = alon_graph(tuple(sizes) + (1,))
    return Multigraph.derived(g.n, g.edges, g.e - 1)


def fib_chain(d: int) -> Multigraph:
    """The d-edge graph of the alternating duplicate/subdivide chain whose
    tree counts follow the Fibonacci recurrence.

    Even steps duplicate, odd steps subdivide, always acting on the
    second member of the most recently created pair.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    g = k1()
    if d == 0:
        return g
    g = add_leaf(g, 0)
    target = 0
    for step in range(2, d + 1):
        if step % 2 == 0:
            g = duplicate_edge(g, target)
        else:
            g = subdivide_edge(g, target)
        target += 1
    return g
