"""Test oracle for ``spcube.multigraph.blocks``, by brute force.

Two edges lie in one block exactly when some cycle passes through both,
and a loop or a bridge is a block of its own.  So the blocks are the
classes of the union, over every edge subset that forms a cycle, of that
subset's edges.  A subset forms a cycle when it is connected and every
vertex it touches has degree 2 in it, which also takes in a single loop
and a pair of parallel edges.  Connectivity is decided by union-find
here, so nothing is shared with the lowpoint search it checks.
"""

from __future__ import annotations

from itertools import combinations

from spcube import Multigraph


def _root(parent, x: int) -> int:
    """The root of x in a union-find forest, a list or a dict of parents."""
    while parent[x] != x:
        x = parent[x]
    return x


def _is_cycle(edges: list[tuple[int, int]]) -> bool:
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if any(d != 2 for d in degree.values()):
        return False
    parent = {v: v for v in degree}
    for u, v in edges:
        parent[_root(parent, u)] = _root(parent, v)
    return len({_root(parent, v) for v in degree}) == 1


def blocks_by_cycles(g: Multigraph) -> list[tuple[int, ...]]:
    """The blocks of g as sorted edge-index tuples, in order of their
    least edge."""
    parent = list(range(g.e))
    for k in range(1, g.e + 1):
        for subset in combinations(range(g.e), k):
            if _is_cycle([g.edges[i] for i in subset]):
                for i in subset[1:]:
                    parent[_root(parent, i)] = _root(parent, subset[0])
    classes: dict[int, list[int]] = {}
    for i in range(g.e):
        classes.setdefault(_root(parent, i), []).append(i)
    return sorted(tuple(c) for c in classes.values())
