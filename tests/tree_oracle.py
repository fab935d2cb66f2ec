"""Test oracle for ``spcube.multigraph.spanning_trees``: a whole-graph
backtracking enumerator, the only backtracking tree enumerator in the
project.

It grows acyclic edge sets over every non-loop edge of the graph in
edge-index order (Read and Tarjan, Networks 1975).  The kernel instead
folds tree sets by series-parallel reduction and splits what does not
reduce by deletion-contraction, so the two share no step.
``spcube.verify._trees_by_subsets`` is the brute force behind both.
"""

from __future__ import annotations

from spcube import Multigraph


def whole_graph_trees(g: Multigraph) -> list[int]:
    """All spanning trees of a connected multigraph, as sorted edge masks."""
    if g.n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    if not g.is_connected():
        raise ValueError("spanning trees require a connected graph")
    edges = [(u, v, 1 << i) for i, (u, v) in enumerate(g.edges) if u != v]
    out: list[int] = []
    _grow(edges, 0, g.n - 1, 0, list(range(g.n)), out)
    out.sort()
    return out


def _grow(edges, start, need, mask, comp, out) -> None:
    # extends ``mask`` by ``need`` edges of ``edges[start:]``, each joining
    # two components of ``comp``
    if need == 0:
        out.append(mask)
        return
    for j in range(start, len(edges) - need + 1):
        u, v, bit = edges[j]
        cu, cv = comp[u], comp[v]
        if cu != cv:
            _grow(edges, j + 1, need - 1, mask | bit, [cu if c == cv else c for c in comp], out)
