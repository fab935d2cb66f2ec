"""Test oracle for multigraph isomorphism: colour refinement to prune,
then backtracking over colour-preserving vertex maps.

This is independent of ``spcube.multigraph.canonical_form`` (no
individualization, no certificate), so the two can check each other.
"""

from __future__ import annotations

from functools import lru_cache

from spcube import Multigraph


def _multiplicities(g: Multigraph) -> dict[tuple[int, int], int]:
    mult: dict[tuple[int, int], int] = {}
    for e in g.edges:
        mult[e] = mult.get(e, 0) + 1
    return mult


@lru_cache(maxsize=None)
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
    degree = [2 * loops[v] + sum(mult[v].values()) for v in range(g.n)]  # a loop counts twice
    colors = [(degree[v], loops[v], v in special) for v in range(g.n)]
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


@lru_cache(maxsize=None)
def _signature(g: Multigraph, marked: bool):
    colors = _refined_colors(g, marked)
    esig = sorted(
        (min(colors[u], colors[v]), max(colors[u], colors[v]), u == v)
        for u, v in g.edges
    )
    return (g.n, g.e, tuple(sorted(colors)), tuple(esig))


def backtrack_isomorphic(
    a: Multigraph, b: Multigraph, *, use_distinguished: bool = True
) -> bool:
    """Multigraph isomorphism by backtracking.  When ``use_distinguished``
    a marked graph never matches an unmarked one, and when both are marked
    the map must send the distinguished edge's endpoint pair to its
    counterpart."""
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
