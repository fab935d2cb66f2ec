"""Test oracle for the pattern maps, by their definitions on strings.

``spcube.patterns`` and ``spcube.operators`` store patterns as masks and
work by shifts and XORs.  The bodies here are the string-level
definitions those replaced: Y and H take the trees of G/i and of G - i
from two separate minors, psi forgets a coordinate by string slicing, the
operators rewrite one character, and the pattern-graph maps read endpoints
off starred strings.  Pairs are found by string comparison.  Patterns come
in and go out through the public string boundary (``.strings`` and the
string constructors) only, so none of this shares code with the mask
kernels and the two can check each other.

The pattern-graph structure helpers are checked by union-find over a
graph's edges, where the kernels run ``multigraph``'s search.  A graph
numbers its vertices, the lower part first; ``_mask_edges`` reads the
numbers back as masks, so these checks, the string forms and the JSON
reference work on masks and strings and never on the numbering.
"""

from __future__ import annotations

import json

from spcube import EdgePattern, Multigraph, PatternGraph, VertexPattern
from spcube.multigraph import contract, delete_edge
from spcube.operators import DUP
from spcube.patterns import x_pattern


def _pairs(lower: set[str], upper: set[str]) -> list[tuple[str, str, str]]:
    """(s, t, starred) for every s in lower, t in upper at Hamming distance 1."""
    out = []
    for t in upper:
        for j, ch in enumerate(t):
            if ch != "1":
                continue
            s = t[:j] + "0" + t[j + 1 :]
            if s in lower:
                out.append((s, t, t[:j] + "*" + t[j + 1 :]))
    return out


def _minor_trees(g: Multigraph, i: int) -> tuple[frozenset[str], frozenset[str]]:
    return x_pattern(contract(g, i)).strings, x_pattern(delete_edge(g, i)).strings


def y_reference(g: Multigraph, i: int) -> EdgePattern:
    lower, upper = _minor_trees(g, i)
    strings = frozenset(star for _, _, star in _pairs(lower, upper))
    return EdgePattern(g.e - g.n, g.n - 2, strings)


def h_reference(g: Multigraph, i: int) -> PatternGraph:
    lower, upper = _minor_trees(g, i)
    edges = frozenset((s, t) for s, t, _ in _pairs(lower, upper))
    return PatternGraph(lower, upper, edges)


def psi_reference(x: VertexPattern, i: int) -> EdgePattern:
    lows: set[str] = set()
    highs: set[str] = set()
    for s in x.strings:
        (highs if s[i] == "0" else lows).add(s[:i] + s[i + 1 :])
    strings = frozenset(star for _, _, star in _pairs(lows, highs))
    return EdgePattern(x.a - 1, x.b - 1, strings)


def duplicate_v_reference(x: VertexPattern, i: int, kind: str) -> VertexPattern:
    double = "0" if kind == DUP else "1"
    out = set()
    for s in x.strings:
        pre, c, suf = s[:i], s[i], s[i + 1 :]
        if c == double:
            out.add(pre + c + c + suf)
        else:
            out.add(pre + c + double + suf)
            out.add(pre + double + c + suf)
    if kind == DUP:
        return VertexPattern(x.a + 1, x.b, out)
    return VertexPattern(x.a, x.b + 1, out)


def duplicate_e_reference(y: EdgePattern, i: int, kind: str) -> EdgePattern:
    double = pad = "0" if kind == DUP else "1"
    out = set()
    for s in y.strings:
        pre, c, suf = s[:i], s[i], s[i + 1 :]
        if c == double:
            out.add(pre + c + c + suf)
        else:
            # a split coordinate (the other constant, or the star)
            out.add(pre + c + pad + suf)
            out.add(pre + pad + c + suf)
    if kind == DUP:
        return EdgePattern(y.a + 1, y.b, out)
    return EdgePattern(y.a, y.b + 1, out)


def dual_reference(p):
    table = str.maketrans("01", "10")
    strings = {s.translate(table) for s in p.strings}
    return type(p)(p.b, p.a, strings)


def _endpoints(starred: str) -> tuple[str, str]:
    return starred.replace("*", "0"), starred.replace("*", "1")


def phi_reference(y: EdgePattern) -> VertexPattern:
    strings = set()
    for s in y.strings:
        lo, hi = _endpoints(s)
        strings.add(lo + "1")
        strings.add(hi + "0")
    return VertexPattern(y.a + 1, y.b + 1, strings)


def _mask_edges(h: PatternGraph) -> set[tuple[int, int]]:
    """H's edges as (lower mask, upper mask) pairs: vertex x is lower[x],
    and vertex len(lower) + j is upper[j]."""
    vertices = list(h.lower) + list(h.upper)
    return {(vertices[x], vertices[y]) for x, y in h.edges}


def _graph_strings(h: PatternGraph):
    def name(m: int) -> str:  # character j is bit j
        return "".join("1" if m >> j & 1 else "0" for j in range(h.width))

    lower = {name(m) for m in h.lower}
    upper = {name(m) for m in h.upper}
    edges = {(name(lo), name(hi)) for lo, hi in _mask_edges(h)}
    return lower, upper, edges


def json_reference(h: PatternGraph) -> str:
    """The pattern-graph JSON: every list sorted as strings."""
    lower, upper, edges = _graph_strings(h)
    return json.dumps(
        {"lower": sorted(lower), "upper": sorted(upper), "edges": sorted(map(list, edges))}
    )


def product_join_reference(h1: PatternGraph, h2: PatternGraph) -> PatternGraph:
    """Vertex pairs as string concatenations; inputs assumed connected."""
    lower1, upper1, edges1 = _graph_strings(h1)
    lower2, upper2, edges2 = _graph_strings(h2)
    lower = {l1 + l2 for l1 in lower1 for l2 in lower2}
    upper = {l1 + u2 for l1 in lower1 for u2 in upper2}
    upper |= {u1 + l2 for u1 in upper1 for l2 in lower2}
    edges = {(l1 + lo2, l1 + hi2) for l1 in lower1 for lo2, hi2 in edges2}
    edges |= {(lo1 + l2, hi1 + l2) for lo1, hi1 in edges1 for l2 in lower2}
    return PatternGraph(lower, upper, edges)


def pattern_graph_reference(y: EdgePattern) -> PatternGraph:
    """The graph spanned by an edge pattern."""
    edges = {_endpoints(s) for s in y.strings}
    return PatternGraph({lo for lo, _ in edges}, {hi for _, hi in edges}, edges)


def edge_pattern_reference(h: PatternGraph) -> EdgePattern:
    """The starred string of each edge: the one place its ends differ."""
    _, _, edges = _graph_strings(h)
    strings = set()
    for lo, hi in edges:
        diff = [j for j in range(len(lo)) if lo[j] != hi[j]]
        assert len(diff) == 1 and lo[diff[0]] == "0"
        strings.add(lo[: diff[0]] + "*" + lo[diff[0] + 1 :])
    sample = next(iter(strings))
    return EdgePattern(sample.count("0"), sample.count("1"), strings)


def _union_find_components(vertices, edges) -> list[set[int]]:
    """The components, each listed when its least vertex is reached."""
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[root(a)] = root(b)
    groups: dict[int, set[int]] = {}
    for v in sorted(vertices):
        groups.setdefault(root(v), set()).add(v)
    return list(groups.values())


def components_reference(h: PatternGraph) -> list[set[int]]:
    return _union_find_components(set(h.lower) | set(h.upper), _mask_edges(h))


def two_connected_reference(h: PatternGraph) -> bool:
    """At least two edges, connected, and connected after any one vertex
    is deleted (a pattern graph has no loops)."""
    vertices, edges = set(h.lower) | set(h.upper), _mask_edges(h)
    if len(edges) < 2 or len(components_reference(h)) != 1:
        return False
    for v in vertices:
        rest = [(a, b) for a, b in edges if v not in (a, b)]
        if len(_union_find_components(vertices - {v}, rest)) > 1:
            return False
    return True


def shape_reference(h: PatternGraph) -> str:
    """A connected graph with every degree 2 and as many edges as
    vertices is a cycle; a tree with every degree at most 2 is a path."""
    degree = {v: 0 for v in set(h.lower) | set(h.upper)}
    edges = _mask_edges(h)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    v, e = len(degree), len(edges)
    if len(components_reference(h)) == 1:
        if e == v and all(d == 2 for d in degree.values()):
            return f"cycle({v})"
        if e == v - 1 and all(d <= 2 for d in degree.values()):
            return f"path({v})"
    return f"graph({v},{e})"
