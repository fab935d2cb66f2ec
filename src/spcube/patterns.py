"""Layer patterns: tree sets, starred edge sets, and the maps between them.

Vertex patterns live in the layer L(a,b) of binary strings with a zeros
and b ones; edge patterns live in L'(a,b), strings with one extra ``*``
marking an edge direction.  Coordinate i of every string is edge i of the
originating graph.  All string sets are canonically ordered with
0 < 1 < *.

X, Y, H, psi and y18 are computed on int masks (bit j = coordinate j)
and turned into strings once, at the end: X from G's spanning trees; Y
and H by splitting those same trees on bit i (the trees of G/i and of
G - i) and pairing the two sides at Hamming distance 1.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, product

from . import catalog
from .multigraph import Multigraph, spanning_trees

__all__ = [
    "VertexPattern",
    "EdgePattern",
    "PatternGraph",
    "sort_key",
    "layer_strings",
    "starred_layer_strings",
    "x_pattern",
    "y_pattern",
    "h_graph",
    "dual_pattern",
    "phi",
    "psi",
    "product_join",
    "pattern_graph_from_edge_pattern",
    "edge_pattern_from_pattern_graph",
    "pg_components",
    "pg_is_connected",
    "pg_is_two_connected",
    "pg_shape",
    "pg_to_json",
    "pg_from_json",
    "alon_pattern",
    "partite_pattern",
    "x16_pattern",
    "y18_pattern",
    "x_k4_pattern",
    "y_k4_pattern",
    "named_pattern",
    "NAMED_PATTERN_NOTES",
    "format_pattern",
    "parse_pattern",
    "load_pattern",
    "save_pattern",
]

_ORDER = str.maketrans("01*", "012")


def sort_key(s: str) -> str:
    """Sort key realizing the character order 0 < 1 < *."""
    return s.translate(_ORDER)


_BITS = frozenset("01")


def _weight(s: str) -> int:
    return s.count("1")


@dataclass(frozen=True)
class VertexPattern:
    """A subset of the layer L(a, b)."""

    a: int
    b: int
    strings: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "strings", frozenset(self.strings))
        if self.a < 0 or self.b < 0:
            raise ValueError("layer parameters must be nonnegative")
        n = self.a + self.b
        for s in self.strings:
            if len(s) != n or s.count("0") != self.a or s.count("1") != self.b:
                raise ValueError(f"string {s!r} is not in L({self.a},{self.b})")

    @property
    def sorted_strings(self) -> list[str]:
        # 0/1 strings: the order 0 < 1 is code-point order, so no sort key
        return sorted(self.strings)

    def __len__(self) -> int:
        return len(self.strings)


@dataclass(frozen=True)
class EdgePattern:
    """A subset of the starred layer L'(a, b): one ``*`` per string."""

    a: int
    b: int
    strings: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "strings", frozenset(self.strings))
        if self.a < 0 or self.b < 0:
            raise ValueError("layer parameters must be nonnegative")
        n = self.a + self.b + 1
        for s in self.strings:
            if (
                len(s) != n
                or s.count("*") != 1
                or s.count("0") != self.a
                or s.count("1") != self.b
            ):
                raise ValueError(f"string {s!r} is not in L'({self.a},{self.b})")

    @property
    def sorted_strings(self) -> list[str]:
        return sorted(self.strings, key=sort_key)

    def __len__(self) -> int:
        return len(self.strings)


def _endpoints(starred: str) -> tuple[str, str]:
    """(lower, upper) endpoints of a starred edge string."""
    return starred.replace("*", "0"), starred.replace("*", "1")


def _star_between(lower: str, upper: str) -> str:
    """Starred string of a Hamming-1 pair with weight(upper) = weight(lower)+1."""
    diff = [j for j in range(len(lower)) if lower[j] != upper[j]]
    if len(diff) != 1 or lower[diff[0]] != "0":
        raise ValueError(f"{lower!r}/{upper!r} is not an upward Hamming-1 pair")
    j = diff[0]
    return lower[:j] + "*" + lower[j + 1 :]


@dataclass(frozen=True)
class PatternGraph:
    """Bipartite graph between two consecutive-weight string sets, with
    edges only at Hamming distance 1 (an induced-subgraph-of-the-cube shape).
    Every string of either part is a 0/1 string, all of one length.
    """

    lower: frozenset[str]
    upper: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "lower", frozenset(self.lower))
        object.__setattr__(self, "upper", frozenset(self.upper))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        strings = self.lower | self.upper
        n = len(min(strings, default=""))
        bad = [s for s in strings if len(s) != n or not set(s) <= _BITS]
        if bad:
            raise ValueError(f"pattern-graph string {min(bad)!r} is not a 0/1 string of length {n}")
        if self.lower:
            w = _weight(next(iter(self.lower)))
            if any(_weight(s) != w for s in self.lower):
                raise ValueError("lower part must sit in a single layer")
            if any(_weight(s) != w + 1 for s in self.upper):
                raise ValueError("upper part must sit one layer above the lower part")
        for lo, hi in self.edges:
            if lo not in self.lower or hi not in self.upper:
                raise ValueError(f"edge ({lo},{hi}) has an endpoint outside the parts")
            _star_between(lo, hi)  # validates Hamming distance 1

    @property
    def vertex_count(self) -> int:
        return len(self.lower) + len(self.upper)

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {s: set() for s in self.lower | self.upper}
        for lo, hi in self.edges:
            adj[lo].add(hi)
            adj[hi].add(lo)
        return adj


def layer_strings(a: int, b: int) -> list[str]:
    """All of L(a,b), canonically sorted."""
    n = a + b
    out = []
    for ones in combinations(range(n), b):
        s = "".join("1" if j in ones else "0" for j in range(n))
        out.append(s)
    return sorted(out, key=sort_key)


def starred_layer_strings(a: int, b: int) -> list[str]:
    """All of L'(a,b), canonically sorted."""
    n = a + b + 1
    out = []
    for star in range(n):
        rest = [j for j in range(n) if j != star]
        for ones in combinations(rest, b):
            s = "".join(
                "*" if j == star else ("1" if j in ones else "0") for j in range(n)
            )
            out.append(s)
    return sorted(out, key=sort_key)


# ---------------------------------------------------------------------------
# patterns from graphs


def _mask_string(mask: int, width: int, star: int | None = None) -> str:
    """The 0/1 string of a mask (coordinate j = bit j), with ``*`` at
    coordinate ``star`` when one is given."""
    s = bin(mask | 1 << width)[:2:-1]  # drop "0b" and the sentinel bit, reversed
    return s if star is None else s[:star] + "*" + s[star + 1 :]


def _string_mask(s: str) -> int:
    return int(s[::-1], 2)


def _split(masks: list[int], i: int) -> tuple[list[int], list[int]]:
    """Split tree masks of G on bit i and drop that bit, shifting higher
    bits down: (the masks that had bit i, the masks that did not), that is,
    the trees of G/i and the trees of G - i."""
    low = (1 << i) - 1
    with_i: list[int] = []
    without_i: list[int] = []
    for m in masks:
        (with_i if m >> i & 1 else without_i).append(m & low | m >> (i + 1) << i)
    return with_i, without_i


def _hamming1_pairs(lower: list[int], upper: list[int]) -> Iterator[tuple[int, int, int]]:
    """Every (s, t, j) with s in lower, t in upper and t = s plus bit j."""
    lows = set(lower)
    for t in upper:
        rest = t
        while rest:
            bit = rest & -rest
            rest ^= bit
            if t ^ bit in lows:
                yield t ^ bit, t, bit.bit_length() - 1


def _starred(lower: list[int], upper: list[int], width: int) -> frozenset[str]:
    """The starred strings of the Hamming-1 pairs between two mask sets."""
    return frozenset(_mask_string(s, width, j) for s, _, j in _hamming1_pairs(lower, upper))


def x_pattern(g: Multigraph) -> VertexPattern:
    """Tree pattern X of a connected multigraph: one string per spanning
    tree, coordinate i = edge i.  Lands in L(e-v+1, v-1)."""
    strings = frozenset(_mask_string(m, g.e) for m in spanning_trees(g))
    return VertexPattern(g.e - g.n + 1, g.n - 1, strings)


def _marked_edge(g: Multigraph, i: int | None) -> int:
    """Edge i, defaulting to the distinguished edge; ``Multigraph`` itself
    rejects an index out of range, a loop or a bridge with ``ValueError``."""
    if i is None:
        if g.distinguished is None:
            raise ValueError("no edge index given and the graph is unmarked")
        return g.distinguished
    g.with_distinguished(i)
    return i


def y_pattern(g: Multigraph, i: int | None = None) -> EdgePattern:
    """Edge pattern Y of (g, edge i): starred strings over the remaining
    coordinates, pairing each tree of g/i against the trees of g - i at
    Hamming distance 1.  Lands in L'(e-v, v-2).

    Both tree sets come from one enumeration of g's trees: those that
    contain i are the trees of g/i, the others the trees of g - i.  ``i``
    defaults to the graph's distinguished edge and must be neither a
    bridge nor a loop.
    """
    lower, upper = _split(spanning_trees(g), _marked_edge(g, i))
    return EdgePattern(g.e - g.n, g.n - 2, _starred(lower, upper, g.e - 1))


def h_graph(g: Multigraph, i: int | None = None) -> PatternGraph:
    """Bipartite pattern graph of (g, edge i): lower part = trees of g/i,
    upper part = trees of g-minus-i, edges = the Hamming-1 pairs.  The
    tree sets come from g's trees as in ``y_pattern``."""
    lower, upper = _split(spanning_trees(g), _marked_edge(g, i))
    name = {m: _mask_string(m, g.e - 1) for m in lower + upper}
    return PatternGraph(
        frozenset(name[m] for m in lower),
        frozenset(name[m] for m in upper),
        frozenset((name[s], name[t]) for s, t, _ in _hamming1_pairs(lower, upper)),
    )


# ---------------------------------------------------------------------------
# pattern maps


def dual_pattern(p: VertexPattern | EdgePattern):
    """Swap 0s and 1s in every string (stars fixed); an involution."""
    table = str.maketrans("01", "10")
    strings = frozenset(s.translate(table) for s in p.strings)
    if isinstance(p, VertexPattern):
        return VertexPattern(p.b, p.a, strings)
    return EdgePattern(p.b, p.a, strings)


def phi(y: EdgePattern) -> VertexPattern:
    """Vertex pattern in L(a+1, b+1) whose strings, after deleting the
    last character, are endpoints of edges of y."""
    strings = set()
    for s in y.strings:
        lo, hi = _endpoints(s)
        strings.add(lo + "1")
        strings.add(hi + "0")
    return VertexPattern(y.a + 1, y.b + 1, frozenset(strings))


def psi(x: VertexPattern, i: int) -> EdgePattern:
    """Edge pattern obtained by forgetting coordinate i of x and taking
    the induced Hamming-1 edges between the two image weights.

    Requires x in L(a+1, b+1) with a, b >= 0; the result lies in L'(a, b).
    Coordinates above i shift down by one.  The strings are read as masks
    and split and paired as in ``y_pattern``, so psi(X(G), i) = Y(G, i).
    """
    if x.a < 1 or x.b < 1:
        raise ValueError("psi needs at least one zero and one one per string")
    if not (0 <= i < x.a + x.b):
        raise ValueError(f"coordinate {i} out of range")
    lower, upper = _split([_string_mask(s) for s in x.strings], i)
    return EdgePattern(x.a - 1, x.b - 1, _starred(lower, upper, x.a + x.b - 1))


def product_join(h1: PatternGraph, h2: PatternGraph) -> PatternGraph:
    """Product-join along the lower parts.

    Vertex pairs are encoded by string concatenation: the new lower part
    is lower1 x lower2, and (l1+l2) ~ (l1+u2) whenever l2 ~ u2, likewise
    on the other side.  Inputs must be connected.
    """
    if not pg_is_connected(h1) or not pg_is_connected(h2):
        raise ValueError("product_join requires connected inputs")
    lower = frozenset(l1 + l2 for l1 in h1.lower for l2 in h2.lower)
    upper = {l1 + u2 for l1 in h1.lower for u2 in h2.upper}
    upper.update(u1 + l2 for u1 in h1.upper for l2 in h2.lower)
    edges = set()
    for l1 in h1.lower:
        for lo2, hi2 in h2.edges:
            edges.add((l1 + lo2, l1 + hi2))
    for lo1, hi1 in h1.edges:
        for l2 in h2.lower:
            edges.add((lo1 + l2, hi1 + l2))
    return PatternGraph(lower, frozenset(upper), frozenset(edges))


def pattern_graph_from_edge_pattern(y: EdgePattern) -> PatternGraph:
    """The graph spanned by an edge pattern (no isolated vertices)."""
    lower = set()
    upper = set()
    edges = set()
    for s in y.strings:
        lo, hi = _endpoints(s)
        lower.add(lo)
        upper.add(hi)
        edges.add((lo, hi))
    return PatternGraph(frozenset(lower), frozenset(upper), frozenset(edges))


def edge_pattern_from_pattern_graph(h: PatternGraph) -> EdgePattern:
    strings = frozenset(_star_between(lo, hi) for lo, hi in h.edges)
    if not strings:
        raise ValueError("pattern graph has no edges")
    sample = next(iter(strings))
    return EdgePattern(sample.count("0"), sample.count("1"), strings)


# ---------------------------------------------------------------------------
# pattern-graph structure helpers


def pg_components(h: PatternGraph) -> list[set[str]]:
    adj = h.adjacency()
    seen: set[str] = set()
    comps = []
    for start in sorted(adj, key=sort_key):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def pg_is_connected(h: PatternGraph) -> bool:
    return len(pg_components(h)) <= 1


def pg_is_two_connected(h: PatternGraph) -> bool:
    """Graph 2-connectivity: >= 2 edges and no cut vertex (loops cannot occur)."""
    if len(h.edges) < 2 or not pg_is_connected(h):
        return False
    verts = h.lower | h.upper
    for v in verts:
        adj = {s: {u for u in ns if u != v} for s, ns in h.adjacency().items() if s != v}
        if not adj:
            continue
        start = next(iter(sorted(adj, key=sort_key)))
        comp = {start}
        stack = [start]
        while stack:
            w = stack.pop()
            for u in adj[w]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        if len(comp) != len(adj):
            return False
    return True


def pg_shape(h: PatternGraph) -> str:
    """Coarse shape report: 'cycle(n)', 'path(n)', or 'graph(v,e)'."""
    v = h.vertex_count
    e = len(h.edges)
    degs = sorted(len(ns) for ns in h.adjacency().values())
    if v and pg_is_connected(h):
        if e == v and degs and degs[0] == 2 and degs[-1] == 2:
            return f"cycle({v})"
        if e == v - 1 and (v == 1 or (degs[:2] == [1, 1] and degs[-1] <= 2)):
            return f"path({v})"
    return f"graph({v},{e})"


def pg_to_json(h: PatternGraph) -> str:
    import json

    return json.dumps(
        {
            "lower": sorted(h.lower, key=sort_key),
            "upper": sorted(h.upper, key=sort_key),
            "edges": sorted(([lo, hi] for lo, hi in h.edges)),
        }
    )


def pg_from_json(text: str) -> PatternGraph:
    """Parse the pattern-graph format strictly: ``lower`` and ``upper``
    lists of strings, ``edges`` a list of 2-element lists of strings.  Any
    other shape raises ``ValueError``."""
    import json

    data = json.loads(text)
    if not isinstance(data, dict) or not {"lower", "upper", "edges"} <= data.keys():
        raise ValueError("pattern-graph JSON needs 'lower', 'upper' and 'edges' fields")
    for part in ("lower", "upper"):
        if not _strings(data[part]):
            raise ValueError(f"pattern-graph JSON {part!r} must be a list of strings")
    edges = data["edges"]
    if not isinstance(edges, list) or not all(
        _strings(e) and len(e) == 2 for e in edges
    ):
        raise ValueError("pattern-graph JSON 'edges' must be a list of [lower, upper] string pairs")
    return PatternGraph(
        frozenset(data["lower"]),
        frozenset(data["upper"]),
        frozenset((lo, hi) for lo, hi in edges),
    )


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


# ---------------------------------------------------------------------------
# named pattern families


def alon_pattern(sizes: tuple[int, ...]) -> VertexPattern:
    """Strings split into blocks of the given sizes: one block all zeros,
    every other block containing exactly one 1.  Equals the tree pattern
    of the matching cycle-of-parallel-classes graph."""
    k = len(sizes)
    if k == 0 or any(a < 1 for a in sizes):
        raise ValueError("need at least one positive block size")
    d = sum(sizes)
    strings = set()
    for omit in range(k):
        slots = [range(a) if i != omit else (None,) for i, a in enumerate(sizes)]
        for choice in product(*slots):
            parts = []
            for i, a in enumerate(sizes):
                block = ["0"] * a
                if choice[i] is not None:
                    block[choice[i]] = "1"
                parts.append("".join(block))
            strings.add("".join(parts))
    return VertexPattern(d - k + 1, k - 1, frozenset(strings))


def partite_pattern(sizes: tuple[int, ...]) -> EdgePattern:
    """Strings split into blocks: one block holds a single *, every other
    block a single 1.  Equals the edge pattern of the matching marked
    path-of-parallel-classes graph."""
    k = len(sizes)
    if k == 0 or any(a < 1 for a in sizes):
        raise ValueError("need at least one positive block size")
    n = sum(sizes)
    strings = set()
    for star_block in range(k):
        slots = [range(a) for a in sizes]
        for choice in product(*slots):
            parts = []
            for i, a in enumerate(sizes):
                block = ["0"] * a
                block[choice[i]] = "*" if i == star_block else "1"
                parts.append("".join(block))
            strings.add("".join(parts))
    return EdgePattern(n - k, k - 1, frozenset(strings))


_X16_MISSING = ("010101", "011010", "100110", "101001")
_Y18_MISSING_LOWER = ("00011", "01100")
_Y18_MISSING_UPPER = ("10101", "11010")


def x16_pattern() -> VertexPattern:
    """The 16-element subset of L(3,3): everything except four strings."""
    strings = frozenset(layer_strings(3, 3)) - frozenset(_X16_MISSING)
    return VertexPattern(3, 3, strings)


def y18_pattern() -> EdgePattern:
    """The 18 Hamming-1 pairs between L(3,2) minus two strings and L(2,3)
    minus two strings."""
    lower = [_string_mask(s) for s in layer_strings(3, 2) if s not in _Y18_MISSING_LOWER]
    upper = [_string_mask(s) for s in layer_strings(2, 3) if s not in _Y18_MISSING_UPPER]
    return EdgePattern(2, 2, _starred(lower, upper, 5))


def x_k4_pattern() -> VertexPattern:
    """Tree pattern of K4 (not series-parallel; the tree-set definition
    extends verbatim), under the pinned edge order of ``catalog.k4_x16``."""
    return x_pattern(catalog.k4_x16())


def y_k4_pattern() -> EdgePattern:
    """Edge pattern of K4 with a marked edge, same extension note as
    ``x_k4_pattern``, under the edge order of ``catalog.k4_y18``."""
    return y_pattern(catalog.k4_y18())


NAMED_PATTERN_NOTES = {
    "x_k4": "tree-set definition extended to a non-series-parallel graph",
    "y_k4": "tree-set definition extended to a non-series-parallel graph",
}


def named_pattern(name: str, sizes: tuple[int, ...] = ()):
    """Dispatch for the named families: alon, partite, x16, y18, x_k4, y_k4."""
    if name == "alon":
        return alon_pattern(tuple(sizes))
    if name == "partite":
        return partite_pattern(tuple(sizes))
    if sizes:
        raise ValueError(f"pattern {name!r} takes no size parameters")
    table = {
        "x16": x16_pattern,
        "y18": y18_pattern,
        "x_k4": x_k4_pattern,
        "y_k4": y_k4_pattern,
    }
    if name not in table:
        raise ValueError(f"unknown named pattern {name!r}")
    return table[name]()


# ---------------------------------------------------------------------------
# pattern file format


def format_pattern(p: VertexPattern | EdgePattern) -> str:
    """Header line ``vertex a b`` or ``edge a b``, then one string per
    line in canonical order."""
    kind = "vertex" if isinstance(p, VertexPattern) else "edge"
    lines = [f"{kind} {p.a} {p.b}"]
    lines.extend(p.sorted_strings)
    return "\n".join(lines) + "\n"


def parse_pattern(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty pattern file")
    head = lines[0].split()
    if len(head) != 3 or head[0] not in ("vertex", "edge"):
        raise ValueError(f"bad pattern header {lines[0]!r}")
    a, b = int(head[1]), int(head[2])
    strings = frozenset(lines[1:])
    if head[0] == "vertex":
        return VertexPattern(a, b, strings)
    return EdgePattern(a, b, strings)


def load_pattern(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh.read())


def save_pattern(p, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pattern(p))
