"""Layer patterns: tree sets, starred edge sets, and the maps between them.

A vertex pattern is a set of vertices of the layer L(a,b) of the
(a+b)-cube, the vertices with b ones.  An edge pattern is a set of edges
of the (a+b+1)-cube from L(a+1,b) up to L(a,b+1), the starred layer
L'(a,b).  Coordinate i is edge i of the originating graph.

Patterns are stored as ints.  A vertex is a mask, bit j = coordinate j,
the convention of the tree masks it comes from; an edge is a (lower mask,
star) pair, its lower endpoint and the coordinate it climbs, whose bit is
clear in the mask.  A pattern graph holds its two parts as sorted masks
and its edges as pairs of vertex numbers, the lower part numbered first.

Strings exist only at the I/O boundary.  A vertex is written as a 0/1
string whose character j is coordinate j, an edge as its lower endpoint
with ``*`` at the star; ``parse_string`` and ``format_string`` convert one
element, and the string constructors, ``.strings``, ``sorted_strings``,
the pattern files and the pattern-graph JSON all go through them.  Written
sets are ordered with 0 < 1 < *.  That is not the numeric order of the
masks, because coordinate 0 is the first character but the lowest bit, so
``sort_key`` orders strings, and ``_sorted_elements`` orders masks and pairs
by the ``sort_key`` of their strings.

X, Y, H and psi work on tree masks: X is G's spanning trees; Y, H and
psi split those same trees on bit i (the trees of G/i and of G - i; for
a graph, ``_tree_sides``) and list the pairs of the two sides at Hamming
distance 1 by one kernel, ``_starred``; the m table's terms route
(``search._y_size``) only counts such pairs, on bitsets.  So Y is psi of
X, Y(G, i) = psi(X(G), i), and Y is read off the split without building
X.  The series and parallel rule that composes the tree sets is
``multigraph._count_tf``, the rule of the tree counts.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

from . import catalog
from .errors import SizeGuardError
from .multigraph import (
    Multigraph, _components, _groups, _load_json, check_marked_edge, is_two_connected,
    spanning_trees,
)

__all__ = [
    "VertexPattern",
    "EdgePattern",
    "PatternGraph",
    "parse_string",
    "format_string",
    "sort_key",
    "layer_size",
    "layer_masks",
    "starred_layer_masks",
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

# The widest pattern-file header, a + b, that ``parse_pattern`` reads.  A
# string of the layer is that many characters long, and the operators
# build masks up to 1 << (a + b), 128 KiB at the limit; without it a
# one-line file "vertex 10000000000 0" asks ``dual_pattern`` for a 1.25 GB
# integer.
PATTERN_WIDTH_LIMIT = 2**20

# ---------------------------------------------------------------------------
# the string boundary


def parse_string(s: str, width: int, starred: bool = False):
    """The element a pattern string names, the inverse of ``format_string``.

    A 0/1 string of length ``width`` gives its mask (bit j = character j).
    With ``starred``, a string of length ``width`` holding one ``*`` and
    otherwise 0/1 gives its (lower mask, star) pair.  Any other value
    raises ``ValueError``.
    """
    if not isinstance(s, str) or len(s) != width:
        raise ValueError(f"{s!r} is not a string of length {width}")
    bits = s
    if starred:
        star = s.find("*")
        if star < 0:
            raise ValueError(f"{s!r} has no '*'")
        bits = s[:star] + "0" + s[star + 1 :]
    if bits.strip("01"):
        raise ValueError(f"{s!r} is not a {'starred ' if starred else ''}0/1 string")
    mask = int(bits[::-1], 2) if bits else 0
    return (mask, star) if starred else mask


# the strings of up to two chunks of bits are read off tables, and wider
# ones from ``bin``, which is faster there
_CHUNK = 10
_LOW = (1 << _CHUNK) - 1


@cache
def _reversed_chunks(k: int) -> list[str]:
    """Entry i is the string of the k bits of i, bit 0 first."""
    return [format(i | 1 << k, "b")[:0:-1] for i in range(1 << k)]  # less the sentinel bit


def _format_strings(elements: Iterable, width: int, starred: bool = False) -> list[str]:
    """The strings of vertex masks, or with ``starred`` of (lower mask,
    star) edges, over ``width`` coordinates, in the order given."""
    if starred:
        pairs = list(elements)
        lowers = _format_strings([lower for lower, _ in pairs], width)
        return [s[:star] + "*" + s[star + 1 :] for s, (_, star) in zip(lowers, pairs)]
    if width > 2 * _CHUNK:
        return [bin(m | 1 << width)[:2:-1] for m in elements]  # drop "0b" and the sentinel bit
    # at width <= _CHUNK the high table is [""]
    low, high = _reversed_chunks(min(width, _CHUNK)), _reversed_chunks(max(width - _CHUNK, 0))
    return [low[m & _LOW] + high[m >> _CHUNK] for m in elements]


def format_string(e, width: int) -> str:
    """The string of a vertex mask, or of a (lower mask, star) edge, over
    ``width`` coordinates."""
    return _format_strings((e,), width, isinstance(e, tuple))[0]


_ORDER = str.maketrans("01*", "012")


def sort_key(s: str) -> str:
    """Sort key of a string realizing the character order 0 < 1 < *."""
    return s.translate(_ORDER)


def _sorted_elements(elements: Iterable, width: int, starred: bool) -> list:
    """Vertex masks, or with ``starred`` (lower mask, star) edges, over
    ``width`` coordinates, sorted as ``sort_key`` sorts their strings."""
    elements = list(elements)
    keys = map(sort_key, _format_strings(elements, width, starred))
    return [e for _, e in sorted(zip(keys, elements))]


def layer_size(a: int, b: int, starred: bool = False) -> int:
    """|L(a,b)|, or |L'(a,b)| when ``starred``, without listing it."""
    size = comb(a + b, b)
    return (a + b + 1) * size if starred else size


def layer_masks(a: int, b: int) -> list[int]:
    """All of L(a,b) as masks, in the canonical order of their strings."""
    n = a + b
    full = (1 << n) - 1
    # ascending tuples of zero positions give ascending strings
    return [full ^ sum(1 << j for j in zeros) for zeros in combinations(range(n), a)]


def starred_layer_masks(a: int, b: int) -> list[tuple[int, int]]:
    """All of L'(a,b) as (lower mask, star) pairs, in the canonical order
    of their strings."""
    n = a + b + 1
    pairs = []
    for star in range(n):
        rest = [j for j in range(n) if j != star]
        pairs.extend((sum(1 << j for j in ones), star) for ones in combinations(rest, b))
    return _sorted_elements(pairs, n, True)


def layer_strings(a: int, b: int) -> list[str]:
    """All of L(a,b), canonically sorted."""
    return _format_strings(layer_masks(a, b), a + b)


def starred_layer_strings(a: int, b: int) -> list[str]:
    """All of L'(a,b), canonically sorted."""
    return _format_strings(starred_layer_masks(a, b), a + b + 1, True)


def _parse_layer(strings: Iterable[str], a: int, b: int, starred: bool) -> frozenset:
    """The elements the strings name, each checked to lie in L(a,b), or in
    L'(a,b) when ``starred``."""
    where = f"L'({a},{b})" if starred else f"L({a},{b})"
    width = a + b + starred
    elements = set()
    for s in strings:
        try:
            elements.add(parse_string(s, width, starred))
        except ValueError:
            raise ValueError(f"string {s!r} is not in {where}") from None
    if a < 0 or b < 0:
        raise ValueError("layer parameters must be nonnegative")
    bad = [e for e in elements if (e[0] if starred else e).bit_count() != b]
    if bad:
        raise ValueError(f"string {format_string(min(bad), width)!r} is not in {where}")
    return frozenset(elements)


# ---------------------------------------------------------------------------
# pattern types


def _fill(obj, **fields) -> None:
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, slots=True, init=False)
class VertexPattern:
    """A subset of the layer L(a, b), as masks of a + b bits with b ones.

    ``VertexPattern(a, b, strings)`` reads 0/1 strings, the public
    boundary, and checks them; code that has masks calls
    ``VertexPattern.from_masks``.
    """

    a: int
    b: int
    masks: frozenset[int]

    def __init__(self, a: int, b: int, strings: Iterable[str] = frozenset()):
        _fill(self, a=a, b=b, masks=_parse_layer(strings, a, b, False))

    @classmethod
    def from_masks(cls, a: int, b: int, masks: Iterable[int]) -> VertexPattern:
        """The pattern of ``masks``, trusted to lie in L(a, b): nothing is
        checked."""
        p = object.__new__(cls)
        _fill(p, a=a, b=b, masks=frozenset(masks))
        return p

    @property
    def strings(self) -> frozenset[str]:
        """The 0/1 strings, made at each access."""
        return frozenset(_format_strings(self.masks, self.a + self.b))

    @property
    def sorted_strings(self) -> list[str]:
        strings = _format_strings(self.masks, self.a + self.b)
        strings.sort()  # 0/1 strings: the order 0 < 1 is code-point order
        return strings

    def __len__(self) -> int:
        return len(self.masks)


@dataclass(frozen=True, slots=True, init=False)
class EdgePattern:
    """A subset of the starred layer L'(a, b), as (lower mask, star)
    pairs over a + b + 1 coordinates: b ones in the mask and the star's
    bit clear.

    ``EdgePattern(a, b, strings)`` reads strings with one ``*``, the
    public boundary, and checks them; code that has pairs calls
    ``EdgePattern.from_pairs``.
    """

    a: int
    b: int
    pairs: frozenset[tuple[int, int]]

    def __init__(self, a: int, b: int, strings: Iterable[str] = frozenset()):
        _fill(self, a=a, b=b, pairs=_parse_layer(strings, a, b, True))

    @classmethod
    def from_pairs(cls, a: int, b: int, pairs: Iterable[tuple[int, int]]) -> EdgePattern:
        """The pattern of ``pairs``, trusted to lie in L'(a, b): nothing is
        checked."""
        p = object.__new__(cls)
        _fill(p, a=a, b=b, pairs=frozenset(pairs))
        return p

    @property
    def strings(self) -> frozenset[str]:
        """The starred strings, made at each access."""
        return frozenset(_format_strings(self.pairs, self.a + self.b + 1, True))

    @property
    def sorted_strings(self) -> list[str]:
        strings = _format_strings(self.pairs, self.a + self.b + 1, True)
        strings.sort(key=sort_key)
        return strings

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, slots=True, init=False)
class PatternGraph:
    """Bipartite graph between two consecutive layers of the width-cube,
    with edges only at Hamming distance 1 (an induced-subgraph-of-the-cube
    shape).  ``lower`` and ``upper`` are increasing tuples of masks, and
    ``edges`` the increasing pairs (x, y) of vertex numbers, x for ``lower[x]``
    and y for ``upper[y - len(lower)]``: H is ``Multigraph.derived(len(lower)
    + len(upper), edges)``, and graphs with the same vertices and edges are equal.

    ``PatternGraph(lower, upper, edges)`` reads 0/1 strings, all of one
    length, the public boundary, and checks them; code that has masks
    calls ``PatternGraph.from_masks``.
    """

    width: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, lower: Iterable[str], upper: Iterable[str], edges: Iterable[tuple[str, str]]):
        # sets in input order, so that an error names the first bad string
        lower, upper = dict.fromkeys(lower), dict.fromkeys(upper)
        width = len(min(lower | upper, default=""))
        try:
            mask = {s: parse_string(s, width) for s in lower | upper}
        except ValueError as e:
            raise ValueError(f"pattern-graph string {e}") from None
        pairs = set()
        for lo, hi in edges:
            if lo not in lower or hi not in upper:
                raise ValueError(f"edge ({lo},{hi}) has an endpoint outside the parts")
            if mask[lo] & ~mask[hi] or (mask[hi] ^ mask[lo]).bit_count() != 1:
                raise ValueError(f"{lo!r}/{hi!r} is not an upward Hamming-1 pair")
            pairs.add((mask[lo], mask[hi]))
        low, up = ({mask[s].bit_count() for s in part} for part in (lower, upper))
        if len(low) > 1 or len(up) > 1:
            raise ValueError("each part must sit in a single layer")
        if low and up and up != {w + 1 for w in low}:
            raise ValueError("upper part must sit one layer above the lower part")
        h = PatternGraph.from_masks(width, map(mask.get, lower), map(mask.get, upper), pairs)
        _fill(self, width=width, lower=h.lower, upper=h.upper, edges=h.edges)

    @classmethod
    def from_masks(
        cls, width: int, lower: Iterable[int], upper: Iterable[int], edges: Iterable[tuple[int, int]]
    ) -> PatternGraph:
        """The pattern graph of distinct masks and distinct (lower, upper)
        mask pairs, trusted to form one: nothing is checked."""
        lower, upper = sorted(lower), sorted(upper)
        place = dict(zip(lower + upper, range(len(lower) + len(upper))))
        edges = [(place[lo], place[hi]) for lo, hi in edges]
        edges.sort()
        h = object.__new__(cls)
        _fill(h, width=width, lower=tuple(lower), upper=tuple(upper), edges=tuple(edges))
        return h


# ---------------------------------------------------------------------------
# patterns from graphs


def _split(masks: Iterable[int], i: int) -> tuple[list[int], list[int]]:
    """Split masks on bit i and drop that bit, shifting higher bits down:
    (the masks that had bit i, the masks that did not).  On the tree masks
    of G these are the trees of G/i and the trees of G - i."""
    low = (1 << i) - 1
    with_i: list[int] = []
    without_i: list[int] = []
    for m in masks:
        (with_i if m >> i & 1 else without_i).append(m & low | m >> (i + 1) << i)
    return with_i, without_i


def _starred(lower: list[int], upper: list[int]) -> list[tuple[int, int]]:
    """The Hamming-1 pairs between two mask sets, as (lower mask, star)
    edges: every (s, j) with s in lower and s plus bit j in upper."""
    lows = set(lower)
    out = []
    for t in upper:
        rest = t
        while rest:
            bit = rest & -rest
            rest ^= bit
            s = t ^ bit
            if s in lows:
                out.append((s, bit.bit_length() - 1))
    return out


def x_pattern(g: Multigraph) -> VertexPattern:
    """Tree pattern X of a connected multigraph: one mask per spanning
    tree, coordinate i = edge i.  Lands in L(e-v+1, v-1)."""
    return VertexPattern.from_masks(g.e - g.n + 1, g.n - 1, spanning_trees(g))


def _marked_edge(g: Multigraph, i: int | None) -> int:
    """Edge i, defaulting to the distinguished edge; an index out of range,
    a loop or a bridge raises ``ValueError``, as it does for a graph's
    distinguished edge.  The graph checked its own mark when it was built,
    so only another index is checked here."""
    if i is None:
        if g.distinguished is None:
            raise ValueError("no edge index given and the graph is unmarked")
        return g.distinguished
    if i != g.distinguished:
        check_marked_edge(g, i)
    return i


def _tree_sides(g: Multigraph, i: int | None) -> tuple[list[int], list[int]]:
    """The trees of g/i and of g - i, with bit i dropped: g's spanning
    trees split on edge i as ``psi`` splits a pattern.  ``i`` defaults to
    the distinguished edge and must be neither a bridge nor a loop; the
    trees are enumerated before the edge is checked."""
    return _split(spanning_trees(g), _marked_edge(g, i))


def y_pattern(g: Multigraph, i: int | None = None) -> EdgePattern:
    """Edge pattern Y of (g, edge i): edges over the remaining coordinates,
    pairing each tree of g/i with the trees of g - i at Hamming distance
    1.  Lands in L'(e-v, v-2).  Y(g, i) = psi(X(g), i), read off the split
    of g's trees, ``_tree_sides``, without building X."""
    lower, upper = _tree_sides(g, i)
    return EdgePattern.from_pairs(g.e - g.n, g.n - 2, _starred(lower, upper))


def h_graph(g: Multigraph, i: int | None = None) -> PatternGraph:
    """Bipartite pattern graph of (g, edge i): lower part = trees of g/i,
    upper part = trees of g-minus-i, edges = the Hamming-1 pairs, Y's
    edges; the parts are the split Y is read off, ``_tree_sides``."""
    lower, upper = _tree_sides(g, i)
    bits = [1 << j for j in range(g.e - 1)]
    edges = ((s, s | bits[j]) for s, j in _starred(lower, upper))
    return PatternGraph.from_masks(g.e - 1, lower, upper, edges)


# ---------------------------------------------------------------------------
# pattern maps


def dual_pattern(p: VertexPattern | EdgePattern):
    """Swap 0s and 1s in every element (stars fixed); an involution."""
    if isinstance(p, VertexPattern):
        full = (1 << (p.a + p.b)) - 1
        return VertexPattern.from_masks(p.b, p.a, (m ^ full for m in p.masks))
    full = (1 << (p.a + p.b + 1)) - 1
    return EdgePattern.from_pairs(
        p.b, p.a, ((lower ^ full ^ 1 << star, star) for lower, star in p.pairs)
    )


def phi(y: EdgePattern) -> VertexPattern:
    """Vertex pattern in L(a+1, b+1) whose elements, after deleting the
    last coordinate, are endpoints of edges of y: the lower endpoint with
    a 1 appended, the upper one with a 0."""
    top = 1 << (y.a + y.b + 1)
    masks = set()
    for lower, star in y.pairs:
        masks.add(lower | top)
        masks.add(lower | 1 << star)
    return VertexPattern.from_masks(y.a + 1, y.b + 1, masks)


def psi(x: VertexPattern, i: int) -> EdgePattern:
    """Edge pattern obtained by forgetting coordinate i of x and taking
    the induced Hamming-1 edges between the two image weights.

    Requires x in L(a+1, b+1) with a, b >= 0; the result lies in L'(a, b).
    Coordinates above i shift down by one.  On a tree pattern the two
    sides are the trees of G/i and of G - i, so psi(X(G), i) = Y(G, i),
    the split ``y_pattern`` reads Y off.
    """
    if x.a < 1 or x.b < 1:
        raise ValueError("psi needs at least one zero and one one per string")
    if not (0 <= i < x.a + x.b):
        raise ValueError(f"coordinate {i} out of range")
    lower, upper = _split(x.masks, i)
    return EdgePattern.from_pairs(x.a - 1, x.b - 1, _starred(lower, upper))


# The most characters a written pattern may hold, strings x width.  Each
# tree's string has one character per edge, so ``pattern x`` output grows
# as trees x edges: 4,096 parallel edges between two vertices write 2^24,
# at the guard.  ``pattern y`` writes a string per Hamming-1 pair of trees,
# which trees x edges does not bound: ``partite_graph((7,) * 6)``, 218,491
# trees of 43 edges, writes 705,894.  ``pattern named`` bounds elements x
# width, and ``product_join`` the strings of its pattern-graph JSON x
# width, by the same number.
PATTERN_OUTPUT_LIMIT = 2**24


def product_join(h1: PatternGraph, h2: PatternGraph) -> PatternGraph:
    """Product-join along the lower parts.

    A vertex pair is the concatenation of its strings, the mask
    ``v1 | v2 << width1``: the new lower part is lower1 x lower2, and
    (l1,l2) ~ (l1,u2) whenever l2 ~ u2, likewise on the other side.
    Inputs must be connected.  Raises ``SizeGuardError`` before building
    when the JSON of the join would write its vertices and the two ends
    of each edge as more than ``PATTERN_OUTPUT_LIMIT`` characters.
    """
    (l1, u1, e1), (l2, u2, e2) = (
        (len(h.lower), len(h.upper), len(h.edges)) for h in (h1, h2)
    )
    strings = l1 * l2 + l1 * u2 + u1 * l2 + 2 * (l1 * e2 + e1 * l2)
    if strings * (h1.width + h2.width) > PATTERN_OUTPUT_LIMIT:
        raise SizeGuardError(
            f"the product-join would write {strings} strings of width "
            f"{h1.width + h2.width}, over the pattern output guard "
            f"{PATTERN_OUTPUT_LIMIT} (strings x width)"
        )
    if not pg_is_connected(h1) or not pg_is_connected(h2):
        raise ValueError("product_join requires connected inputs")
    w = h1.width
    lower = [l1 | l2 << w for l1 in h1.lower for l2 in h2.lower]
    upper = [l1 | u2 << w for l1 in h1.lower for u2 in h2.upper]
    upper += [u1 | l2 << w for u1 in h1.upper for l2 in h2.lower]
    v1, v2 = h1.lower + h1.upper, h2.lower + h2.upper  # masks by vertex number
    edges = [(l1 | v2[x] << w, l1 | v2[y] << w) for l1 in h1.lower for x, y in h2.edges]
    edges += [(v1[x] | l2 << w, v1[y] | l2 << w) for x, y in h1.edges for l2 in h2.lower]
    return PatternGraph.from_masks(w + h2.width, lower, upper, edges)


def pattern_graph_from_edge_pattern(y: EdgePattern) -> PatternGraph:
    """The graph spanned by an edge pattern (no isolated vertices)."""
    edges = [(lower, lower | 1 << star) for lower, star in y.pairs]
    return PatternGraph.from_masks(
        y.a + y.b + 1, {lo for lo, _ in edges}, {hi for _, hi in edges}, edges
    )


def edge_pattern_from_pattern_graph(h: PatternGraph) -> EdgePattern:
    if not h.edges:
        raise ValueError("pattern graph has no edges")
    v = h.lower + h.upper  # masks by vertex number
    pairs = [(v[x], (v[y] ^ v[x]).bit_length() - 1) for x, y in h.edges]
    ones = pairs[0][0].bit_count()
    return EdgePattern.from_pairs(h.width - 1 - ones, ones, pairs)


# ---------------------------------------------------------------------------
# pattern-graph structure helpers


def pg_components(h: PatternGraph) -> list[set[int]]:
    """The vertex sets of the components, in order of their least mask."""
    v = h.lower + h.upper  # masks by vertex number
    groups = _groups(_components(Multigraph.derived(len(v), h.edges)))
    # the lower part is numbered first, which is not mask order
    return sorted(({v[x] for x in grp} for grp in groups), key=min)


def pg_is_connected(h: PatternGraph) -> bool:
    return Multigraph.derived(len(h.lower) + len(h.upper), h.edges).is_connected()


def pg_is_two_connected(h: PatternGraph) -> bool:
    """Graph 2-connectivity: >= 2 edges and no cut vertex (loops cannot occur)."""
    return is_two_connected(Multigraph.derived(len(h.lower) + len(h.upper), h.edges))


def pg_shape(h: PatternGraph) -> str:
    """Coarse shape report: 'cycle(n)', 'path(n)', or 'graph(v,e)'.  H is
    searched only when its counts and degrees fit a path or a cycle."""
    v, e = len(h.lower) + len(h.upper), len(h.edges)
    if v and e in (v - 1, v):
        degree = [0] * v  # H has no loops and no parallel edges
        for x, y in h.edges:
            degree[x] += 1
            degree[y] += 1
        # with no isolated vertex and no degree above 2, the degree sum 2e
        # leaves two vertices of degree 1 when e = v - 1 and none when e = v
        fits = (min(degree) or v == 1) and max(degree) <= 2
        if fits and pg_is_connected(h):
            return f"{'path' if e < v else 'cycle'}({v})"
    return f"graph({v},{e})"


def pg_to_json(h: PatternGraph) -> str:
    """The pattern-graph format: ``lower`` and ``upper`` lists of 0/1
    strings and ``edges`` a list of [lower, upper] string pairs, sorted."""
    import json

    names = _format_strings(h.lower + h.upper, h.width)
    # strings sort in code-point order, not mask order: rank[x] is vertex x's
    # place among them, and edge (x, y) sorts as the int rank[x] * n + rank[y]
    n = len(names)
    rank = [0] * n
    for r, x in enumerate(sorted(range(n), key=names.__getitem__)):
        rank[x] = r
    names.sort()
    return json.dumps(
        {
            "lower": [names[r] for r in sorted(rank[: len(h.lower)])],
            "upper": [names[r] for r in sorted(rank[len(h.lower) :])],
            "edges": [
                [names[p // n], names[p % n]]
                for p in sorted(rank[x] * n + rank[y] for x, y in h.edges)
            ],
        }
    )


def pg_from_json(text: str) -> PatternGraph:
    """Parse the pattern-graph format strictly: ``lower`` and ``upper``
    lists of strings, ``edges`` a list of 2-element lists of strings.  Any
    other shape raises ``ValueError``."""
    data = _load_json(text)
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
    return PatternGraph(data["lower"], data["upper"], edges)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


# ---------------------------------------------------------------------------
# named pattern families


def alon_pattern(sizes: tuple[int, ...]) -> VertexPattern:
    """The tree pattern of ``catalog.alon_graph(sizes)``, the cycle of
    parallel classes: strings split into blocks of the given sizes, one
    block all zeros and every other block holding exactly one 1."""
    return x_pattern(catalog.alon_graph(sizes))


def partite_pattern(sizes: tuple[int, ...]) -> EdgePattern:
    """The edge pattern of ``catalog.partite_graph(sizes)``, the path of
    parallel classes closed by a marked edge: strings split into blocks,
    one block holding a single * and every other block a single 1."""
    return y_pattern(catalog.partite_graph(sizes))


def x16_pattern() -> VertexPattern:
    """The tree pattern of K4 under the edge order of ``catalog.k4_x16``
    (K4 is not series-parallel; the tree-set definition extends verbatim):
    all of L(3,3) but K4's four triangles."""
    return x_pattern(catalog.k4_x16())


def y18_pattern() -> EdgePattern:
    """The edge pattern of K4 marked at its last edge, under the edge
    order of ``catalog.k4_y18``: 18 starred strings of L'(2,2)."""
    return y_pattern(catalog.k4_y18())


# the K4 patterns under the names that say so; the CLI notes the extension
x_k4_pattern = x16_pattern
y_k4_pattern = y18_pattern

NAMED_PATTERN_NOTES = {
    "x_k4": "tree-set definition extended to a non-series-parallel graph",
    "y_k4": "tree-set definition extended to a non-series-parallel graph",
}


# each named family is the X or Y of a catalog graph
_NAMED = {
    "alon": (catalog.alon_graph, x_pattern),
    "partite": (catalog.partite_graph, y_pattern),
    "x16": (catalog.k4_x16, x_pattern),
    "y18": (catalog.k4_y18, y_pattern),
    "x_k4": (catalog.k4_x16, x_pattern),
    "y_k4": (catalog.k4_y18, y_pattern),
}


def named_pattern(name: str, sizes: tuple[int, ...] = ()):
    """The pattern of a named family, read off ``_NAMED``: alon, partite,
    x16, y18, x_k4, y_k4.  Only alon and partite take block sizes."""
    if name not in _NAMED:
        raise ValueError(f"unknown named pattern {name!r}")
    sized = name in ("alon", "partite")
    if sizes and not sized:
        raise ValueError(f"pattern {name!r} takes no size parameters")
    graph, pattern = _NAMED[name]
    return pattern(graph(tuple(sizes)) if sized else graph())


# ---------------------------------------------------------------------------
# pattern file format


def format_pattern(p: VertexPattern | EdgePattern) -> str:
    """Header line ``vertex a b`` or ``edge a b``, then one string per
    line in canonical order.  The one string of L(0,0) is empty, so its
    line is blank: ``vertex 0 0`` alone is the empty pattern, and with a
    blank line after it the pattern {""}."""
    kind = "vertex" if isinstance(p, VertexPattern) else "edge"
    lines = p.sorted_strings  # a new list: extended in place, not copied
    lines.insert(0, f"{kind} {p.a} {p.b}")
    lines.append("")  # the final newline
    return "\n".join(lines)


def parse_pattern(text: str):
    """Read the pattern file format written by ``format_pattern``.

    Blank lines are skipped, except after the header of L(0,0): there
    each line, blank or not, is a string, and a blank one is the empty
    string.  A header whose a + b exceeds ``PATTERN_WIDTH_LIMIT`` is
    refused (``SizeGuardError``) before anything is built.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    start = next((i for i, ln in enumerate(lines) if ln), None)
    if start is None:
        raise ValueError("empty pattern file")
    head = lines[start].split()
    if len(head) != 3 or head[0] not in ("vertex", "edge"):
        raise ValueError(f"bad pattern header {lines[start]!r}")
    a, b = int(head[1]), int(head[2])
    if a + b > PATTERN_WIDTH_LIMIT:
        raise SizeGuardError(
            f"pattern width {a + b} exceeds the pattern-file guard {PATTERN_WIDTH_LIMIT}"
        )
    body = lines[start + 1:]
    if head[0] == "vertex":
        return VertexPattern(a, b, body if a + b == 0 else [ln for ln in body if ln])
    return EdgePattern(a, b, [ln for ln in body if ln])


def load_pattern(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh.read())


def save_pattern(p, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pattern(p))
