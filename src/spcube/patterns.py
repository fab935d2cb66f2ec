"""Layer patterns: tree sets, starred edge sets, and the maps between them.

A vertex pattern is a set of vertices of the layer L(a,b) of the
(a+b)-cube, the vertices with b ones.  An edge pattern is a set of edges
of the (a+b+1)-cube from L(a+1,b) up to L(a,b+1), the starred layer
L'(a,b).  Coordinate i is edge i of the originating graph.

Patterns are stored as ints.  A vertex is a mask, bit j = coordinate j,
the convention of the tree masks it comes from; an edge is a (lower mask,
star) pair, its lower endpoint and the coordinate it climbs, whose bit is
clear in the mask.  A pattern graph holds its two parts as masks and its
edges as (lower, upper) mask pairs.

Strings exist only at the I/O boundary.  A vertex is written as a 0/1
string whose character j is coordinate j, an edge as its lower endpoint
with ``*`` at the star; ``parse_string`` and ``format_string`` convert one
element, and the string constructors, ``.strings``, ``sorted_strings``,
the pattern files and the pattern-graph JSON all go through them.  Written
sets are ordered with 0 < 1 < *.  That is not the numeric order of the
masks, because coordinate 0 is the first character but the lowest bit, so
``sort_key`` orders strings and ``element_key`` orders masks and pairs.

X, H, psi and y18 work on tree masks: X is G's spanning trees; H and psi
split those same trees on bit i (the trees of G/i and of G - i) and pair
the two sides at Hamming distance 1.  Y is psi of X, Y(G, i) =
psi(X(G), i), so a caller that needs X and Y of one graph enumerates its
trees once.  The series and parallel rule that composes the tree sets
lives in ``multigraph._compose_tf``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb

from . import catalog
from .errors import SizeGuardError
from .multigraph import (
    Multigraph, _load_json, _reach, check_marked_edge, is_two_connected, spanning_trees
)

__all__ = [
    "VertexPattern",
    "EdgePattern",
    "PatternGraph",
    "parse_string",
    "format_string",
    "sort_key",
    "element_key",
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


def format_string(e, width: int) -> str:
    """The string of a vertex mask, or of a (lower mask, star) edge, over
    ``width`` coordinates."""
    if isinstance(e, tuple):
        lower, star = e
        s = bin(lower | 1 << width)[:2:-1]  # drop "0b" and the sentinel bit, reversed
        return s[:star] + "*" + s[star + 1 :]
    return bin(e | 1 << width)[:2:-1]


_ORDER = str.maketrans("01*", "012")


def sort_key(s: str) -> str:
    """Sort key of a string realizing the character order 0 < 1 < *."""
    return s.translate(_ORDER)


def element_key(e, width: int) -> tuple[int, ...]:
    """Sort key of a vertex mask or an edge pair that orders elements as
    ``sort_key`` orders their strings: the characters as 0, 1 and 2."""
    if isinstance(e, tuple):
        lower, star = e
        return tuple(2 if j == star else lower >> j & 1 for j in range(width))
    return tuple(e >> j & 1 for j in range(width))


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
    return sorted(pairs, key=lambda e: element_key(e, n))


def layer_strings(a: int, b: int) -> list[str]:
    """All of L(a,b), canonically sorted."""
    return [format_string(m, a + b) for m in layer_masks(a, b)]


def starred_layer_strings(a: int, b: int) -> list[str]:
    """All of L'(a,b), canonically sorted."""
    return [format_string(e, a + b + 1) for e in starred_layer_masks(a, b)]


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
        n = self.a + self.b
        return frozenset(format_string(m, n) for m in self.masks)

    @property
    def sorted_strings(self) -> list[str]:
        n = self.a + self.b
        strings = [format_string(m, n) for m in self.masks]
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
        n = self.a + self.b + 1
        return frozenset(format_string(e, n) for e in self.pairs)

    @property
    def sorted_strings(self) -> list[str]:
        n = self.a + self.b + 1
        strings = [format_string(e, n) for e in self.pairs]
        strings.sort(key=sort_key)
        return strings

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, slots=True, init=False)
class PatternGraph:
    """Bipartite graph between two consecutive layers of the width-cube,
    with edges only at Hamming distance 1 (an induced-subgraph-of-the-cube
    shape): ``lower`` and ``upper`` are masks, ``edges`` (lower, upper)
    mask pairs.

    ``PatternGraph(lower, upper, edges)`` reads 0/1 strings, all of one
    length, the public boundary, and checks them; code that has masks
    calls ``PatternGraph.from_masks``.
    """

    width: int
    lower: frozenset[int]
    upper: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __init__(self, lower: Iterable[str], upper: Iterable[str], edges: Iterable[tuple[str, str]]):
        lower, upper = list(lower), list(upper)
        width = len(min(lower + upper, default=""))
        mask = {}
        for s in lower + upper:
            try:
                mask[s] = parse_string(s, width)
            except ValueError:
                raise ValueError(
                    f"pattern-graph string {s!r} is not a 0/1 string of length {width}"
                ) from None
        pairs = []
        for lo, hi in edges:
            if lo not in mask or hi not in mask:
                raise ValueError(f"edge ({lo},{hi}) has an endpoint outside the parts")
            pairs.append((mask[lo], mask[hi]))
        lower, upper = frozenset(map(mask.get, lower)), frozenset(map(mask.get, upper))
        edges = frozenset(pairs)
        if lower:
            w = next(iter(lower)).bit_count()
            if any(m.bit_count() != w for m in lower):
                raise ValueError("lower part must sit in a single layer")
            if any(m.bit_count() != w + 1 for m in upper):
                raise ValueError("upper part must sit one layer above the lower part")
        for lo, hi in edges:
            if lo not in lower or hi not in upper:
                raise ValueError(f"edge {(lo, hi)} has an endpoint outside the parts")
            if lo & ~hi or (hi ^ lo).bit_count() != 1:
                raise ValueError(
                    f"{format_string(lo, width)!r}/{format_string(hi, width)!r} is not an upward "
                    "Hamming-1 pair"
                )
        _fill(self, width=width, lower=lower, upper=upper, edges=edges)

    @classmethod
    def from_masks(
        cls, width: int, lower: Iterable[int], upper: Iterable[int], edges: Iterable[tuple[int, int]]
    ) -> PatternGraph:
        """The pattern graph of these masks and (lower, upper) pairs,
        trusted to form one: nothing is checked."""
        h = object.__new__(cls)
        _fill(h, width=width, lower=frozenset(lower), upper=frozenset(upper), edges=frozenset(edges))
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


def _starred(lower: list[int], upper: list[int]) -> list[tuple[int, int]]:
    """The (lower mask, star) edges of the Hamming-1 pairs between two mask sets."""
    return [(s, j) for s, _, j in _hamming1_pairs(lower, upper)]


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


def y_pattern(g: Multigraph, i: int | None = None) -> EdgePattern:
    """Edge pattern Y of (g, edge i): edges over the remaining coordinates,
    pairing each tree of g/i with the trees of g - i at Hamming distance
    1.  Lands in L'(e-v, v-2).

    Y is psi of X: g's trees that contain i are the trees of g/i, the
    others the trees of g - i, so Y(g, i) = psi(X(g), i).  ``i`` defaults
    to the graph's distinguished edge and must be neither a bridge nor a
    loop.  The trees are enumerated before the edge is checked.
    """
    return psi(x_pattern(g), _marked_edge(g, i))


def h_graph(g: Multigraph, i: int | None = None) -> PatternGraph:
    """Bipartite pattern graph of (g, edge i): lower part = trees of g/i,
    upper part = trees of g-minus-i, edges = the Hamming-1 pairs.  Both
    tree sets come from one enumeration of g's trees, split on bit i as
    ``psi`` splits them."""
    lower, upper = _split(spanning_trees(g), _marked_edge(g, i))
    edges = [(s, t) for s, t, _ in _hamming1_pairs(lower, upper)]
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
    which is how ``y_pattern`` computes Y.
    """
    if x.a < 1 or x.b < 1:
        raise ValueError("psi needs at least one zero and one one per string")
    if not (0 <= i < x.a + x.b):
        raise ValueError(f"coordinate {i} out of range")
    lower, upper = _split(x.masks, i)
    return EdgePattern.from_pairs(x.a - 1, x.b - 1, _starred(lower, upper))


def product_join(h1: PatternGraph, h2: PatternGraph) -> PatternGraph:
    """Product-join along the lower parts.

    A vertex pair is the concatenation of its strings, the mask
    ``v1 | v2 << width1``: the new lower part is lower1 x lower2, and
    (l1,l2) ~ (l1,u2) whenever l2 ~ u2, likewise on the other side.
    Inputs must be connected.
    """
    if not pg_is_connected(h1) or not pg_is_connected(h2):
        raise ValueError("product_join requires connected inputs")
    w = h1.width
    lower = [l1 | l2 << w for l1 in h1.lower for l2 in h2.lower]
    upper = [l1 | u2 << w for l1 in h1.lower for u2 in h2.upper]
    upper += [u1 | l2 << w for u1 in h1.upper for l2 in h2.lower]
    edges = [(l1 | lo2 << w, l1 | hi2 << w) for l1 in h1.lower for lo2, hi2 in h2.edges]
    edges += [(lo1 | l2 << w, hi1 | l2 << w) for lo1, hi1 in h1.edges for l2 in h2.lower]
    return PatternGraph.from_masks(w + h2.width, lower, upper, edges)


def pattern_graph_from_edge_pattern(y: EdgePattern) -> PatternGraph:
    """The graph spanned by an edge pattern (no isolated vertices)."""
    edges = [(lower, lower | 1 << star) for lower, star in y.pairs]
    return PatternGraph.from_masks(
        y.a + y.b + 1, (lo for lo, _ in edges), (hi for _, hi in edges), edges
    )


def edge_pattern_from_pattern_graph(h: PatternGraph) -> EdgePattern:
    if not h.edges:
        raise ValueError("pattern graph has no edges")
    pairs = [(lo, (hi ^ lo).bit_length() - 1) for lo, hi in h.edges]
    ones = pairs[0][0].bit_count()
    return EdgePattern.from_pairs(h.width - 1 - ones, ones, pairs)


# ---------------------------------------------------------------------------
# pattern-graph structure helpers


def _view(h: PatternGraph) -> tuple[list[int], Multigraph]:
    """H's vertex masks in increasing order, and H as a ``Multigraph`` on
    their places in that list.  A lower mask is a proper subset of its
    upper end, so it comes first and every edge is already ordered."""
    masks = sorted(h.lower | h.upper)
    place = {m: x for x, m in enumerate(masks)}
    return masks, Multigraph.derived(len(masks), tuple((place[lo], place[hi]) for lo, hi in h.edges))


def pg_components(h: PatternGraph) -> list[set[int]]:
    """The vertex sets of the components, in order of their least mask."""
    masks, g = _view(h)
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start not in seen:
            comp = _reach(g, start, skip_edge=None)
            seen |= comp
            comps.append({masks[x] for x in comp})
    return comps


def pg_is_connected(h: PatternGraph) -> bool:
    return _view(h)[1].is_connected()


def pg_is_two_connected(h: PatternGraph) -> bool:
    """Graph 2-connectivity: >= 2 edges and no cut vertex (loops cannot occur)."""
    return is_two_connected(_view(h)[1])


def pg_shape(h: PatternGraph) -> str:
    """Coarse shape report: 'cycle(n)', 'path(n)', or 'graph(v,e)'."""
    g = _view(h)[1]
    v, e = g.n, g.e
    if v and g.is_connected():
        ends = Counter(chain.from_iterable(g.edges))  # H has no loops and no parallel edges
        degs = sorted(ends[x] for x in range(v))
        if e == v and degs[0] == 2 and degs[-1] == 2:
            return f"cycle({v})"
        if e == v - 1 and (v == 1 or (degs[:2] == [1, 1] and degs[-1] <= 2)):
            return f"path({v})"
    return f"graph({v},{e})"


def pg_to_json(h: PatternGraph) -> str:
    """The pattern-graph format: ``lower`` and ``upper`` lists of 0/1
    strings and ``edges`` a list of [lower, upper] string pairs, sorted."""
    import json

    name = {m: format_string(m, h.width) for m in h.lower | h.upper}
    return json.dumps(
        {
            # 0/1 strings: the order 0 < 1 is code-point order
            "lower": sorted(name[m] for m in h.lower),
            "upper": sorted(name[m] for m in h.upper),
            "edges": sorted([name[lo], name[hi]] for lo, hi in h.edges),
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


def _blocks(sizes: tuple[int, ...]) -> list[int]:
    """The first coordinate of each block, refusing an empty or
    non-positive size list."""
    if not sizes or any(a < 1 for a in sizes):
        raise ValueError("need at least one positive block size")
    starts = [0]
    for a in sizes[:-1]:
        starts.append(starts[-1] + a)
    return starts


def alon_pattern(sizes: tuple[int, ...]) -> VertexPattern:
    """Strings split into blocks of the given sizes: one block all zeros,
    every other block containing exactly one 1.  Equals the tree pattern
    of the matching cycle-of-parallel-classes graph."""
    starts = _blocks(sizes)
    k = len(sizes)
    masks = set()
    for omit in range(k):
        slots = [
            [1 << (start + j) for j in range(a)] if i != omit else [0]
            for i, (start, a) in enumerate(zip(starts, sizes))
        ]
        masks.update(sum(choice) for choice in product(*slots))
    return VertexPattern.from_masks(sum(sizes) - k + 1, k - 1, masks)


def partite_pattern(sizes: tuple[int, ...]) -> EdgePattern:
    """Strings split into blocks: one block holds a single *, every other
    block a single 1.  Equals the edge pattern of the matching marked
    path-of-parallel-classes graph."""
    starts = _blocks(sizes)
    k = len(sizes)
    pairs = set()
    for choice in product(*(range(a) for a in sizes)):
        coords = [start + j for start, j in zip(starts, choice)]
        ones = sum(1 << c for c in coords)
        pairs.update((ones ^ 1 << star, star) for star in coords)
    return EdgePattern.from_pairs(sum(sizes) - k, k - 1, pairs)


_X16_MISSING = frozenset(parse_string(s, 6) for s in ("010101", "011010", "100110", "101001"))
_Y18_MISSING_LOWER = frozenset(parse_string(s, 5) for s in ("00011", "01100"))
_Y18_MISSING_UPPER = frozenset(parse_string(s, 5) for s in ("10101", "11010"))


def x16_pattern() -> VertexPattern:
    """The 16-element subset of L(3,3): everything except four strings."""
    return VertexPattern.from_masks(3, 3, frozenset(layer_masks(3, 3)) - _X16_MISSING)


def y18_pattern() -> EdgePattern:
    """The 18 Hamming-1 pairs between L(3,2) minus two strings and L(2,3)
    minus two strings."""
    lower = [m for m in layer_masks(3, 2) if m not in _Y18_MISSING_LOWER]
    upper = [m for m in layer_masks(2, 3) if m not in _Y18_MISSING_UPPER]
    return EdgePattern.from_pairs(2, 2, _starred(lower, upper))


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
