"""Two-terminal series-parallel networks as algebraic terms.

A term is an edge, a series composition (ordered children), or a parallel
composition (children as a multiset).  Terms are kept flattened: no
Series node directly under Series, no Parallel under Parallel.  A term t
stands for the marked graph "distinguished edge in parallel with t's
network", which is always 2-connected and series-parallel.

Two terms are equivalent when their marked graphs are isomorphic; this is
exactly parallel-child reordering plus series-list reversal (swapping the
two terminals), and ``canonical_key`` realizes it.

``SpTerm(kind, children)`` is the public boundary and checks the node.
Code that derives a term from valid terms, so that the node is valid by
construction (the enumeration, ``series`` and ``parallel`` once
flattening leaves two or more parts, ``dual``, ``reverse_term`` and the
normalizations), calls ``SpTerm.derived``, which checks nothing.

A value folds along a term's series and parallel steps by ``_fold``, the
term-side mirror of ``multigraph._sp_reduce``.  ``tf_counts`` and
``tree_bitsets`` are one fold by one (T, F) rule, ``multigraph._count_tf``:
on ints as counts, and on ints as bitsets of edge masks, whose products
are joins and whose sums are disjoint unions.  ``tree_sets`` decodes the
bitsets by ``multigraph._members``, as ``spanning_trees`` does, and the
m-table DP's triples (``search._combine``) are one more fold.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, repeat

from .multigraph import (
    Multigraph,
    _count_tf,
    _members,
    add_leaf,
    add_loop,
    canonical_form,
    duplicate_edge,
    least_twins,
    spanning_trees,
    subdivide_edge,
)

__all__ = [
    "SpTerm",
    "EDGE",
    "series",
    "parallel",
    "edge_count",
    "dual",
    "reverse_term",
    "canonical",
    "canonical_key",
    "format_term",
    "parse_term",
    "to_marked_graph",
    "tf_counts",
    "tree_bitsets",
    "tree_sets",
    "enumerate_terms",
    "enumerate_connected_sp",
    "GraphDedup",
]


@dataclass(frozen=True, slots=True)
class SpTerm:
    """A term node: an edge, or a series or parallel node of two or more
    children, none of its own kind.

    ``SpTerm(kind, children)`` is the public boundary and checks all of
    this.  Code that derives a term from valid terms, so that it holds by
    construction, calls ``SpTerm.derived``.
    """

    kind: str  # "e", "S", or "P"
    children: tuple["SpTerm", ...] = ()
    # the term's text (``format_term``), built once from the children's
    # keys; it is the ``canonical_key`` only for a canonical term
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "e":
            if self.children:
                raise ValueError("an edge has no children")
            key = "e"
        elif self.kind in ("S", "P"):
            if len(self.children) < 2:
                raise ValueError("series/parallel nodes need at least 2 children")
            if any(c.kind == self.kind for c in self.children):
                raise ValueError("term is not flattened")
            key = f"{self.kind}({','.join(c.key for c in self.children)})"
        else:
            raise ValueError(f"unknown term kind {self.kind!r}")
        object.__setattr__(self, "key", key)

    @classmethod
    def derived(cls, kind: str, children: tuple[SpTerm, ...]) -> SpTerm:
        """The series or parallel node of these children, trusted to be
        two or more valid terms, none of kind ``kind``: nothing is
        checked."""
        t = object.__new__(cls)
        object.__setattr__(t, "kind", kind)
        object.__setattr__(t, "children", children)
        object.__setattr__(t, "key", f"{kind}({','.join([c.key for c in children])})")
        return t


EDGE = SpTerm("e")


def _flatten(kind: str, parts) -> tuple[SpTerm, ...]:
    out: list[SpTerm] = []
    for p in parts:
        if p.kind == kind:
            out.extend(p.children)
        else:
            out.append(p)
    return tuple(out)


def series(*parts: SpTerm) -> SpTerm:
    """Series composition; nested series children are flattened."""
    flat = _flatten("S", parts)
    if len(flat) == 1:
        return flat[0]
    # no parts is refused by the checking constructor
    return SpTerm.derived("S", flat) if flat else SpTerm("S", flat)


def parallel(*parts: SpTerm) -> SpTerm:
    """Parallel composition; nested parallel children are flattened."""
    flat = _flatten("P", parts)
    if len(flat) == 1:
        return flat[0]
    return SpTerm.derived("P", flat) if flat else SpTerm("P", flat)


def edge_count(t: SpTerm) -> int:
    if t.kind == "e":
        return 1
    return sum(edge_count(c) for c in t.children)


def dual(t: SpTerm) -> SpTerm:
    """Swap series and parallel throughout; an involution on terms."""
    if t.kind == "e":
        return t
    kids = tuple([dual(c) for c in t.children])
    return SpTerm.derived("P" if t.kind == "S" else "S", kids)


def reverse_term(t: SpTerm) -> SpTerm:
    """Swap the two terminals: series child lists reverse recursively.

    Reversing an inner series node on its own is NOT an equivalence (its
    ends sit in an oriented context); only this global swap is.
    """
    if t.kind == "e":
        return t
    if t.kind == "S":
        return SpTerm.derived("S", tuple([reverse_term(c) for c in reversed(t.children)]))
    return SpTerm.derived("P", tuple([reverse_term(c) for c in t.children]))


def _norm(t: SpTerm) -> SpTerm:
    """Sort parallel children recursively; series order is untouched."""
    if t.kind == "e":
        return t
    kids = [_norm(c) for c in t.children]
    if t.kind == "P":
        kids.sort(key=format_term)
    return SpTerm.derived(t.kind, tuple(kids))


def canonical(t: SpTerm) -> SpTerm:
    """Canonical representative of a term's equivalence class.

    Parallel reordering and the global terminal swap are exactly the term
    moves that leave the marked graph unchanged up to isomorphism, so the
    representative is the keywise-smaller of the normalized term and its
    normalized reversal.  The reversal's key comes from ``_reversed_key``,
    the rule the term enumeration orients by, so the reversal is built
    only when it wins.  (Exactness is pinned against the pairwise
    graph-isomorphism oracle in the test suite.)
    """
    n = _norm(t)
    return n if n.key <= _reversed_key(n, {}) else _norm(reverse_term(n))


def _merge_parallel(t1: SpTerm, t2: SpTerm) -> SpTerm:
    """N(parallel(t1, t2)) for normalized t1 and t2."""
    return SpTerm.derived("P", tuple(sorted(_flatten("P", (t1, t2)), key=format_term)))


def format_term(t: SpTerm) -> str:
    return t.key


def canonical_key(t: SpTerm) -> str:
    """Stable text key; equal exactly on equivalent terms."""
    return format_term(canonical(t))


def parse_term(text: str) -> SpTerm:
    """Parse the text syntax ``e``, ``S(t1,t2,...)``, ``P(t1,t2,...)``.

    Malformed text, and text nested too deeply for the recursive parser,
    raises ``ValueError``."""
    text = text.strip()
    try:
        term, pos = _parse_at(text, 0)
    except RecursionError:
        raise ValueError("term is nested too deeply") from None
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}: {text[pos:]!r}")
    return term


def _parse_at(text: str, pos: int) -> tuple[SpTerm, int]:
    if pos >= len(text):
        raise ValueError("unexpected end of term")
    ch = text[pos]
    if ch == "e":
        return EDGE, pos + 1
    if ch in "SP":
        if pos + 1 >= len(text) or text[pos + 1] != "(":
            raise ValueError(f"expected '(' after {ch!r} at position {pos}")
        kids = []
        pos += 2
        while True:
            kid, pos = _parse_at(text, pos)
            kids.append(kid)
            if pos >= len(text):
                raise ValueError("unterminated term")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise ValueError(f"unexpected character {text[pos]!r} at position {pos}")
        return (series if ch == "S" else parallel)(*kids), pos
    raise ValueError(f"unexpected character {ch!r} at position {pos}")


# ---------------------------------------------------------------------------
# realization as a marked graph


def to_marked_graph(t: SpTerm) -> Multigraph:
    """Marked graph of t: the distinguished edge (index 0) joins the two
    terminals, followed by t's edges in left-to-right leaf order."""
    edges: list[tuple[int, int]] = [(0, 1)]
    n = _place(t, 0, 1, edges, 2)
    # t's network joins the terminals, so the mark is not a bridge
    return Multigraph.derived(n, tuple(edges), 0)


def _place(t: SpTerm, s: int, u: int, edges: list[tuple[int, int]], free: int) -> int:
    """Append t's edges between terminals s and u to ``edges``, numbering
    inner vertices from ``free``; returns the next free vertex.  The edge
    list is an argument: a closure over it that calls itself would keep it
    alive in a reference cycle."""
    if t.kind == "e":
        edges.append((s, u) if s < u else (u, s))
    elif t.kind == "S":
        prev = s
        for c in t.children[:-1]:
            mid = free
            free = _place(c, prev, mid, edges, free + 1)
            prev = mid
        free = _place(t.children[-1], prev, u, edges, free)
    else:
        for c in t.children:
            free = _place(c, s, u, edges, free)
    return free


def _fold(t: SpTerm, leaves, compose):
    """Fold t's series-parallel structure into one value, the term-side
    mirror of ``multigraph._sp_reduce``.

    Each edge takes the next value of the iterator ``leaves``, left to
    right, and each node folds its children in one at a time by
    ``compose(series, x, y)``.  An edge child takes its value from
    ``leaves`` in place, without a call."""
    if t.kind == "e":
        return next(leaves)
    in_series = t.kind == "S"
    x = None
    for c in t.children:
        y = next(leaves) if c.kind == "e" else _fold(c, leaves, compose)
        x = y if x is None else compose(in_series, x, y)
    return x


def tf_counts(t: SpTerm) -> tuple[int, int]:
    """(T, F): spanning trees of t's network, and 2-component spanning
    forests separating the two terminals.

    For the marked graph (G, e) of t these are |X(G \\ e)| and |X(G / e)|.
    An edge has (1, 1), and ``_fold`` composes by ``multigraph._count_tf``.
    """
    return _fold(t, repeat((1, 1)), _count_tf)


def tree_bitsets(t: SpTerm) -> tuple[int, int]:
    """(T, F) as bitsets: bit m of T is set when the edge mask m, leaf i
    of t (left to right) at bit i, is a spanning tree of t's network, and
    bit m of F when m is a 2-component spanning forest separating its
    terminals.  ``tree_sets`` lists the members.

    Leaf i has T = {bit i} and F = {no edge}, and ``_fold`` composes by
    ``multigraph._count_tf``, the rule of ``tf_counts``.  Two parts use
    disjoint edge bits, so a product of their bitsets has bit x + y = x | y
    for every pair of members, with no carry: it is the join of the sets.
    A tree of a part has one more edge than a forest of it, so the two
    products of ``ta * fb + fa * tb`` differ on a's edges in every member,
    and their sum is a disjoint union.  The popcounts are ``tf_counts(t)``.
    """
    return _fold(t, map(_bitset_leaf, count()), _count_tf)


@lru_cache(maxsize=None)
def _bitset_leaf(i: int) -> tuple[int, int]:
    """Leaf i's (T, F) bitsets: T = {bit i}, F = {no edge}.  Kept for the
    life of the process, so the leaves of the longest term folded hold
    about twice the bits of its last leaf's T."""
    return 1 << (1 << i), 1


def tree_sets(t: SpTerm) -> tuple[list[int], list[int]]:
    """(T, F) as ascending lists of edge masks, leaf i of t (left to
    right) at bit i: the members of ``tree_bitsets(t)``.

    For the marked graph (G, 0) of t these are the trees of G \\ 0 and of
    G / 0, that is ``patterns._split(spanning_trees(to_marked_graph(t)), 0)``
    in reverse, with no graph built.
    """
    trees, forests = tree_bitsets(t)
    return _members(trees), _members(forests)


# ---------------------------------------------------------------------------
# enumeration of terms


def _norm_terms(d: int) -> tuple[SpTerm, ...]:
    """All normalized terms (parallel children sorted, series order free),
    in key order: every ``P(`` key sorts before every ``S(`` key, and
    ``_nodes`` emits each kind in key order, unsorted."""
    if d == 1:
        return (EDGE,)
    return _nodes("P", d) + _nodes("S", d)


@lru_cache(maxsize=None)
def _nodes(kind: str, d: int) -> tuple[SpTerm, ...]:
    """The normalized terms with d edges rooted at a ``kind`` node, in key
    order.

    The children come from one key-sorted pool: the edge and the other
    kind's nodes with fewer than d edges, so every node has at least two.
    ``_walk`` tries them in key order, so it emits the nodes in the
    lexicographic order of their child keys.  That is key order, with no
    sort: no key is a prefix of another, and no d-edge node's children
    are a prefix of another's."""
    other = "S" if kind == "P" else "P"
    pool = [(s, t) for s in range(1, d) for t in (_nodes(other, s) if s > 1 else (EDGE,))]
    pool.sort(key=lambda item: format_term(item[1]))
    # fits[r]: the pool positions of the children with at most r edges, in
    # key order, so that a step visits only the children that fit
    fits = [[i for i, (s, _) in enumerate(pool) if s <= r] for r in range(d + 1)]
    out: list[SpTerm] = []
    _walk(kind, pool, fits, [], 0, d, out)
    return tuple(out)


def _walk(
    kind: str, pool: list[tuple[int, SpTerm]], fits: list[list[int]],
    prefix: list[SpTerm], start: int, remaining: int, out: list[SpTerm],
) -> None:
    # A parallel node's next child comes at or after its last one's pool
    # position ``start``, so each multiset of children is made once; a
    # series node's may be any child, so its children are a sequence.  The
    # accumulators are arguments: a closure over them that calls itself
    # would keep them alive in a cycle.
    if remaining == 0:
        out.append(SpTerm.derived(kind, tuple(prefix)))
        return
    fit = fits[remaining]
    for idx in fit[bisect_left(fit, start):]:
        size, child = pool[idx]
        prefix.append(child)
        _walk(kind, pool, fits, prefix, idx if kind == "P" else 0, remaining - size, out)
        prefix.pop()


@lru_cache(maxsize=None)
def _all_terms(d: int) -> tuple[SpTerm, ...]:
    """One canonical representative per equivalence class: the normalized
    terms whose key is at most that of their normalized reversal (see
    ``canonical``), in the key order of ``_norm_terms``."""
    memo: dict[str, str] = {}
    return tuple(t for t in _norm_terms(d) if t.key <= _reversed_key(t, memo))


def _reversed_key(t: SpTerm, memo: dict[str, str]) -> str:
    """``_norm(reverse_term(t)).key``, built from the children's reversed
    keys: a series lists them in reverse order, a parallel sorted.
    ``memo`` maps subterm keys to reversed keys.  Subterms are shared
    across the terms of one enumeration, so most lookups hit; t's own key
    is not stored, because only subterms recur."""
    if t.kind == "e":
        return "e"
    kids = []
    for c in t.children:
        key = memo.get(c.key)
        if key is None:
            key = memo[c.key] = _reversed_key(c, memo)
        kids.append(key)
    if t.kind == "S":
        kids.reverse()
    else:
        kids.sort()
    return f"{t.kind}({','.join(kids)})"


def enumerate_terms(d: int):
    """Canonical representatives of all d-edge terms, in key order."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return iter(_all_terms(d))


# ---------------------------------------------------------------------------
# enumeration of connected series-parallel multigraphs


class GraphDedup:
    """Isomorphism-deduplicated collection of small multigraphs.

    Remembers every labelled graph offered, as a tuple of small ints, so
    a repeat is one set lookup, and holds the ``canonical_form``
    certificate of every class, so any other insertion is one certificate
    and one set lookup.  ``items`` keeps the first-inserted representative
    of each class, in insertion order.
    """

    def __init__(self, *, use_distinguished: bool = False):
        self._offered: set[tuple] = set()
        self._certificates: set[tuple] = set()
        self._marked = use_distinguished
        self.items: list[Multigraph] = []

    def add(self, g: Multigraph) -> bool:
        """Insert g unless an isomorphic graph is present; True if new."""
        # the labelled graph as the certificate sees it, so equal keys mean
        # equal certificates: n, the marked edge (or -1) and the sorted
        # edges, each edge (u, v) as the int u * n + v
        n, d = g.n, g.distinguished
        mark = -1 if d is None or not self._marked else g.edges[d][0] * n + g.edges[d][1]
        key = (n, mark, *sorted([u * n + v for u, v in g.edges]))
        if key in self._offered:
            return False
        self._offered.add(key)
        cert = canonical_form(g, self._marked)
        if cert in self._certificates:
            return False
        self._certificates.add(cert)
        self.items.append(g)
        return True


def enumerate_connected_sp(d: int) -> list[Multigraph]:
    """All connected series-parallel multigraphs with exactly d edges, up
    to isomorphism: the closure of K1 under loop addition, leaf addition,
    edge duplication, and edge subdivision.  Desk scale only.

    Each census level is built once per process, from the one below it,
    and kept; every call returns a fresh list of its classes, without
    their tree counts, deterministically ordered (vertex count, then edge
    tuple of the chosen representatives).
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    return sorted((g for g, _ in _census_level(d)), key=lambda g: (g.n, g.edges))


@lru_cache(maxsize=None)
def _census_level(d: int, floor: int = 0) -> tuple[tuple[Multigraph, int], ...]:
    """Level d of the census in insertion order, as (class, tree count)
    pairs, restricted to the classes with at least ``floor`` spanning
    trees; ``floor == 0`` is the full level.

    The level grows from ``_census_level(d - 1, (floor + 1) // 2)``: each
    parent P, with its count T, is offered, in order, a loop and a leaf at
    every vertex, then a duplicate and a subdivision of every edge, and a
    child below ``floor`` is dropped before it is built, so it costs no
    certificate.  Each child's count follows from one enumeration of P's
    trees, by deletion and contraction: if c_e of them use edge e, then a
    loop or a leaf keeps T, duplicating e gives T + c_e, and subdividing e
    gives 2 T - c_e (a loop has c_e = 0).  So no child has more than 2 T
    trees: every parent of a kept class is in the bounded level below,
    and the kept classes get the same first-inserted representatives, in
    the same order, as in the full level.  ``_operations`` skips an
    operation whose result is isomorphic to an earlier one's on the same
    parent, by four rules:

    - a loop or a leaf at a vertex whose least twin u is smaller (see
      ``least_twins``): the same operation at u;
    - duplicating or subdividing a parallel copy of an earlier edge: the
      same operation on that edge;
    - duplicating a loop at v: ``add_loop`` at v's least twin;
    - subdividing a pendant edge, one with an end of degree 1 (loops
      counting twice): ``add_leaf`` at that end's least twin.

    A skipped graph would only have been rejected as a duplicate, so the
    classes, their order of first insertion and their representatives are
    exactly those of the unskipped closure.
    """
    if d == 0:
        return ((Multigraph(1, ()), 1),) if floor <= 1 else ()
    dedup = GraphDedup()
    level = []
    for g, parent_count in _census_level(d - 1, (floor + 1) // 2):
        masks = spanning_trees(g)
        uses = [sum(m >> i & 1 for m in masks) for i in range(g.e)]
        for op, x in _operations(g):
            if op is duplicate_edge:
                count = parent_count + uses[x]
            elif op is subdivide_edge:
                count = 2 * parent_count - uses[x]
            else:
                count = parent_count
            if count >= floor and dedup.add(child := op(g, x)):
                level.append((child, count))
    return tuple(level)


def _operations(g: Multigraph):
    """The census operations on parent g that the skip rules of
    ``_census_level`` keep, in order, as (operation, vertex or edge index)."""
    twins = least_twins(g)
    for v in range(g.n):
        if twins[v] == v:
            yield add_loop, v
            yield add_leaf, v
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    seen = set()
    for i, (u, v) in enumerate(g.edges):
        if (u, v) in seen:
            continue
        seen.add((u, v))
        if u != v:
            yield duplicate_edge, i
        if degree[u] > 1 and degree[v] > 1:
            yield subdivide_edge, i
