"""Two-terminal series-parallel networks as algebraic terms.

A term is an edge, a series composition (ordered children), or a parallel
composition (children as a multiset).  Terms are kept flattened: no
Series node directly under Series, no Parallel under Parallel.  A term t
stands for the marked graph "distinguished edge in parallel with t's
network", which is always 2-connected and series-parallel.

Two terms are equivalent when their marked graphs are isomorphic; this is
exactly parallel-child reordering plus series-list reversal (swapping the
two terminals), and ``canonical_key`` realizes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .multigraph import (
    Multigraph,
    add_leaf,
    add_loop,
    duplicate_edge,
    is_isomorphic,
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
    "compose_canonical",
    "format_term",
    "parse_term",
    "to_marked_graph",
    "tf_counts",
    "enumerate_terms",
    "enumerate_connected_sp",
    "GraphDedup",
]


@dataclass(frozen=True, slots=True)
class SpTerm:
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
    return SpTerm("S", flat)


def parallel(*parts: SpTerm) -> SpTerm:
    """Parallel composition; nested parallel children are flattened."""
    flat = _flatten("P", parts)
    if len(flat) == 1:
        return flat[0]
    return SpTerm("P", flat)


def edge_count(t: SpTerm) -> int:
    if t.kind == "e":
        return 1
    return sum(edge_count(c) for c in t.children)


def dual(t: SpTerm) -> SpTerm:
    """Swap series and parallel throughout; an involution on terms."""
    if t.kind == "e":
        return t
    kids = tuple(dual(c) for c in t.children)
    return SpTerm("P" if t.kind == "S" else "S", kids)


def reverse_term(t: SpTerm) -> SpTerm:
    """Swap the two terminals: series child lists reverse recursively.

    Reversing an inner series node on its own is NOT an equivalence (its
    ends sit in an oriented context); only this global swap is.
    """
    if t.kind == "e":
        return t
    if t.kind == "S":
        return SpTerm("S", tuple(reverse_term(c) for c in reversed(t.children)))
    return SpTerm("P", tuple(reverse_term(c) for c in t.children))


def _norm(t: SpTerm) -> SpTerm:
    """Sort parallel children recursively; series order is untouched."""
    if t.kind == "e":
        return t
    kids = [_norm(c) for c in t.children]
    if t.kind == "P":
        kids.sort(key=format_term)
    return SpTerm(t.kind, tuple(kids))


def canonical(t: SpTerm) -> SpTerm:
    """Canonical representative of a term's equivalence class.

    Parallel reordering and the global terminal swap are exactly the term
    moves that leave the marked graph unchanged up to isomorphism, so the
    representative is the keywise-smaller of the normalized term and its
    normalized reversal.  (Exactness is pinned against the pairwise
    graph-isomorphism oracle in the test suite.)
    """
    n1 = _norm(t)
    n2 = _norm(reverse_term(t))
    return n1 if n1.key <= n2.key else n2


def compose_canonical(
    kind: str, x: tuple[SpTerm, SpTerm], y: tuple[SpTerm, SpTerm]
) -> tuple[SpTerm, SpTerm]:
    """Canonical pair of the series (``kind="S"``) or parallel (``"P"``)
    composition of two canonical pairs, without canonicalizing anything.

    A canonical pair is ``(c, r)`` with ``c = canonical(t)`` and
    ``r = _norm(reverse_term(c))``; the result is the canonical pair of
    ``series(c1, c2)`` or ``parallel(c1, c2)``.

    Proof.  Write N for ``_norm``, R for ``reverse_term`` and t for the
    composition of c1 and c2.  ``canonical(t)`` is the key-smaller of N(t)
    and N(R(t)).  Both c1 and c2 are normalized, so N(t) is
    ``series(c1, c2)``, or the parallel children of c1 and c2 merged in key
    order.  N∘R commutes with composition: R reverses a series list and
    keeps a parallel multiset, and N sorts parallel children and keeps
    series order, so N(R(t)) is ``series(r2, r1)``, or the children of r1
    and r2 merged in key order.  Finally N(R(N(x))) = N(R(x)) and R is an
    involution, so N∘R swaps N(t) and N(R(t)): whichever is not canonical
    is the canonical one's r.
    """
    (c1, r1), (c2, r2) = x, y
    if kind == "S":
        n1, n2 = series(c1, c2), series(r2, r1)
    else:
        n1, n2 = _merge_parallel(c1, c2), _merge_parallel(r1, r2)
    return (n1, n2) if n1.key <= n2.key else (n2, n1)


def _merge_parallel(t1: SpTerm, t2: SpTerm) -> SpTerm:
    """N(parallel(t1, t2)) for normalized t1 and t2."""
    return SpTerm("P", tuple(sorted(_flatten("P", (t1, t2)), key=format_term)))


def format_term(t: SpTerm) -> str:
    return t.key


def canonical_key(t: SpTerm) -> str:
    """Stable text key; equal exactly on equivalent terms."""
    return format_term(canonical(t))


def parse_term(text: str) -> SpTerm:
    """Parse the text syntax ``e``, ``S(t1,t2,...)``, ``P(t1,t2,...)``."""
    text = text.strip()
    term, pos = _parse_at(text, 0)
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
    counter = [2]

    def build(term: SpTerm, s: int, u: int) -> None:
        if term.kind == "e":
            edges.append((s, u))
        elif term.kind == "S":
            prev = s
            for c in term.children[:-1]:
                mid = counter[0]
                counter[0] += 1
                build(c, prev, mid)
                prev = mid
            build(term.children[-1], prev, u)
        else:
            for c in term.children:
                build(c, s, u)

    build(t, 0, 1)
    return Multigraph(counter[0], tuple(edges), distinguished=0)


def tf_counts(t: SpTerm) -> tuple[int, int]:
    """(T, F): spanning trees of t's network, and 2-component spanning
    forests separating the two terminals.

    For the marked graph (G, e) of t these are |X(G \\ e)| and |X(G / e)|.
    """
    if t.kind == "e":
        return (1, 1)
    sub = [tf_counts(c) for c in t.children]
    if t.kind == "S":
        prod_t = 1
        for T, _ in sub:
            prod_t *= T
        f = sum(F * prod_t // T for T, F in sub)
        return (prod_t, f)
    prod_f = 1
    for _, F in sub:
        prod_f *= F
    tt = sum(T * prod_f // F for T, F in sub)
    return (tt, prod_f)


# ---------------------------------------------------------------------------
# enumeration of terms


@lru_cache(maxsize=None)
def _norm_terms(d: int) -> tuple[SpTerm, ...]:
    """All normalized terms (parallel children sorted, series order free)."""
    out = list(_series_norm(d)) + list(_parallel_norm(d))
    if d == 1:
        out.append(EDGE)
    out.sort(key=format_term)
    return tuple(out)


@lru_cache(maxsize=None)
def _non_series_norm(d: int) -> tuple[SpTerm, ...]:
    return tuple(t for t in _norm_terms(d) if t.kind != "S")


@lru_cache(maxsize=None)
def _non_parallel_norm(d: int) -> tuple[SpTerm, ...]:
    return tuple(t for t in _norm_terms(d) if t.kind != "P")


@lru_cache(maxsize=None)
def _series_norm(d: int) -> tuple[SpTerm, ...]:
    """Series-rooted normalized terms: every ordered child list."""
    if d < 2:
        return ()
    out = []

    def extend(prefix: list[SpTerm], remaining: int) -> None:
        if remaining == 0:
            if len(prefix) >= 2:
                out.append(SpTerm("S", tuple(prefix)))
            return
        for size in range(1, remaining + 1):
            if remaining - size == 0 and not prefix:
                continue  # a single child is not a series node
            for child in _non_series_norm(size):
                prefix.append(child)
                extend(prefix, remaining - size)
                prefix.pop()

    extend([], d)
    return tuple(sorted(out, key=format_term))


@lru_cache(maxsize=None)
def _parallel_norm(d: int) -> tuple[SpTerm, ...]:
    """Parallel-rooted normalized terms: multisets of non-parallel terms,
    generated with children in the same key order ``_norm`` produces."""
    if d < 2:
        return ()
    pool = sorted(
        (
            (format_term(t), s, t)
            for s in range(1, d)
            for t in _non_parallel_norm(s)
        ),
        key=lambda item: item[0],
    )
    out = []

    def extend(prefix: list[SpTerm], start: int, remaining: int) -> None:
        if remaining == 0:
            if len(prefix) >= 2:
                out.append(SpTerm("P", tuple(prefix)))
            return
        for idx in range(start, len(pool)):
            _, size, child = pool[idx]
            if size > remaining:
                continue
            if size == remaining and not prefix:
                continue
            prefix.append(child)
            extend(prefix, idx, remaining - size)
            prefix.pop()

    extend([], 0, d)
    return tuple(sorted(out, key=format_term))


@lru_cache(maxsize=None)
def _all_terms(d: int) -> tuple[SpTerm, ...]:
    """One canonical representative per equivalence class."""
    out = [
        t
        for t in _norm_terms(d)
        if format_term(t) <= format_term(_norm(reverse_term(t)))
    ]
    out.sort(key=format_term)
    return tuple(out)


def enumerate_terms(d: int):
    """Canonical representatives of all d-edge terms, in key order."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return iter(_all_terms(d))


# ---------------------------------------------------------------------------
# enumeration of connected series-parallel multigraphs


class GraphDedup:
    """Isomorphism-deduplicated collection of small multigraphs.

    Buckets by a color-refinement signature, then confirms with the
    backtracking isomorphism test.
    """

    def __init__(self, *, use_distinguished: bool = False):
        self._buckets: dict[object, list[Multigraph]] = {}
        self._marked = use_distinguished
        self.items: list[Multigraph] = []

    def add(self, g: Multigraph) -> bool:
        """Insert g unless an isomorphic graph is present; True if new."""
        from .multigraph import _signature  # desk-scale internal

        sig = _signature(g, self._marked and g.distinguished is not None)
        bucket = self._buckets.setdefault(sig, [])
        for h in bucket:
            if is_isomorphic(g, h, use_distinguished=self._marked):
                return False
        bucket.append(g)
        self.items.append(g)
        return True


def enumerate_connected_sp(d: int) -> list[Multigraph]:
    """All connected series-parallel multigraphs with exactly d edges, up
    to isomorphism: the closure of K1 under loop addition, leaf addition,
    edge duplication, and edge subdivision.  Desk scale only.

    The returned list is deterministically ordered (vertex count, then
    edge tuple of the chosen representatives).
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    frontier = [Multigraph(1, ())]
    for _ in range(d):
        dedup = GraphDedup()
        for g in frontier:
            for v in range(g.n):
                dedup.add(add_loop(g, v))
                dedup.add(add_leaf(g, v))
            for i in range(g.e):
                dedup.add(duplicate_edge(g, i))
                dedup.add(subdivide_edge(g, i))
        frontier = dedup.items
    return sorted(frontier, key=lambda g: (g.n, g.edges))
