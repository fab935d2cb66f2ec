"""Exact desk-scale searches: Fibonacci tree maxima and the max-edge table.

Two independent routes compute the edge-count maximum m(d) over marked
2-connected networks with d non-distinguished edges:

* ``method="dp"`` (default): dynamic programming over achievable
  (lower-size, upper-size, edge-count) triples.  Binary series/parallel
  combination is exact for these triples (a 2-sum glues pattern graphs by
  a product-join, which is what the parallel rule computes; the series
  rule is its 0/1-swapped dual), and all three combination rules are
  monotone, so dominated triples can be pruned without losing maxima.
  The frontier carries each triple's witness as a canonical pair (the
  canonical term and its normalized reversal), so a candidate's canonical
  form is composed from its parts' pairs (``compose_canonical``) and
  compared by cached key, never recomputed.  Dominated triples are
  pruned by an O(n log n) staircase sweep.
* ``method="terms"``: literal iteration over all canonical terms,
  counting Hamming-1 pairs between the two tree sets of each marked
  graph.

The test suite pins both routes to each other and revalidates every
reported witness by recomputing its pattern size from scratch.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .catalog import fib_chain
from .errors import SizeGuardError
from .multigraph import Multigraph, graph_to_json, tree_count, spanning_trees
from .patterns import y_pattern
from .spterm import (
    EDGE,
    SpTerm,
    compose_canonical,
    enumerate_connected_sp,
    enumerate_terms,
    format_term,
    to_marked_graph,
)

__all__ = [
    "fib",
    "TableRow",
    "max_spanning_trees",
    "fib_table",
    "m_value",
    "m_table",
    "check_m_bounds",
    "m_value_all_marked_graphs",
    "rows_to_csv",
    "rows_to_markdown",
]

EXHAUSTIVE_TREE_LIMIT = 8
WITNESS_CHAIN_LIMIT = 16
M_TABLE_LIMIT = 16


def fib(k: int) -> int:
    """Fibonacci numbers indexed F(1) = F(2) = 1, F(3) = 2, ..."""
    if k < 1:
        raise ValueError("k must be at least 1")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class TableRow:
    d: int
    value: int
    witness: object  # SpTerm or Multigraph
    millis: float

    def witness_text(self) -> str:
        if isinstance(self.witness, SpTerm):
            return format_term(self.witness)
        if isinstance(self.witness, Multigraph):
            return graph_to_json(self.witness)
        return str(self.witness)


# ---------------------------------------------------------------------------
# Fibonacci spanning-tree maxima


def max_spanning_trees(d: int, mode: str = "exhaustive") -> TableRow:
    """Maximum spanning-tree count over connected series-parallel
    multigraphs with d edges.

    ``exhaustive`` searches the full isomorphism census (d <= 8);
    ``witness`` only builds the alternating duplicate/subdivide chain
    graph and reports its count (d <= 16).
    """
    start = time.perf_counter()
    if mode == "exhaustive":
        if d > EXHAUSTIVE_TREE_LIMIT:
            raise SizeGuardError(
                f"exhaustive census is guarded at {EXHAUSTIVE_TREE_LIMIT} edges"
            )
        best = -1
        witness: Multigraph | None = None
        for g in enumerate_connected_sp(d):
            c = tree_count(g)
            if c > best:
                best = c
                witness = g
        assert witness is not None
        return TableRow(d, best, witness, _ms(start))
    if mode == "witness":
        if d > WITNESS_CHAIN_LIMIT:
            raise SizeGuardError(f"witness chain is guarded at {WITNESS_CHAIN_LIMIT} edges")
        g = fib_chain(d)
        count = len(spanning_trees(g))
        if count != tree_count(g):
            raise AssertionError("tree enumeration and determinant count disagree")
        return TableRow(d, count, g, _ms(start))
    raise ValueError(f"unknown mode {mode!r}")


def fib_table(d_max: int, mode: str = "exhaustive") -> list[TableRow]:
    return [max_spanning_trees(d, mode) for d in range(d_max + 1)]


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


# ---------------------------------------------------------------------------
# the m(d) table


def _combine_series(x, y):
    (a1, b1, e1), (a2, b2, e2) = x, y
    return (a1 * b2 + a2 * b1, b1 * b2, e1 * b2 + e2 * b1)


def _combine_parallel(x, y):
    (a1, b1, e1), (a2, b2, e2) = x, y
    return (a1 * a2, b1 * a2 + b2 * a1, e1 * a2 + e2 * a1)


def _prune(cands: dict[tuple[int, int, int], object]) -> dict:
    """Drop triples dominated coordinatewise by another candidate.

    Maxima of vectors by a staircase sweep (Kung, Luccio and Preparata,
    J. ACM 1975): in decreasing lexicographic order every earlier triple has
    a >= this a, so a triple is dominated exactly when some kept triple
    has kb >= b and ke >= e.  The staircase holds the (kb, ke) maxima of
    the kept triples, kb increasing and ke decreasing, so the largest ke
    among kb >= b sits at the first such kb.
    """
    kept = {}
    stair_b: list[int] = []
    stair_e: list[int] = []
    for trip in sorted(cands, reverse=True):
        _, b, e = trip
        i = bisect_left(stair_b, b)
        if i < len(stair_b) and stair_e[i] >= e:
            continue
        kept[trip] = cands[trip]
        # the new point covers the steps with kb <= b and ke <= e
        j = i + (i < len(stair_b) and stair_b[i] == b)
        while i > 0 and stair_e[i - 1] <= e:
            i -= 1
        stair_b[i:j] = [b]
        stair_e[i:j] = [e]
    return kept


def _dp_frontiers(d_max: int) -> tuple[list[dict], list[float]]:
    """frontier[d]: undominated (|X(G/e)|, |X(G\\e)|, |Y(G,e)|) triples for
    d-edge networks, each with the canonical pair (c, r) of its witness
    term (see ``compose_canonical``); millis[d]: the time frontier[d] took
    to build."""
    frontier: list[dict] = [dict() for _ in range(d_max + 1)]
    millis = [0.0] * (d_max + 1)
    for d in range(1, d_max + 1):
        start = time.perf_counter()
        cands: dict[tuple[int, int, int], tuple[SpTerm, SpTerm]] = {}
        if d == 1:
            cands[(1, 1, 1)] = (EDGE, EDGE)
        for d1 in range(1, d // 2 + 1):
            d2 = d - d1
            for t1_trip, p1 in frontier[d1].items():
                for t2_trip, p2 in frontier[d2].items():
                    for combine, kind in ((_combine_series, "S"), (_combine_parallel, "P")):
                        trip = combine(t1_trip, t2_trip)
                        pair = compose_canonical(kind, p1, p2)
                        old = cands.get(trip)
                        if old is None or pair[0].key < old[0].key:
                            cands[trip] = pair
        frontier[d] = _prune(cands)
        millis[d] = _ms(start)
    return frontier, millis


def _best(scored) -> tuple[int, SpTerm]:
    """The witness rule: the largest value, witnessed by the key-least
    term that reaches it.  ``scored`` yields (value, term) pairs."""
    best, witness = -1, None
    for value, term in scored:
        if value > best or (value == best and term.key < witness.key):
            best, witness = value, term
    return best, witness


def _frontier_best(frontier: dict) -> tuple[int, SpTerm]:
    return _best((e, c) for (_, _, e), (c, _) in frontier.items())


def m_value(d: int, method: str = "dp") -> tuple[int, SpTerm]:
    """m(d): the maximum edge-pattern size over marked 2-connected
    series-parallel graphs with d+1 edges, with a witness term."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > M_TABLE_LIMIT:
        raise SizeGuardError(f"m table is guarded at d = {M_TABLE_LIMIT}")
    if method == "dp":
        frontiers, _ = _dp_frontiers(d)
        return _frontier_best(frontiers[d])
    if method == "terms":
        return _best(
            (len(y_pattern(to_marked_graph(t), 0)), t) for t in enumerate_terms(d)
        )
    raise ValueError(f"unknown method {method!r}")


def m_table(d_max: int, method: str = "dp") -> list[TableRow]:
    """Rows (d, m(d), witness term, millis) for d = 1..d_max.  With the DP
    a row's millis is the time its frontier took to build."""
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if d_max > M_TABLE_LIMIT:
        raise SizeGuardError(f"m table is guarded at d = {M_TABLE_LIMIT}")
    if method == "dp":
        frontiers, millis = _dp_frontiers(d_max)
        return [
            TableRow(d, *_frontier_best(frontiers[d]), millis[d])
            for d in range(1, d_max + 1)
        ]
    rows = []
    for d in range(1, d_max + 1):
        start = time.perf_counter()
        value, witness = m_value(d, method)
        rows.append(TableRow(d, value, witness, _ms(start)))
    return rows


def check_m_bounds(rows: list[TableRow]) -> list[dict]:
    """Assert fib(d+2) - 1 <= m(d) <= d * fib(d+2) / 2 for every row.

    A violation raises (it would mean an implementation bug); the returned
    report carries the per-row numbers.
    """
    report = []
    for row in rows:
        lower = fib(row.d + 2) - 1
        upper = Fraction(row.d * fib(row.d + 2), 2)
        ok = lower <= row.value and row.value <= upper
        if not ok:
            raise AssertionError(
                f"m({row.d}) = {row.value} violates {lower} <= m <= {upper}"
            )
        report.append(
            {"d": row.d, "value": row.value, "lower": lower, "upper": upper, "ok": ok}
        )
    return report


def m_value_all_marked_graphs(d: int) -> int:
    """Cross-check for the 2-connected reduction: the maximum edge-pattern
    size over ALL connected series-parallel graphs with d+1 edges and any
    valid marked edge (not just the 2-connected ones).  Very small d only.
    """
    best = -1
    for g in enumerate_connected_sp(d + 1):
        for i, (u, v) in enumerate(g.edges):
            if u == v:
                continue
            try:
                y = y_pattern(g, i)
            except ValueError:
                continue  # bridge
            best = max(best, len(y))
    return best


# ---------------------------------------------------------------------------
# table emitters


def rows_to_csv(rows: list[TableRow]) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["d", "value", "witness-term", "millis"])
    for r in rows:
        w.writerow([r.d, r.value, r.witness_text(), f"{r.millis:.3f}"])
    return buf.getvalue()


def rows_to_markdown(rows: list[TableRow]) -> str:
    lines = ["| d | value | witness-term | millis |", "| - | - | - | - |"]
    for r in rows:
        lines.append(
            f"| {r.d} | {r.value} | `{r.witness_text()}` | {r.millis:.3f} |"
        )
    return "\n".join(lines) + "\n"
