"""Exact desk-scale searches: Fibonacci tree maxima and the max-edge table.

Two independent routes compute the edge-count maximum m(d) over marked
2-connected networks with d non-distinguished edges:

* ``method="dp"`` (default): dynamic programming over achievable
  (T, F, |Y|) triples: the network's spanning trees, its 2-forests that
  separate the terminals, and its pattern's edge count.  ``_compose``
  composes two triples in series and in parallel, exactly (a 2-sum glues
  pattern graphs by a product-join, which is what the parallel rule
  computes; the series rule is its dual), so ``spterm._fold`` with
  ``_combine``, one of its two triples, gives any term's triple.  The
  rule is monotone in every coordinate, so dominated triples can be
  pruned without losing maxima.
  Dominated triples are pruned by an O(n log n) staircase sweep that
  reads the triples alone.  Each kept triple holds only its producers,
  the pairs of lower kept triples that compose to it; its witness, the
  canonical term with that term's normalized reversal, is built only
  when a row reads it, memoized per (d, triple), from its parts'
  witnesses with O(1) new nodes, and oriented by the enumeration's rule,
  the smaller of the two keys.  So a table builds the witnesses its rows'
  maxima reach and no others: 42 of the 1,543 kept triples to d = 16.
* ``method="terms"``: literal iteration over all canonical terms,
  counting Hamming-1 pairs between the two tree sets of each marked
  graph.  The sets (the network's spanning trees and its 2-forests that
  separate the terminals) are folded as bitsets by series and parallel
  steps (``spterm.tree_bitsets``), so no graph is built and no tree
  enumerated, and the pairs are counted by shifted ANDs (``_y_size``).

Both routes report the largest value, but their witnesses can differ.
The terms route sees every term, so its witness is the key-least term
of maximum value.  The DP's witness is the key-least among the terms on
its pruned frontier: pruning at smaller d can drop the parts of a
key-smaller optimum (at d = 8 and 9 the terms route's witness is
key-smaller).  The test suite pins both routes to each other and
revalidates every reported witness by recomputing its pattern size from
scratch.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .catalog import fib_chain
from .errors import SizeGuardError
from .multigraph import (
    check_marked_edge,
    graph_to_json,
    spanning_trees,
    tree_count,
)
from .patterns import psi, x_pattern
from .spterm import (
    EDGE,
    SpTerm,
    _census_level,
    _merge_parallel,
    enumerate_connected_sp,
    enumerate_terms,
    format_term,
    series,
    tree_bitsets,
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

EXHAUSTIVE_TREE_LIMIT = 11
WITNESS_CHAIN_LIMIT = 24
M_TABLE_LIMIT = 16
# the terms route visits every canonical term, about 4x more per edge:
# --max-d 11 takes 1.5-1.7 s and 68 MB peak, and --max-d 12 8.7-10.2 s and
# 222 MB, by the hour, most of it for its 366,422 terms (fresh processes,
# median of 3, on a shared 2-core x86 machine; 7 s in a quiet hour).
# Memory, not time, holds the guard
M_TERMS_LIMIT = 12


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
        return graph_to_json(self.witness)


# ---------------------------------------------------------------------------
# Fibonacci spanning-tree maxima


def max_spanning_trees(d: int, mode: str = "exhaustive") -> TableRow:
    """Maximum spanning-tree count over connected series-parallel
    multigraphs with d edges: row d of ``fib_table(d, mode)`` alone, its
    millis timing also the census levels below d not built before.
    ``exhaustive`` is exact (d <= 11); ``witness`` only counts the trees
    of the alternating duplicate/subdivide chain graph (d <= 24)."""
    return _fib_rows(d, mode, d)[0]


def fib_table(d_max: int, mode: str = "exhaustive") -> list[TableRow]:
    """Rows 0..d_max; refuses before any row is computed.  A row's millis
    times that row alone: exhaustive row d builds only census level d,
    from the level that row d - 1 read."""
    return _fib_rows(d_max, mode, 0)


def _fib_rows(d_max: int, mode: str, first: int) -> list[TableRow]:
    """Rows first..d_max of the table to d_max.

    Exhaustive row d is the largest count carried by ``_census_level(d,
    floor_d)``, the classes at d edges with at least floor_d trees, and
    its witness the (n, edges)-least optimal class: bounded levels keep
    the full level's representatives, so that is the first optimum of
    ``enumerate_connected_sp(d)``.  No class is recounted here: only the
    chain's trees are counted.  floor_{d_max} is the count of
    ``fib_chain(d_max)``, which has d_max edges, and floor_d is floor_{d+1}
    halved and rounded up: a class at d + 1 edges grows from one at d
    edges with at least half its trees.  So each floor is at most its
    row's maximum, and level d at floor_d grows from level d - 1 at
    floor_{d-1}: the rows read one chain of levels.  Halving k times,
    each rounded up, is dividing by 2^k once, rounded up.
    """
    _check_fib_guard(d_max, mode)
    last_floor = tree_count(fib_chain(d_max)) if mode == "exhaustive" else None
    rows = []
    for d in range(first, d_max + 1):
        start = time.perf_counter()
        if mode == "exhaustive":
            level = _census_level(d, -(-last_floor >> (d_max - d)))
            witness, value = min(level, key=lambda pair: (-pair[1], pair[0].n, pair[0].edges))
        else:
            witness = fib_chain(d)
            value = len(spanning_trees(witness))
            if value != tree_count(witness):
                raise AssertionError("tree enumeration and tree_count disagree")
        rows.append(TableRow(d, value, witness, _ms(start)))
    return rows


def _check_fib_guard(d: int, mode: str) -> None:
    if d < 0:
        raise ValueError(f"the edge count must be nonnegative, not {d}")
    if mode == "exhaustive":
        if d > EXHAUSTIVE_TREE_LIMIT:
            raise SizeGuardError(
                f"exhaustive census is guarded at {EXHAUSTIVE_TREE_LIMIT} edges"
            )
    elif mode == "witness":
        if d > WITNESS_CHAIN_LIMIT:
            raise SizeGuardError(f"witness chain is guarded at {WITNESS_CHAIN_LIMIT} edges")
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


# ---------------------------------------------------------------------------
# the m(d) table


def _compose(x, y):
    """The (T, F, |Y|) triples of two networks composed in series and in
    parallel, in that order.  (T, F) composes by ``multigraph._count_tf``'s
    rule, whose cross term t1 * f2 + f1 * t2 is the series F and the
    parallel T.  A Hamming-1 pair of the composite is one of a part's
    pairs joined with a tree of the other part in series, or with a
    forest of it in parallel."""
    (t1, f1, y1), (t2, f2, y2) = x, y
    cross = t1 * f2 + f1 * t2
    return (t1 * t2, cross, y1 * t2 + y2 * t1), (cross, f1 * f2, y1 * f2 + y2 * f1)


def _combine(in_series: bool, x, y):
    """``_compose``'s series or parallel triple, the fold signature:
    ``spterm._fold(t, repeat((1, 1, 1)), _combine)`` is the triple of any
    term t."""
    return _compose(x, y)[not in_series]


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


def _dp_frontiers(frontiers: list[dict], d_max: int) -> None:
    """Extend ``frontiers``, which starts as ``[{}]``, through d_max.
    frontiers[d] maps each undominated (|X(G\\e)|, |X(G/e)|, |Y(G,e)|)
    triple of d-edge networks to its producers, (in series or not, d1,
    part, part): a triple of frontier d1 and one of frontier d - d1 that
    compose to it, in the order the pairs are tried.  No term is built
    here: ``_witness`` builds a kept triple's witness when it is read."""
    for d in range(len(frontiers), d_max + 1):
        # the edge is the one 1-edge network and has no producer
        cands: dict[tuple[int, int, int], list] = {(1, 1, 1): []} if d == 1 else {}
        for d1 in range(1, d // 2 + 1):
            others = frontiers[d - d1]
            for x in frontiers[d1]:
                for y in others:
                    in_series, in_parallel = _compose(x, y)
                    cands.setdefault(in_series, []).append((True, d1, x, y))
                    cands.setdefault(in_parallel, []).append((False, d1, x, y))
        frontiers.append(_prune(cands))


def _witness(frontiers: list[dict], built: dict, d: int, trip) -> tuple[SpTerm, SpTerm]:
    """The key-least canonical term among the compositions that produce
    the kept triple ``trip`` of frontier d, with its normalized reversal.
    Memoized in ``built`` per (d, trip); the parts' witnesses are built
    first, through this function, so only the witnesses that a read
    reaches are ever built.

    The parts are flattened and normalized, so a composition n and its
    normalized reversal r take O(1) new nodes each: a series lists the
    parts' reversals in reverse order, and a parallel merges them.
    ``canonical(n)`` is n when ``n.key <= r.key`` and r otherwise: the
    rule the term enumeration keeps its representatives by.  The first
    producer wins among equal keys."""
    best = built.get((d, trip))
    if best is not None:
        return best
    if d == 1:
        best = EDGE, EDGE
    for in_series, d1, x, y in frontiers[d][trip]:
        (n1, r1), (n2, r2) = _witness(frontiers, built, d1, x), _witness(frontiers, built, d - d1, y)
        if in_series:
            n, r = series(n1, n2), series(r2, r1)
        else:
            n, r = _merge_parallel(n1, n2), _merge_parallel(r1, r2)
        if r.key < n.key:
            n, r = r, n
        if best is None or n.key < best[0].key:
            best = n, r
    built[d, trip] = best
    return best


def _best(scored) -> tuple[int, SpTerm]:
    """The largest value, witnessed by the key-least term among the
    scored ones that reach it.  ``scored`` yields (value, term) pairs: all
    canonical terms on the terms route, only the frontier's on the DP
    route (see the module docstring)."""
    best, witness = -1, None
    for value, term in scored:
        if value > best or (value == best and term.key < witness.key):
            best, witness = value, term
    return best, witness


def _y_size(t: SpTerm) -> int:
    """|Y(G, 0)| for t's marked graph (G, 0): the Hamming-1 pairs between
    t's forests (lower) and trees (upper).  Each pair is one edge of the
    pattern, so this is ``len(y_pattern(to_marked_graph(t), 0))``.

    On the bitsets of ``spterm.tree_bitsets``, bit f of
    ``forests & trees >> (1 << j)`` is set when f is a forest and f + 2^j
    a tree.  Then bit j of f is clear: else f + 2^j carries, has at most
    as many edges as f, and is no tree.  So the pairs that climb edge j
    are that AND's popcount, and the shifts need no mask of bit j."""
    trees, forests = tree_bitsets(t)
    # the shifts stop past the largest tree: a tree f + 2^j is at least 2^j
    return sum(
        (forests & trees >> (1 << j)).bit_count()
        for j in range(trees.bit_length().bit_length())
    )


def m_value(d: int, method: str = "dp") -> tuple[int, SpTerm]:
    """m(d): the maximum edge-pattern size over marked 2-connected
    series-parallel graphs with d+1 edges, with a witness term: row d of
    ``m_table(d, method)`` built alone, so with the DP it builds every
    frontier through d."""
    row = _m_rows(d, method, d)[0]
    return row.value, row.witness


def m_table(d_max: int, method: str = "dp") -> list[TableRow]:
    """Rows (d, m(d), witness term, millis) for d = 1..d_max.  Refuses
    before any row is computed.  A row's millis times that row alone:
    with the DP, row d builds only frontier d, from the lower ones, and
    the witnesses it reads that no earlier row built."""
    return _m_rows(d_max, method, 1)


def _m_rows(d_max: int, method: str, first: int) -> list[TableRow]:
    """Rows first..d_max of the table to d_max.  A DP row extends the
    frontiers through d and reads the largest |Y| on frontier d, building
    the witnesses of that |Y|'s triples only (and, once, those of the
    parts they reach); a terms row scores every canonical term with d
    edges."""
    _check_m_guard(d_max, method)
    frontiers: list[dict] = [{}]
    built: dict = {}
    rows = []
    for d in range(first, d_max + 1):
        start = time.perf_counter()
        if method == "dp":
            _dp_frontiers(frontiers, d)
            top = max(e for _, _, e in frontiers[d])
            value, witness = _best(
                (e, _witness(frontiers, built, d, (t, f, e))[0])
                for t, f, e in frontiers[d]
                if e == top
            )
        else:
            value, witness = _best((_y_size(t), t) for t in enumerate_terms(d))
        rows.append(TableRow(d, value, witness, _ms(start)))
    return rows


def _check_m_guard(d: int, method: str) -> None:
    if d < 1:
        raise ValueError("d must be at least 1")
    if method == "dp":
        if d > M_TABLE_LIMIT:
            raise SizeGuardError(f"m table is guarded at d = {M_TABLE_LIMIT}")
    elif method == "terms":
        if d > M_TERMS_LIMIT:
            raise SizeGuardError(f"m table by terms is guarded at d = {M_TERMS_LIMIT}")
    else:
        raise ValueError(f"unknown method {method!r}")


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
        x = x_pattern(g)
        for i in range(g.e):
            try:
                check_marked_edge(g, i)
            except ValueError:
                continue  # a loop or a bridge
            best = max(best, len(psi(x, i)))
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
