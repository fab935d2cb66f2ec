"""Test oracle for the edge pattern Y, the pattern graph H and psi, by
their definitions on strings.

Y and H take the trees of G/i and of G - i from two separate minors,
and psi forgets a coordinate by string slicing; both pair by string
comparison.  None of this shares code with ``spcube.patterns``' mask
split-and-pair kernel, so the two can check each other.
"""

from __future__ import annotations

from spcube import EdgePattern, Multigraph, PatternGraph, VertexPattern
from spcube.multigraph import contract, delete_edge
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
