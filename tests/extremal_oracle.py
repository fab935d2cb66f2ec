"""Map-by-map and n+1-solve reference routes for the extremal searches.

``spcube.embeddings`` answers density, containment and ex with one pruned
map search and one branch and bound.  These are the plain routes they
replaced: every map from ``enumerate_maps`` applied string by string with
``apply_map``, and a minimum hitting-set search run once for the value and
once more per universe element to grow the lexicographically least
witness.  The tests require identical answers and witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from spcube.embeddings import (
    EmbeddingMap,
    _cube_edge_universe,
    _cube_images,
    _cube_vertex_universe,
    apply_map,
    enumerate_maps,
)
from spcube.patterns import (
    EdgePattern,
    VertexPattern,
    layer_strings,
    sort_key,
    starred_layer_strings,
)


def _params(pat) -> tuple[int, int, bool]:
    return pat.a, pat.b, isinstance(pat, EdgePattern)


def _inside(p: EmbeddingMap, strings, target) -> bool:
    return all(apply_map(p, s) in target for s in strings)


def density_by_maps(small, big) -> Fraction:
    a, b, starred = _params(small)
    a2, b2, _ = _params(big)
    src = sorted(small.strings, key=sort_key)
    good = total = 0
    for p in enumerate_maps(a, b, a2, b2, starred):
        total += 1
        good += _inside(p, src, big.strings)
    return Fraction(good, total)


def contains_by_maps(s, x) -> tuple[bool, EmbeddingMap | None]:
    a, b, starred = _params(x)
    src = sorted(x.strings, key=sort_key)
    if isinstance(s, (VertexPattern, EdgePattern)):
        a2, b2, _ = _params(s)
        if a2 < a or b2 < b:
            return (False, None)
        for p in enumerate_maps(a, b, a2, b2, starred):
            if _inside(p, src, s.strings):
                return (True, p)
        return (False, None)
    pool = frozenset(s)
    if not pool:
        return (not src, None)
    n = len(next(iter(pool)))
    width = n - (1 if starred else 0)
    for a2 in range(a, width - b + 1):
        b2 = width - a2
        if b2 < b:
            continue
        for p in enumerate_maps(a, b, a2, b2, starred):
            if _inside(p, src, pool):
                return (True, p)
    return (False, None)


def min_hit(sets: list[int], banned: int) -> int | None:
    """Minimum size of a set of elements meeting every mask, using no
    banned elements; None if impossible."""
    best: list[int | None] = [None]

    def lb(live: list[int]) -> int | None:
        count = 0
        used = 0
        for m in live:
            allowed = m & ~banned
            if not allowed:
                return None
            if not (allowed & used):
                count += 1
                used |= allowed
        return count

    def rec(hit: int, size: int) -> None:
        live = [m for m in sets if not (m & hit)]
        if not live:
            if best[0] is None or size < best[0]:
                best[0] = size
            return
        bound = lb(live)
        if bound is None:
            return
        if best[0] is not None and size + bound >= best[0]:
            return
        target = min(live, key=lambda m: bin(m & ~banned).count("1"))
        opts = target & ~banned
        while opts:
            bit = opts & -opts
            opts ^= bit
            rec(hit | bit, size + 1)

    rec(0, 0)
    return best[0]


def max_avoiding_by_hitting_sets(universe: list, masks: list[int]) -> tuple[int, list]:
    """The value from one minimum hitting set, then the lexicographically
    least witness grown greedily, one more hitting-set solve per element."""
    n = len(universe)
    h = min_hit(masks, banned=0)
    size = n - h
    chosen = 0
    picked = []
    for j in range(n):
        if len(picked) == size:
            break
        cand = chosen | (1 << j)
        rest = min_hit(masks, banned=cand)
        if rest is not None and rest <= n - size:
            chosen = cand
            picked.append(universe[j])
    return size, picked


def _masks(universe: list, image_sets) -> list[int]:
    index = {s: j for j, s in enumerate(universe)}
    return list({sum(1 << index[s] for s in img) for img in image_sets})


def ex_layer_by_hitting_sets(a2: int, b2: int, x) -> tuple[int, list[str]]:
    a, b, starred = _params(x)
    universe = starred_layer_strings(a2, b2) if starred else layer_strings(a2, b2)
    src = sorted(x.strings, key=sort_key)
    images = (
        frozenset(apply_map(p, s) for s in src) for p in enumerate_maps(a, b, a2, b2, starred)
    )
    return max_avoiding_by_hitting_sets(universe, _masks(universe, images))


def ex_cube_by_hitting_sets(n: int, x) -> tuple[int, list[str]]:
    starred = isinstance(x, EdgePattern)
    universe = _cube_edge_universe(n) if starred else _cube_vertex_universe(n)
    return max_avoiding_by_hitting_sets(universe, _masks(universe, _cube_images(n, x)))
