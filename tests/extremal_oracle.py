"""Map-by-map and n+1-solve reference routes for the extremal searches.

``spcube.embeddings`` answers density, containment and ex with one pruned
map search and one branch and bound.  These are the plain routes they
replaced: every map from ``enumerate_maps`` applied string by string with
``apply_map``, face embeddings of the cube built character by character,
and a minimum hitting-set search run once for the value and once more per
universe element to grow the lexicographically least witness.  Everything
here works on strings, so it shares no code with the mask kernels.  The
tests require identical answers and witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from spcube.embeddings import EmbeddingMap, apply_map, enumerate_maps
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
    target = big.strings
    good = total = 0
    for p in enumerate_maps(a, b, a2, b2, starred):
        total += 1
        good += _inside(p, src, target)
    return Fraction(good, total)


def contains_by_maps(s, x) -> tuple[bool, EmbeddingMap | None]:
    a, b, starred = _params(x)
    src = sorted(x.strings, key=sort_key)
    if isinstance(s, (VertexPattern, EdgePattern)):
        a2, b2, _ = _params(s)
        if a2 < a or b2 < b:
            return (False, None)
        target = s.strings
        for p in enumerate_maps(a, b, a2, b2, starred):
            if _inside(p, src, target):
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


def cube_vertex_universe(n: int) -> list[str]:
    return sorted(("".join(bits) for bits in product("01", repeat=n)), key=sort_key)


def cube_edge_universe(n: int) -> list[str]:
    out = []
    for star in range(n):
        for bits in product("01", repeat=n - 1):
            out.append("".join(bits[:star]) + "*" + "".join(bits[star:]))
    return sorted(out, key=sort_key)


def cube_images(n: int, x) -> set[frozenset[str]]:
    """Images of pattern x under every face embedding: ordered coordinate
    injections, per-coordinate flips, constants elsewhere."""
    a, b, starred = _params(x)
    d = a + b + (1 if starred else 0)
    src = sorted(x.strings, key=sort_key)
    images: set[frozenset[str]] = set()
    if d > n:
        return images
    flip = {"0": "1", "1": "0", "*": "*"}
    for positions in permutations(range(n), d):
        for flips in product((False, True), repeat=d):
            for consts in product("01", repeat=n - d):
                img = []
                for s in src:
                    out = [""] * n
                    for j, pos in enumerate(positions):
                        out[pos] = flip[s[j]] if flips[j] else s[j]
                    it = iter(consts)
                    for pos in range(n):
                        if pos not in positions:
                            out[pos] = next(it)
                    img.append("".join(out))
                images.add(frozenset(img))
    return images


def cube_masks(n: int, x) -> tuple[list[str], list[int]]:
    """The n-cube's vertices (or edges) and the masks of x's face images."""
    starred = isinstance(x, EdgePattern)
    universe = cube_edge_universe(n) if starred else cube_vertex_universe(n)
    return universe, _masks(universe, cube_images(n, x))


def max_avoiding_by_ilp(universe: list, masks: list[int]) -> int:
    """The size of the largest avoiding set, as a 0/1 integer program
    solved by scipy's ``milp``: maximize the sum of x over the universe
    subject to sum(x_j for j in m) <= |m| - 1 for every mask m.  Needs
    scipy, which spcube never imports."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    width = len(universe)
    rows = np.array([[m >> j & 1 for j in range(width)] for m in masks])
    result = milp(
        -np.ones(width),
        constraints=LinearConstraint(rows, -np.inf, rows.sum(axis=1) - 1),
        integrality=np.ones(width),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise AssertionError(f"milp failed: {result.message}")
    return round(-result.fun)


def ex_cube_by_hitting_sets(n: int, x) -> tuple[int, list[str]]:
    universe, masks = cube_masks(n, x)
    if not masks:
        return len(universe), universe
    return max_avoiding_by_hitting_sets(universe, masks)
