"""Layer-to-layer embedding maps, densities, and exact extremal searches.

An embedding map is a template string mixing slot symbols s1..sk with
constant 0/1 characters; applying it to a layer string substitutes the
string's characters into the slots.  Containment, the embedding density
t(X, X'), and the exact extremal numbers ex(layer, X) and ex(cube, X) are
all built on these maps.  Every search here is exact; oversized requests
raise ``SizeGuardError`` instead of approximating.

One search finds the maps of a given shape (slots, constant 0s and 1s)
that send a pattern into a set (``_embeddings``).  It works on image
codes, two bits per coordinate (0, 1, or 2 at an edge's star), derived
from the patterns' masks.  It fixes a map one target coordinate at a
time, trying tokens in ``enumerate_maps`` order, and grows each pattern
element's image code; a branch ends as soon as one image prefix is the
prefix of no target element.  ``density_t`` counts its leaves,
``contains_pattern`` takes the first, and ``ex_layer`` and ``ex_cube``
collect the images of every map into the layer, or into the cube after
each flip of the pattern's coordinates.  One solve (``_solve``, a branch
and bound) then gives both their value and lexicographically least
witness, over a universe in the canonical string order; the witness is
written as strings only at the end.  ``enumerate_maps`` and
``apply_map`` remain the definition of a map, on strings;
``ex_layer_bruteforce`` is built on them alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import SizeGuardError
from .patterns import (
    EdgePattern,
    VertexPattern,
    element_key,
    format_string,
    layer_masks,
    layer_size,
    layer_strings,
    parse_string,
    starred_layer_masks,
    starred_layer_strings,
)

__all__ = [
    "EmbeddingMap",
    "count_maps",
    "enumerate_maps",
    "apply_map",
    "density_t",
    "contains_pattern",
    "ex_layer",
    "ex_layer_bruteforce",
    "ex_cube",
]

# The map search recurses once per target coordinate, inside Python's
# default recursion limit of 1000 frames.
MAP_WIDTH_LIMIT = 512
EX_LAYER_LIMIT = 70  # the size of L(4,4)
EX_MAPS_LIMIT = 200_000
BRUTEFORCE_LAYER_LIMIT = 16
EX_CUBE_LIMIT = 4


@dataclass(frozen=True)
class EmbeddingMap:
    """A template: tokens are slot indices (int, 0-based) or '0'/'1'.

    ``EmbeddingMap(tokens, slots)`` is the public boundary and checks
    both; the map searches, whose tokens are valid by construction, call
    ``EmbeddingMap.derived``.
    """

    tokens: tuple
    slots: int

    def __post_init__(self):
        seen = sorted(t for t in self.tokens if isinstance(t, int))
        if seen != list(range(self.slots)):
            raise ValueError("tokens must use each slot exactly once")
        if any(not isinstance(t, int) and t not in ("0", "1") for t in self.tokens):
            raise ValueError("constants must be '0' or '1'")

    @classmethod
    def derived(cls, tokens: tuple, slots: int) -> EmbeddingMap:
        """The map of these tokens, trusted to use each of the ``slots``
        exactly once and otherwise hold '0' and '1': nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "tokens", tokens)
        object.__setattr__(p, "slots", slots)
        return p

    def __str__(self) -> str:
        return " ".join(f"s{t + 1}" if isinstance(t, int) else t for t in self.tokens)


def count_maps(a: int, b: int, a2: int, b2: int, starred: bool = False) -> int:
    """Number of embedding maps from L(a,b) (or L'(a,b)) into the larger layer."""
    if a > a2 or b > b2:
        raise ValueError("target layer must dominate the source layer")
    length = a2 + b2 + (1 if starred else 0)
    return factorial(length) // (factorial(a2 - a) * factorial(b2 - b))


def enumerate_maps(a: int, b: int, a2: int, b2: int, starred: bool = False):
    """All embedding maps, in a fixed deterministic order."""
    k = a + b + (1 if starred else 0)
    for tokens in _map_tokens(a, b, a2, b2, starred):
        yield EmbeddingMap.derived(tokens, k)


def _map_tokens(a: int, b: int, a2: int, b2: int, starred: bool):
    """The token tuples of ``enumerate_maps``, in its order, with no map
    built."""
    if a > a2 or b > b2:
        raise ValueError("target layer must dominate the source layer")
    k = a + b + (1 if starred else 0)
    counts: list[tuple[object, int]] = [(j, 1) for j in range(k)]
    counts.append(("0", a2 - a))
    counts.append(("1", b2 - b))
    return _token_tuples(counts, [], k + (a2 - a) + (b2 - b))


def _token_tuples(counts: list[tuple[object, int]], prefix: list, length: int):
    # The state is in the arguments: a generator closure that calls itself
    # would keep it alive in a reference cycle.
    if len(prefix) == length:
        yield tuple(prefix)
        return
    for idx, (tok, cnt) in enumerate(counts):
        if cnt == 0:
            continue
        counts[idx] = (tok, cnt - 1)
        prefix.append(tok)
        yield from _token_tuples(counts, prefix, length)
        prefix.pop()
        counts[idx] = (tok, cnt)


def apply_map(p: EmbeddingMap, s: str) -> str:
    """Substitute string s into the slots of p; constants pass through."""
    if len(s) != p.slots:
        raise ValueError(f"string length {len(s)} does not match {p.slots} slots")
    return "".join(s[t] if isinstance(t, int) else t for t in p.tokens)


def _spread(m: int) -> int:
    """Bit j of m moved to bit 2j."""
    out = 0
    while m:
        bit = m & -m
        out |= bit * bit
        m ^= bit
    return out


def _image_code(e) -> int:
    """A vertex mask or a (lower mask, star) edge as an image code: two
    bits per coordinate, 0 or 1 for the bit and 2 at the star."""
    if isinstance(e, tuple):
        lower, star = e
        return _spread(lower) | 2 << (2 * star)
    return _spread(e)


def _elements(p) -> frozenset:
    return p.pairs if isinstance(p, EdgePattern) else p.masks


def _embeddings(src: list[int], target: list[int], slots: int, zeros: int, ones: int):
    """Yield ``(tokens, images)`` for every map with ``slots`` slots,
    ``zeros`` constant 0s and ``ones`` constant 1s that sends each src
    code into ``target`` (codes of the map's length), in ``enumerate_maps``
    order.

    ``tokens`` is the search's working list (copy it before resuming) and
    ``images`` holds the codes of the src elements' images.
    """
    n = slots + zeros + ones
    if n > MAP_WIDTH_LIMIT:
        raise SizeGuardError(f"target width {n} exceeds the map-search guard {MAP_WIDTH_LIMIT}")
    # prefixes[d]: the target's prefixes of length d; each step checks the
    # next length, and the root check catches an empty target when n = 0
    prefixes = [{c & ((1 << 2 * depth) - 1) for c in target} for depth in range(n + 1)]
    images = [0] * len(src)
    if not prefixes[0].issuperset(images):
        return
    columns = [[c >> 2 * t & 3 for c in src] for t in range(slots)]
    counts = [1] * slots + [zeros, ones]
    yield from _grow_maps(0, images, [], counts, prefixes, columns)


def _grow_maps(
    depth: int, images: list[int], tokens: list, counts: list[int], prefixes, columns
):
    if depth == len(prefixes) - 1:
        yield tokens, images
        return
    shift = 2 * depth
    allowed = prefixes[depth + 1]
    k = len(columns)
    for idx, left in enumerate(counts):
        if not left:
            continue
        if idx < k:
            new = [p | c << shift for p, c in zip(images, columns[idx])]
            tokens.append(idx)
        else:
            c = idx - k
            new = [p | c << shift for p in images]
            tokens.append("01"[c])
        if allowed.issuperset(new):
            counts[idx] = left - 1
            yield from _grow_maps(depth + 1, new, tokens, counts, prefixes, columns)
            counts[idx] = left
        tokens.pop()


def _first_map(src, target, slots, zeros, ones) -> tuple[bool, EmbeddingMap | None]:
    leaf = next(_embeddings(src, target, slots, zeros, ones), None)
    if leaf is None:
        return (False, None)
    return (True, EmbeddingMap.derived(tuple(leaf[0]), slots))


def _layer_params(pat) -> tuple[int, int, bool]:
    return pat.a, pat.b, isinstance(pat, EdgePattern)


def _shape(x, a2: int, b2: int) -> tuple[int, int, int]:
    """The (slots, zeros, ones) of a map from x's layer into L(a2, b2)."""
    a, b, starred = _layer_params(x)
    return a + b + (1 if starred else 0), a2 - a, b2 - b


def _codes(p) -> list[int]:
    return [_image_code(e) for e in _elements(p)]


def density_t(small, big) -> Fraction:
    """Exact fraction of embedding maps sending ``small`` into ``big``.

    Both patterns must be of the same kind, with big's layer dominating
    small's.
    """
    if type(small) is not type(big):
        raise ValueError("patterns must be of the same kind")
    a, b, starred = _layer_params(small)
    a2, b2, _ = _layer_params(big)
    if a > a2 or b > b2:
        raise ValueError("layer mismatch: big must dominate small")
    good = sum(1 for _ in _embeddings(_codes(small), _codes(big), *_shape(small, a2, b2)))
    return Fraction(good, count_maps(a, b, a2, b2, starred))


def contains_pattern(s, x) -> tuple[bool, EmbeddingMap | None]:
    """Does some embedding map send pattern x into the set s?

    ``s`` may be a VertexPattern/EdgePattern (single-layer mode) or a
    plain set of strings of uniform length (oriented full-cube mode:
    strings of every weight, all layers are tried), which must be 0/1
    strings for a vertex pattern and hold one ``*`` each for an edge
    pattern.  Returns a witness map on success: the first in
    ``enumerate_maps`` order, heaviest target layer first in cube mode.

    Cube mode flips no coordinate: a copy is the image of an embedding
    map into one layer.  ``ex_cube`` counts the wider face embeddings,
    which may flip the pattern's coordinates first.
    """
    a, b, starred = _layer_params(x)
    src = _codes(x)
    if isinstance(s, (VertexPattern, EdgePattern)):
        if isinstance(s, EdgePattern) != starred:
            raise ValueError("set and pattern kinds differ")
        a2, b2, _ = _layer_params(s)
        if a2 < a or b2 < b:
            return (False, None)
        return _first_map(src, _codes(s), *_shape(x, a2, b2))

    pool = frozenset(s)
    if not pool:
        return (not src, None)
    lengths = {len(t) for t in pool}
    if len(lengths) != 1:
        raise ValueError("cube-mode set must have strings of uniform length")
    n = lengths.pop()
    elements = [parse_string(t, n, starred) for t in pool]
    weight = [(e[0] if starred else e).bit_count() for e in elements]
    width = n - (1 if starred else 0)
    for a2 in range(a, width - b + 1):
        b2 = width - a2
        if b2 < b:
            continue
        layer = [_image_code(e) for e, w in zip(elements, weight) if w == b2]
        found = _first_map(src, layer, *_shape(x, a2, b2))
        if found[0]:
            return found
    return (False, None)


# ---------------------------------------------------------------------------
# exact extremal searches


def _forbidden_masks(universe: list, image_sets) -> list[int]:
    index = {s: j for j, s in enumerate(universe)}
    masks = set()
    for img in image_sets:
        m = 0
        for s in img:
            m |= 1 << index[s]
        masks.add(m)
    # drop supersets: hitting a subset hits the superset.  Ties in size go
    # by value, so the list does not depend on the order images arrive in.
    masks = sorted(masks, key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _cover_bound(adj: list[int]):
    """Bound for pair masks: the cliques of a greedy clique cover of the
    free elements' conflict graph (each clique holds at most one pick)."""

    def bound(chosen: int, free: int) -> int:
        cliques = 0
        while free:
            bit = free & -free
            free ^= bit
            common = adj[bit.bit_length() - 1] & free
            while common:
                bit = common & -common
                free ^= bit
                common &= adj[bit.bit_length() - 1]
            cliques += 1
        return cliques

    return bound


def _packing_bound(masks: list[int]):
    """Bound for general masks: the free count minus a greedy packing of
    masks whose untaken elements are free and pairwise disjoint (each
    such mask loses at least one element)."""

    def bound(chosen: int, free: int) -> int:
        used = 0
        packed = 0
        for m in masks:
            rest = m & ~chosen
            if not rest & ~free and not rest & used:
                used |= rest
                packed += 1
        return free.bit_count() - packed

    return bound


def _max_avoiding(universe: list[str], masks: list[int]) -> tuple[int, list[str]]:
    """Largest subset of the universe containing none of the masks, with
    the lexicographically least witness among the optima.

    One branch and bound over the universe in index order, taking each
    element before leaving it out, so leaves come in lexicographic order
    of their sorted index lists and the first optimum met is the least.
    A leaf replaces the best only when strictly larger.  An element is
    blocked once taking it would complete a mask; singleton masks block
    from the start.
    """
    n = len(universe)
    if any(m == 0 for m in masks):
        raise ValueError("an empty forbidden configuration cannot be avoided")
    free = (1 << n) - 1
    wide = []
    for m in masks:
        if m & (m - 1):
            wide.append(m)
        else:
            free &= ~m
    if all(m.bit_count() == 2 for m in wide):
        adj = [0] * n
        for m in wide:
            low = m & -m
            adj[low.bit_length() - 1] |= m ^ low
            adj[(m ^ low).bit_length() - 1] |= low
        bound = _cover_bound(adj)
    else:
        bound = _packing_bound(wide)
    through = [[m for m in wide if m >> j & 1] for j in range(n)]
    best = [-1, 0]
    _branch(free, 0, 0, through, bound, best)
    size, chosen = best
    return size, [universe[j] for j in range(n) if chosen >> j & 1]


def _branch(free: int, chosen: int, size: int, through, bound, best: list[int]) -> None:
    if not free:
        if size > best[0]:
            best[0], best[1] = size, chosen
        return
    if size + bound(chosen, free) <= best[0]:
        return
    bit = free & -free
    take = chosen | bit
    left = free ^ bit
    for m in through[bit.bit_length() - 1]:
        rest = m & ~take
        if not rest & (rest - 1):
            left &= ~rest
    _branch(left, take, size + 1, through, bound, best)
    _branch(free ^ bit, chosen, size, through, bound, best)


def ex_layer(a2: int, b2: int, x) -> tuple[int, list[str]]:
    """Exact extremal number: the largest subset of the (a2, b2) layer
    into which no embedded copy of x fits, plus one witness set.

    The witness is the lexicographically least among maximum witnesses.
    Refuses (``SizeGuardError``), before listing the layer, above
    ``EX_LAYER_LIMIT`` strings or ``EX_MAPS_LIMIT`` maps.
    """
    if not len(x):
        raise ValueError("the empty pattern embeds in every set; ex is undefined")
    a, b, starred = _layer_params(x)
    if a > a2 or b > b2:
        raise ValueError("target layer must dominate the pattern's layer")
    layer = layer_size(a2, b2, starred)
    if layer > EX_LAYER_LIMIT:
        raise SizeGuardError(f"layer size {layer} exceeds the exact-search guard {EX_LAYER_LIMIT}")
    total_maps = count_maps(a, b, a2, b2, starred)
    if total_maps > EX_MAPS_LIMIT:
        raise SizeGuardError(f"{total_maps} embedding maps exceed the guard {EX_MAPS_LIMIT}")
    universe = starred_layer_masks(a2, b2) if starred else layer_masks(a2, b2)
    codes = [_image_code(e) for e in universe]
    images = (frozenset(img) for _, img in _embeddings(_codes(x), codes, *_shape(x, a2, b2)))
    return _solve(universe, codes, images, a2 + b2 + (1 if starred else 0))


def _solve(universe: list, codes: list[int], images, width: int) -> tuple[int, list[str]]:
    """The largest subset of the universe (with image codes ``codes``)
    holding no image set, and its lexicographically least witness as
    strings of ``width``."""
    size, witness = _max_avoiding(universe, _forbidden_masks(codes, images))
    return size, [format_string(e, width) for e in witness]


def ex_layer_bruteforce(a2: int, b2: int, x) -> tuple[int, list[str]]:
    """Plain subset enumeration on strings, every map applied by
    ``apply_map``; validation oracle for ``ex_layer``.  Refuses above
    ``BRUTEFORCE_LAYER_LIMIT`` strings, before listing the layer."""
    if not len(x):
        raise ValueError("the empty pattern embeds in every set; ex is undefined")
    a, b, starred = _layer_params(x)
    if a > a2 or b > b2:
        raise ValueError("target layer must dominate the pattern's layer")
    layer = layer_size(a2, b2, starred)
    if layer > BRUTEFORCE_LAYER_LIMIT:
        raise SizeGuardError(f"layer size {layer} exceeds {BRUTEFORCE_LAYER_LIMIT}")
    universe = starred_layer_strings(a2, b2) if starred else layer_strings(a2, b2)
    src = x.sorted_strings
    images = (
        frozenset(apply_map(p, s) for s in src)
        for p in enumerate_maps(a, b, a2, b2, starred)
    )
    masks = _forbidden_masks(universe, images)
    n = len(universe)
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            m = 0
            for j in combo:
                m |= 1 << j
            if all(f & m != f for f in masks):
                return size, [universe[j] for j in combo]
    raise AssertionError("unreachable: the empty set avoids everything")


def _cube_universe(n: int, starred: bool) -> list:
    """Every vertex mask, or every (lower mask, star) edge, of the n-cube,
    in the canonical string order."""
    if starred:
        elements = [(m, star) for star in range(n) for m in range(1 << n) if not m >> star & 1]
    else:
        elements = range(1 << n)
    return sorted(elements, key=lambda e: element_key(e, n))


def ex_cube(n: int, x) -> tuple[int, list[str]]:
    """Exact extremal number over the whole n-cube: the largest set of
    vertices (or edges, for an EdgePattern) of the n-cube containing no
    face-embedded copy of x, with its lexicographically least witness.

    A face embedding first flips any of the pattern's own coordinates
    (never a star), then applies an embedding map into some layer of the
    n-cube.  This is wider than ``contains_pattern``'s cube mode, which
    flips nothing.  Desk-scale oracle, guarded at n <= ``EX_CUBE_LIMIT``.
    """
    if not len(x):
        raise ValueError("the empty pattern embeds in every set; ex is undefined")
    if n < 0:
        raise ValueError("cube dimension must be nonnegative")
    if n > EX_CUBE_LIMIT:
        raise SizeGuardError(f"cube dimension {n} exceeds the exact-search guard {EX_CUBE_LIMIT}")
    a, b, starred = _layer_params(x)
    d = a + b + (1 if starred else 0)
    universe = _cube_universe(n, starred)
    codes = [_image_code(e) for e in universe]
    src = _codes(x)
    # flipping coordinate j XORs bit 2j of a code; c >> 1 has bit 2j set
    # exactly where coordinate j is a star, which stays unflipped
    images = (
        frozenset(img)
        for ones in range(n - d + 1)
        for flip in map(_spread, range(1 << d))
        for _, img in _embeddings(
            [c ^ (flip & ~(c >> 1)) for c in src], codes, d, n - d - ones, ones
        )
    )
    return _solve(universe, codes, images, n)
