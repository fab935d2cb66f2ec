"""Layer-to-layer embedding maps, densities, and exact extremal searches.

An embedding map is a template string mixing slot symbols s1..sk with
constant 0/1 characters; applying it to a layer string substitutes the
string's characters into the slots.  Containment, the embedding density
t(X, X'), and the exact extremal numbers ex(layer, X) and ex(cube, X) are
all built on these maps.  Every search here is exact; oversized requests
raise ``SizeGuardError`` instead of approximating.

One search finds the maps of a given shape (slots, constant 0s and 1s)
that send a pattern X into a set (``_embeddings``).  It works on image
codes, two bits per coordinate (0, 1, or 2 at an edge's star), derived
from the patterns' masks.  It fixes a map one target coordinate at a
time, trying tokens in ``enumerate_maps`` order, and grows each pattern
element's image code; a branch ends as soon as one image prefix is the
prefix of no target element.

The search yields one map per orbit of X's automorphisms, not every map.
An automorphism is a permutation of X's slots that maps X onto itself,
and relabelling a map's slots by one keeps the map's image set.  The
group (``_Group``) is found by a backtracking search over coordinates and
is never listed.  The search yields only lex-leaders, the first map of
each orbit in ``enumerate_maps`` order (Crawford, Ginsberg, Luks and Roy,
KR 1996).  ``density_t`` counts the leaders and multiplies by |Aut(X)|.
``contains_pattern`` takes the first leader, which is the first map.
``ex_layer`` and ``ex_cube`` collect the leaders' images, into the layer,
or into the cube after each flip of the pattern's coordinates.  One solve
(``_solve``, a branch and bound) then gives both their value and
lexicographically least witness, over a universe in the canonical string
order; the witness is written as strings only at the end.

``enumerate_maps`` and ``apply_map`` remain the definition of a map, on
strings; ``ex_layer_bruteforce`` is built on them alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import factorial
from typing import TypeVar

from .errors import SizeGuardError
from .patterns import (
    EdgePattern,
    VertexPattern,
    _sorted_elements,
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
# density_t and ex_layer refuse more maps per orbit than this.  Python
# 3.11 on a shared 2-vCPU x86 machine: ex_layer of {111} on L(1,50), with
# 999,600 maps per orbit, takes about 8 s; density of x16 into the full
# L(6,6), with 554,400, takes 2.6 s.
ORBIT_MAPS_LIMIT = 1_000_000
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
    """All embedding maps, in lexicographic order of their tokens, where
    the slots come first, in order, then '0', then '1'."""
    k = a + b + (1 if starred else 0)
    for tokens in _map_tokens(a, b, a2, b2, starred):
        yield EmbeddingMap.derived(tokens, k)


def _map_tokens(a: int, b: int, a2: int, b2: int, starred: bool):
    """The token tuples of ``enumerate_maps``, in its order, with no map
    built."""
    if a > a2 or b > b2:
        raise ValueError("target layer must dominate the source layer")
    k = a + b + (1 if starred else 0)
    tokens = [*range(k), "0", "1"]
    return _token_tuples(tokens, [*range(k)] + [k] * (a2 - a) + [k + 1] * (b2 - b))


def _token_tuples(tokens: list, seq: list[int]):
    """Each distinct arrangement of the ascending token indices ``seq``,
    as a tuple of ``tokens``, in lexicographic order of the indices.  The
    loop keeps no frame per coordinate, so any width runs."""
    last = len(seq) - 1
    while True:
        yield tuple([tokens[i] for i in seq])
        # the next permutation: raise the last ascent by the least larger
        # index after it, then sort the suffix, which is descending
        i = last - 1
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = seq[:i:-1]


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


class _Group(dict):
    """Aut(X) for a pattern X, read from its image codes ``src`` on k
    slots.  Aut(X) is the set of slot permutations that map X onto itself.

    The group is never listed, since L(0,69) has Aut = S_69.  Orbits are
    computed one pointwise stabilizer at a time.  Invariants split the
    free slots into cells, and automorphisms met earlier merge slots
    within a cell.  A transposition test, then a backtracking search over
    coordinates (``_automorphism``), decides each remaining pair.

    ``group[placed]`` is the mask of slots outside ``placed`` that are
    the least of their orbit under the pointwise stabilizer of
    ``placed``.  These are the slots that may fill the next slot position
    of a lex-leader map.
    """

    def __init__(self, src: list[int], k: int):
        super().__init__()
        self.codes = frozenset(src)  # distinct, as the pattern's elements are
        self.columns = [[c >> 2 * t & 3 for c in src] for t in range(k)]
        # automorphisms met so far: the mask of slots each moves, and its slot images
        self.found: list[tuple[int, list[int]]] = []
        self.partitions: dict[int, list[list[int]]] = {}
        self.rigid: list[int] = []  # placed masks whose stabilizer is trivial

    def __missing__(self, placed: int) -> int:
        # a stabilizer inside a trivial one is trivial
        if any(r & placed == r for r in self.rigid):
            least = ((1 << len(self.columns)) - 1) & ~placed
        else:
            least = sum(1 << orbit[0] for orbit in self.orbits(placed))
        self[placed] = least
        return least

    def order(self) -> int:
        """|Aut(X)|, the product over i of the orbit of slot i under the
        stabilizer of slots 0..i-1."""
        # one partition shows a trivial group
        if all(len(orbit) == 1 for orbit in self.orbits(0)):
            return 1
        order = 1
        # deepest stabilizer first: an automorphism found there fixes
        # every shallower prefix too, so it merges orbits there for free
        for i in reversed(range(len(self.columns))):
            order *= next(len(o) for o in self.orbits((1 << i) - 1) if o[0] == i)
        return order

    def orbits(self, placed: int) -> list[list[int]]:
        """The orbits of the pointwise stabilizer of ``placed`` on the
        other slots, each ascending, in the order of their least slots."""
        if placed in self.partitions:
            return self.partitions[placed]
        cols = self.columns
        free = [j for j in range(len(cols)) if not placed >> j & 1]
        # number each element by its characters on ``placed``; an
        # automorphism fixing ``placed`` keeps that number, so a slot's
        # column, read next to it, is an invariant
        parts = list(zip(*(cols[j] for j in range(len(cols)) if placed >> j & 1)))
        ids: dict[tuple, int] = {}
        rows = [ids.setdefault(part, len(ids)) for part in parts] if parts else [0] * len(self.codes)
        cells: dict[tuple, list[int]] = {}
        for u in free:
            cells.setdefault(tuple(sorted(zip(rows, cols[u]))), []).append(u)
        cell_of = {u: cell for cell in cells.values() for u in cell}
        root = {u: u for u in free}

        def find(u: int) -> int:
            while root[u] != u:
                root[u] = root[root[u]]
                u = root[u]
            return u

        def merge(moved: int, sigma: list[int]) -> None:
            while moved:
                u = (moved & -moved).bit_length() - 1
                moved &= moved - 1
                a, b = find(u), find(sigma[u])
                root[max(a, b)] = min(a, b)

        for moved, sigma in self.found:
            if not moved & placed:
                merge(moved, sigma)
        for cell in cells.values():
            for u in cell:
                if find(u) != u:
                    continue
                for r in cell:
                    if r >= u:
                        break
                    if find(r) == r:
                        sigma = self._automorphism(rows, free, cell_of, u, r)
                        if sigma is not None:
                            moved = sum(1 << j for j, e in enumerate(sigma) if e != j)
                            self.found.append((moved, sigma))
                            merge(moved, sigma)
                            break
        by_root: dict[int, list[int]] = {}
        for u in free:
            by_root.setdefault(find(u), []).append(u)
        partition = list(by_root.values())
        if all(len(orbit) == 1 for orbit in partition):
            self.rigid.append(placed)
        self.partitions[placed] = partition
        return partition

    def _automorphism(self, rows, free, cell_of, p: int, q: int) -> list[int] | None:
        """An automorphism that fixes every slot outside ``free`` and sends
        p to q, or None.  ``rows`` numbers each element by its characters
        on the fixed slots.

        The transposition of p and q is tried first.  Otherwise each slot
        d goes to a slot of its own cell, itself first.  After each
        choice, the rows read on the slots chosen so far must form the
        same multiset as the rows read on their images.  Once every slot
        is chosen, that is X mapped onto itself.  The search keeps its own
        stack, since the map search that asks may already be deep.
        """
        cols = self.columns
        sigma = list(range(len(cols)))
        sigma[p], sigma[q] = q, p
        if all(_swap(c, p, q) in self.codes for c in self.codes):
            return sigma
        order = [p] + [u for u in free if u != p]
        ids: dict[tuple, int] = {}
        taken = 0
        chosen: list[int] = []
        options = [iter((q,))]
        left, right = [rows], [rows]
        while options:
            d = order[len(chosen)]
            for e in options[-1]:
                if taken >> e & 1:
                    continue
                keys_d = [ids.setdefault(key, len(ids)) for key in zip(left[-1], cols[d])]
                keys_e = [ids.setdefault(key, len(ids)) for key in zip(right[-1], cols[e])]
                if sorted(keys_d) == sorted(keys_e):
                    break
            else:
                options.pop()
                left.pop()
                right.pop()
                if chosen:
                    taken ^= 1 << chosen.pop()
                continue
            chosen.append(e)
            taken |= 1 << e
            if len(chosen) == len(order):
                for d, e in zip(order, chosen):
                    sigma[d] = e
                return sigma
            left.append(keys_d)
            right.append(keys_e)
            nxt = order[len(chosen)]
            options.append(chain((nxt,), cell_of[nxt]))
        return None


def _swap(c: int, p: int, q: int) -> int:
    """Image code c with the characters of coordinates p and q swapped."""
    diff = (c >> 2 * p ^ c >> 2 * q) & 3
    return c ^ (diff << 2 * p | diff << 2 * q)


def _embeddings(group: _Group, target: list[int], zeros: int, ones: int):
    """Yield ``(tokens, images)`` for the lex-leader maps with
    ``group``'s slots, ``zeros`` constant 0s and ``ones`` constant 1s that
    send each src code into ``target``, in ``enumerate_maps`` order.
    ``target`` holds codes of the map's length.

    Aut(X) acts on maps by relabelling their slots.  Every map in an orbit
    has the same image set, and only the identity fixes a map, so each
    orbit has |Aut(X)| maps.  The leader of an orbit is its first map in
    ``enumerate_maps`` order.  Constants sit at the same positions in
    every map of the orbit, so the slot sequence decides.  A map is a
    leader exactly when each slot in its sequence is the least of its
    orbit under the pointwise stabilizer of the slots before it.

    ``tokens`` is the search's working list, so copy it before resuming.
    ``images`` holds the codes of the src elements' images.
    """
    n = len(group.columns) + zeros + ones
    _check_width(n)
    # prefixes[d]: the target's prefixes of length d; each step checks the
    # next length, and the root check catches an empty target when n = 0
    prefixes = [{c & ((1 << 2 * depth) - 1) for c in target} for depth in range(n + 1)]
    images = [0] * len(group.codes)
    if not prefixes[0].issuperset(images):
        return
    yield from _grow_maps(0, images, [], 0, zeros, ones, prefixes, group)


def _check_width(n: int) -> None:
    if n > MAP_WIDTH_LIMIT:
        raise SizeGuardError(f"target width {n} exceeds the map-search guard {MAP_WIDTH_LIMIT}")


def _grow_maps(
    depth: int, images: list[int], tokens: list, placed: int, zeros: int, ones: int,
    prefixes, group: _Group,
):
    if depth == len(prefixes) - 1:
        yield tokens, images
        return
    shift = 2 * depth
    allowed = prefixes[depth + 1]
    least = group[placed]
    while least:
        bit = least & -least
        least ^= bit
        idx = bit.bit_length() - 1
        new = [p | c << shift for p, c in zip(images, group.columns[idx])]
        if allowed.issuperset(new):
            tokens.append(idx)
            yield from _grow_maps(depth + 1, new, tokens, placed | bit, zeros, ones, prefixes, group)
            tokens.pop()
    if zeros and allowed.issuperset(images):
        tokens.append("0")
        yield from _grow_maps(depth + 1, images, tokens, placed, zeros - 1, ones, prefixes, group)
        tokens.pop()
    if ones:
        new = [p | 1 << shift for p in images]
        if allowed.issuperset(new):
            tokens.append("1")
            yield from _grow_maps(depth + 1, new, tokens, placed, zeros, ones - 1, prefixes, group)
            tokens.pop()


def _first_map(group: _Group, target, zeros, ones) -> tuple[bool, EmbeddingMap | None]:
    """The first map in ``enumerate_maps`` order into ``target``.  It is
    the least map of its orbit, so it is a leader."""
    leaf = next(_embeddings(group, target, zeros, ones), None)
    if leaf is None:
        return (False, None)
    return (True, EmbeddingMap.derived(tuple(leaf[0]), len(group.columns)))


def _layer_params(pat) -> tuple[int, int, bool]:
    return pat.a, pat.b, isinstance(pat, EdgePattern)


def _codes(p) -> list[int]:
    return [_image_code(e) for e in _elements(p)]


def _group(x) -> _Group:
    a, b, starred = _layer_params(x)
    return _Group(_codes(x), a + b + (1 if starred else 0))


def _check_orbit_maps(maps: int) -> None:
    if maps > ORBIT_MAPS_LIMIT:
        raise SizeGuardError(
            f"{maps} embedding maps per orbit exceed the guard {ORBIT_MAPS_LIMIT}"
        )


def density_t(small, big) -> Fraction:
    """Exact fraction of embedding maps sending ``small`` into ``big``.

    Both patterns must be of the same kind, with big's layer dominating
    small's.  Refuses (``SizeGuardError``), before the search, past
    ``ORBIT_MAPS_LIMIT`` maps per orbit of small's automorphisms among the
    maps that send small's first element into big.
    """
    if type(small) is not type(big):
        raise ValueError("patterns must be of the same kind")
    a, b, starred = _layer_params(small)
    a2, b2, _ = _layer_params(big)
    if a > a2 or b > b2:
        raise ValueError("layer mismatch: big must dominate small")
    _check_width(a2 + b2 + (1 if starred else 0))
    group = _group(small)
    order = group.order()
    maps = count_maps(a, b, a2, b2, starred)
    # count_maps / |layer| maps send a given element onto each target
    # string, so these are the maps that take small's first element into big
    reach = maps // layer_size(a2, b2, starred) * len(big) if len(small) else maps
    _check_orbit_maps(reach // order)
    leaders = sum(1 for _ in _embeddings(group, _codes(big), a2 - a, b2 - b))
    return Fraction(leaders * order, maps)


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
    group = _group(x)
    if isinstance(s, (VertexPattern, EdgePattern)):
        if isinstance(s, EdgePattern) != starred:
            raise ValueError("set and pattern kinds differ")
        a2, b2, _ = _layer_params(s)
        if a2 < a or b2 < b:
            return (False, None)
        return _first_map(group, _codes(s), a2 - a, b2 - b)

    pool = frozenset(s)
    if not pool:
        return (not len(x), None)
    lengths = {len(t) for t in pool}
    if len(lengths) != 1:
        raise ValueError("cube-mode set must have strings of uniform length")
    n = lengths.pop()
    elements = [parse_string(t, n, starred) for t in pool]
    weight = [(e[0] if starred else e).bit_count() for e in elements]
    width = n - (1 if starred else 0)
    for a2 in range(a, width - b + 1):
        b2 = width - a2
        layer = [_image_code(e) for e, w in zip(elements, weight) if w == b2]
        found = _first_map(group, layer, a2 - a, b2 - b)
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


_Element = TypeVar("_Element")


def _max_avoiding(universe: list[_Element], masks: list[int]) -> tuple[int, list[_Element]]:
    """Largest subset of the universe containing none of the masks, with
    the lexicographically least witness among the optima.  Bit j of a
    mask is ``universe[j]``, and the witness lists the chosen elements
    themselves, vertex masks or (mask, star) pairs as the layer gives them.

    One branch and bound over the universe in index order, taking each
    element before leaving it out, so leaves come in lexicographic order
    of their sorted index lists and the first optimum met is the least.
    A leaf replaces the best only when strictly larger.  An element is
    blocked once taking it would complete a mask; singleton masks block
    from the start.

    The root takes element 0 and never leaves it out.  This is exact for
    both callers: a group acts transitively on the universe and maps the
    family of masks onto itself.  Coordinate permutations act so on a
    layer or starred layer and its embedding images, and the cube's
    automorphisms on its vertices or edges and its face images.  So if A
    is an optimum and g sends one of its elements to 0, then g(A) is an
    optimum that holds element 0.  The sets that hold element 0 are
    exactly the leaves met before any other, so the first optimum met
    holds element 0 and lies in the subtree kept.  If a singleton mask
    blocks element 0, the group's images of that mask block every
    element, and the answer is the empty set.
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
    best = [0, 0]
    if free & 1:
        left = free ^ 1
        for m in through[0]:
            rest = m ^ 1
            if not rest & (rest - 1):
                left &= ~rest
        _branch(left, 1, 1, through, bound, best)
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
    Refuses (``SizeGuardError``), before listing the layer, past the
    guards of ``_ex_params`` (``EX_LAYER_LIMIT``) or past
    ``ORBIT_MAPS_LIMIT`` maps per orbit of x's automorphisms.
    """
    a, b, starred = _ex_params(a2, b2, x, EX_LAYER_LIMIT)
    group = _group(x)
    _check_orbit_maps(count_maps(a, b, a2, b2, starred) // group.order())
    universe = starred_layer_masks(a2, b2) if starred else layer_masks(a2, b2)
    codes = [_image_code(e) for e in universe]
    images = (frozenset(img) for _, img in _embeddings(group, codes, a2 - a, b2 - b))
    return _solve(universe, codes, images, a2 + b2 + (1 if starred else 0))


# A wider layer is refused for its width alone: its size takes seconds to
# compute at width 400,000 and can have more digits than Python prints
_SIZED_WIDTH = 8192


def _ex_params(a2: int, b2: int, x, layer_limit: int) -> tuple[int, int, bool]:
    """x's (a, b, starred), once x is not empty and L(a2, b2) dominates
    x's layer, with at most ``layer_limit`` strings and ``MAP_WIDTH_LIMIT``
    coordinates: the checks both ``ex_layer`` searches make first."""
    if not len(x):
        raise ValueError("the empty pattern embeds in every set; ex is undefined")
    a, b, starred = _layer_params(x)
    if a > a2 or b > b2:
        raise ValueError("target layer must dominate the pattern's layer")
    width = a2 + b2 + (1 if starred else 0)
    if width <= _SIZED_WIDTH and (layer := layer_size(a2, b2, starred)) > layer_limit:
        raise SizeGuardError(f"layer size {layer} exceeds the exact-search guard {layer_limit}")
    _check_width(width)
    return a, b, starred


def _solve(universe: list, codes: list[int], images, width: int) -> tuple[int, list[str]]:
    """The largest subset of the universe (with image codes ``codes``)
    holding no image set, and its lexicographically least witness as
    strings of ``width``."""
    size, witness = _max_avoiding(universe, _forbidden_masks(codes, images))
    return size, [format_string(e, width) for e in witness]


def ex_layer_bruteforce(a2: int, b2: int, x) -> tuple[int, list[str]]:
    """Plain subset enumeration on strings, every map applied by
    ``apply_map``; validation oracle for ``ex_layer``.  Refuses past the
    guards of ``_ex_params`` (``BRUTEFORCE_LAYER_LIMIT``), before listing."""
    a, b, starred = _ex_params(a2, b2, x, BRUTEFORCE_LAYER_LIMIT)
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
    return _sorted_elements(elements, n, starred)


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
    # exactly where coordinate j is a star, which stays unflipped.  A flip
    # can change the pattern's automorphisms, so each flip has its group.
    groups = [
        _Group([c ^ (flip & ~(c >> 1)) for c in src], d)
        for flip in map(_spread, range(1 << d if d <= n else 0))
    ]
    images = (
        frozenset(img)
        for ones in range(n - d + 1)
        for group in groups
        for _, img in _embeddings(group, codes, n - d - ones, ones)
    )
    return _solve(universe, codes, images, n)
