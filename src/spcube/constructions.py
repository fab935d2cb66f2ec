"""Dense pattern-avoiding layer subsets from GF(2) linear algebra.

A vertex of the layer is admitted to the set when the random vectors
indexed by its 1-positions (plus, for an edge, a fixed extra vector and
the star position's vector) form a basis.  Vector sampling is driven by a
counter-based generator keyed by an explicit seed, an integer with
0 <= seed < 2**128, so every constructed set is reproducible from
(a, b, seed) alone.

The generator is Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC'11),
in pure Python.  The key is (seed mod 2**64, seed >> 64); the 256-bit
counter starts at 1 and goes up by one per block; each block of ten
rounds yields the four words (c0, c1, c2, c3) in that order; and the
i-th vector is the i-th word masked to its low ``dim`` bits.  This is
the standard Philox4x64-10 stream that earlier versions drew through a
compiled library, so every seeded set is unchanged.

One depth-first basis-extension search (``_bases``) decides admission:
``f2_vertex_set_from_vectors`` takes the position masks at its leaves and
``f2_vertex_count`` counts them.  An edge set is psi of a vertex set at
coordinate 0, as Y(G, e) = psi(X(G), e) for tree patterns.  The edge rule
admits (W, s) of L'(a, b) when W + {v0} and W + {v_s} are both bases of
GF(2)^(b+1); those are the elements ``1 | W << 1`` and
``(W | 1 << s) << 1`` of the vertex set of L(a+1, b+1) built from the same
list (v0 first, then one vector per position), exactly the Hamming-1
pairs that psi joins across coordinate 0.  So
``f2_edge_set_from_vectors`` runs the one search once and applies psi.
It runs on the smaller side of the layer, min(a, b) levels deep: when
b > a it takes the complements of the bases of the dual matroid, a
positions at a time.  Its work grows with its output: each node stops its
position loop where the remaining vectors can no longer complete a basis,
and the last four levels are read off by residual value (the positions
grouped by their eliminated vectors, and the products of the groups whose
values are independent), without a call per leaf.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import prod

from .errors import SizeGuardError
from .patterns import EdgePattern, VertexPattern, layer_size, psi

__all__ = [
    "gf2_rank",
    "random_vectors",
    "f2_vertex_set",
    "f2_vertex_set_from_vectors",
    "f2_vertex_count",
    "f2_vertex_density",
    "f2_edge_set",
    "f2_edge_set_from_vectors",
    "density_lower_bound",
]

# the most characters, strings x width, of a layer or starred layer that
# the f2 sets are listed in.  The listing's memory grows with them: under
# the limit the CLI peaked at 85 MB, on L(12, 11) (31 million characters,
# 0.4 s), and at 48-72 MB on the widest layers for b = 1 to 6, from
# L(5791, 1) to L(26, 6) (Python 3.11, shared 2-core x86 machine).
F2_LAYER_LIMIT = 2**25
# the largest layer that ``f2_vertex_count`` searches.  The search is
# min(a, b) levels deep, so the square layers cost the most a string:
# L(13, 13), 10.4 million strings, takes 1.8 s, L(14, 12) 1.35 s and
# L(16, 11) 1.2 s, against 0.3 s for L(25, 8), 0.04 s for L(6, 40) and
# 0.01 s for L(5791, 2) (same machine).
F2_COUNT_LIMIT = 2**24
# the largest a + b that an f2 set or count draws vectors for.  The
# pure-Python draw takes about 1 us a vector, and on L(a, 1) it is nearly
# all the work: L(2^18 - 1, 1) is counted in 0.27 s, while the count limit
# alone would let L(2^24 - 2, 1) draw for about 17 s and hold 0.7 GB.
F2_DRAW_LIMIT = 2**18


def gf2_rank(vectors: list[int]) -> int:
    """Rank over GF(2) of bit-vectors packed into ints."""
    basis: dict[int, int] = {}
    rank = 0
    for v in vectors:
        v = _reduce(v, basis)
        if v:
            basis[v.bit_length() - 1] = v
            rank += 1
    return rank


def _reduce(v: int, basis: dict[int, int]) -> int:
    while v:
        h = v.bit_length() - 1
        if h not in basis:
            return v
        v ^= basis[h]
    return 0


def _bases(vectors: list[int], need: int, out: list[int] | None) -> int:
    """Count the position masks (bit i = position i of ``vectors``) with
    ``need`` bits whose vectors are independent; append them to ``out``
    unless it is None, in no particular order.

    One depth-first basis-extension search, run on the smaller side of the
    layer.  When ``need`` is more than half the positions and the vectors
    have rank exactly ``need``, a ``need``-set is a basis exactly when its
    complement is a basis of the dual matroid (Whitney 1935; Oxley,
    *Matroid Theory*, section 2.2), so the search takes the complements
    among the ``_dual`` vectors, ``len(vectors) - need`` at a time.  A
    rank below ``need`` leaves nothing to find, and a rank above it (a
    dimension above ``need``) keeps the primal side.  Ties stay primal.

    The partial basis is kept by Gaussian elimination: every vector still
    to be tried has the basis's pivot bits cleared, so it extends the
    basis exactly when it is nonzero.  An edge set is psi of the vertex
    set at coordinate 0: (W, s) is admitted when W + {v0} and W + {v_s}
    are bases, and those are the vertex-set elements ``1 | W << 1`` and
    ``(W | 1 << s) << 1``.

    The search is output-sensitive.  A node's position loop stops at the
    last position from which the remaining vectors still have rank
    ``need`` (``_last_start``): beyond it no leaf can be reached.  The
    cutoff is exact, because a nonzero pivot taken at or before it leaves
    vectors of rank at least ``need - 1`` behind it, so every call below
    the root reaches a leaf.  The last four levels are read off by
    residual value (``_tail``), with no recursive call and no eliminated
    row per child.
    """
    n = len(vectors)
    if 2 * need > n:
        dual = _dual(vectors, need)
        if dual is not None:
            # complements: a mask starts full and each position taken
            # clears its bit, as it sets it from 0 on the primal side
            return _extend(dual, 1, n - need, (1 << n) - 1, out)
    return _extend(vectors, 1, need, 0, out)


def _dual(vectors: list[int], need: int) -> list[int] | None:
    """One vector per position, representing the dual of the vectors'
    matroid, or None unless the vectors have rank ``need``.

    Elimination in position order records, for each position whose vector
    depends on earlier ones, the combination of positions that sums to 0.
    Those combinations are a basis of the null space of x -> sum x_j v_j,
    and position j's dual vector has bit r set when combination r holds j.
    """
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, positions)
    null: list[int] = []
    for j, v in enumerate(vectors):
        combo = 1 << j
        while v:
            h = v.bit_length() - 1
            if h not in basis:
                basis[h] = (v, combo)
                break
            pivot, positions = basis[h]
            v ^= pivot
            combo ^= positions
        else:
            null.append(combo)
    if len(basis) != need:
        return None
    return [sum((c >> j & 1) << r for r, c in enumerate(null)) for j in range(len(vectors))]


def _eliminate(row: list[int], pivot: int) -> list[int]:
    top = 1 << (pivot.bit_length() - 1)
    return [x ^ pivot if x & top else x for x in row]


def _last_start(row: list[int], need: int) -> int:
    """The last position i with rank(row[i:]) >= need, or -1."""
    basis: dict[int, int] = {}
    for i in range(len(row) - 1, -1, -1):
        x = _reduce(row[i], basis)
        if x:
            basis[x.bit_length() - 1] = x
            if len(basis) == need:
                return i
    return -1


def _extend(row: list[int], bit: int, need: int, ones: int, out: list[int] | None) -> int:
    # One partial basis.  ``bit`` is row[0]'s position as a mask bit, and
    # ``ones`` the mask so far: each position taken flips its bit.  State
    # lives in the arguments: a closure that calls itself would keep it
    # alive in a cycle.
    if need < 5:
        return _tail(row, bit, need, ones, out)
    step = _extend if need > 5 else _tail
    found = 0
    for i in range(_last_start(row, need) + 1):
        p = row[i]
        if p:
            found += step(_eliminate(row[i + 1:], p), bit << (i + 1), need - 1, ones ^ bit << i, out)
    return found


def _tail(row: list[int], bit: int, need: int, ones: int, out: list[int] | None) -> int:
    # The last four levels at once, with no call and no eliminated row per
    # child.  The nonzero residuals are grouped by value, and a leaf takes
    # one position from each group of an independent set of ``need`` values
    # (``_independent``).  A count sums the products of the group sizes; a
    # listing takes the products of the groups.
    if need == 0:
        if out is not None:
            out.append(ones)
        return 1
    if out is None:
        sizes: dict[int, int] = {}
        for x in row:
            if x:
                sizes[x] = sizes.get(x, 0) + 1
        w = list(sizes.values())
        if need == 1:
            return sum(w)
        picks = _independent(list(sizes), need)
        if need == 2:
            return sum([w[i] * w[j] for i, j in picks])
        if need == 3:
            return sum([w[i] * w[j] * w[k] for i, j, k in picks])
        return sum([w[i] * w[j] * w[k] * w[l] for i, j, k, l in picks])
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(row):
        if x:
            groups.setdefault(x, []).append(bit << i)
    g = list(groups.values())
    picks = _independent(list(groups), need)
    before = len(out)
    if need == 1:
        out += [ones ^ p for (i,) in picks for p in g[i]]
    elif need == 2:
        out += [ones ^ p ^ q for i, j in picks for p in g[i] for q in g[j]]
    elif need == 3:
        out += [ones ^ p ^ q ^ r for i, j, k in picks for p in g[i] for q in g[j] for r in g[k]]
    else:
        out += [
            ones ^ p ^ q ^ r ^ s
            for i, j, k, l in picks for p in g[i] for q in g[j] for r in g[k] for s in g[l]
        ]
    return len(out) - before


def _independent(v: list[int], need: int) -> list[tuple[int, ...]]:
    """The index tuples i < j < ... of the ``need``-sets of ``v``, distinct
    nonzero vectors, that are independent, for ``need`` <= 4.

    Distinct nonzero values u, w always are; a third x joins them unless
    x == u ^ w, and a fourth y joins those three unless y == u ^ w or x ^ y
    is u, w or u ^ w.  The index bounds skip the prefixes with too few
    values left.
    """
    m = len(v)
    if need < 3:
        return list(combinations(range(m), need))
    if need == 3:
        return [
            (i, j, k)
            for i in range(m - 2) for j in range(i + 1, m - 1) for uw in (v[i] ^ v[j],)
            for k in range(j + 1, m) if v[k] != uw
        ]
    return [
        (i, j, k, l)
        for i in range(m - 3) for j in range(i + 1, m - 2) for uw in (v[i] ^ v[j],)
        for k in range(j + 1, m - 1) if v[k] != uw
        for l in range(k + 1, m) if v[l] != uw and v[k] ^ v[l] not in (v[i], v[j], uw)
    ]


def random_vectors(count: int, dim: int, seed: int) -> list[int]:
    """``count`` uniform vectors in GF(2)^dim from a Philox stream keyed by
    ``seed``, an integer with 0 <= seed < 2**128."""
    if dim < 1 or dim > 64:
        raise ValueError("dimension must be between 1 and 64")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be between 0 and 2**128 - 1, got {seed}")
    mask = (1 << dim) - 1
    return [w & mask for w in _philox_words(count, seed)]


_M64 = (1 << 64) - 1


def _philox_words(count: int, seed: int) -> list[int]:
    """The first ``count`` 64-bit words of the Philox4x64-10 stream keyed
    by ``seed``, as the module docstring defines it."""
    key0, key1 = seed & _M64, seed >> 64
    words: list[int] = []
    counter = 0
    while len(words) < count:
        counter += 1
        c0, c1 = counter & _M64, counter >> 64 & _M64
        c2, c3 = counter >> 128 & _M64, counter >> 192
        k0, k1 = key0, key1
        for _ in range(10):
            p = c0 * 0xD2E7470EE14C6C93  # 128-bit products: high and low words
            q = c2 * 0xCA5A826395121157
            c0, c1, c2, c3 = q >> 64 ^ c1 ^ k0, q & _M64, p >> 64 ^ c3 ^ k1, p & _M64
            k0 = k0 + 0x9E3779B97F4A7C15 & _M64
            k1 = k1 + 0xBB67AE8584CAA73B & _M64
        words += (c0, c1, c2, c3)
    del words[count:]
    return words


def _check_layer(a: int, b: int, starred: bool, count: bool = False) -> None:
    """The layer checks of an f2 set, or with ``count`` of an f2 count,
    made before any vector is drawn.  A listing is refused above
    ``F2_LAYER_LIMIT`` characters, a count above ``F2_COUNT_LIMIT``
    strings, and both when a + b is above ``F2_DRAW_LIMIT``.  A layer has
    C(a + b, k) >= 2^k strings for k = min(a, b), so one with k >=
    ``limit.bit_length()`` is refused without its size, which takes 50 s
    to compute at a = b = 10^6."""
    if a < 0 or b < 0:
        raise ValueError("layer parameters must be nonnegative")
    limit, width = (F2_COUNT_LIMIT, 1) if count else (F2_LAYER_LIMIT, a + b + starred)
    if (
        a + b > F2_DRAW_LIMIT
        or min(a, b) >= limit.bit_length()
        or layer_size(a, b, starred) * width > limit
    ):
        task = "count" if count else "materialize"
        raise SizeGuardError(f"{'starred layer' if starred else 'layer'} too large to {task}")


def f2_vertex_set_from_vectors(a: int, b: int, vectors: list[int]) -> VertexPattern:
    """Strings of L(a,b) whose 1-positions index a basis of GF(2)^b."""
    if len(vectors) != a + b:
        raise ValueError(f"need {a + b} vectors, got {len(vectors)}")
    _check_layer(a, b, False)
    masks: list[int] = []
    _bases(vectors, b, masks)
    return VertexPattern.from_masks(a, b, masks)


def f2_vertex_set(a: int, b: int, seed: int) -> VertexPattern:
    """Seeded basis-selected subset of L(a,b); deterministic given the seed."""
    if b < 1:
        raise ValueError("b must be at least 1")
    _check_layer(a, b, False)
    return f2_vertex_set_from_vectors(a, b, random_vectors(a + b, b, seed))


def f2_vertex_count(a: int, b: int, seed: int) -> int:
    """|f2_vertex_set(a, b, seed)|, counted by the same search without
    materializing the set.  Refuses (``SizeGuardError``) above
    ``F2_COUNT_LIMIT`` strings, or when a + b is above ``F2_DRAW_LIMIT``,
    before any vector is drawn."""
    if b < 1:
        raise ValueError("b must be at least 1")
    _check_layer(a, b, False, count=True)
    return _bases(random_vectors(a + b, b, seed), b, None)


def f2_vertex_density(a: int, b: int, seed: int) -> Fraction:
    """Exact density |S| / |L(a,b)| of the seeded construction."""
    return Fraction(f2_vertex_count(a, b, seed), layer_size(a, b))


def f2_edge_set_from_vectors(a: int, b: int, vectors: list[int]) -> EdgePattern:
    """Edges of L'(a,b) admitted when the 1-position vectors
    extend to a basis of GF(2)^(b+1) both by vectors[0] and by the starred
    position's vector.

    ``vectors`` has length a+b+2: one extra leading vector, then one per
    string position.  The set is psi at coordinate 0 of the vertex set of
    L(a+1, b+1) that the same list selects, built by one search.
    """
    n = a + b + 1
    if len(vectors) != n + 1:
        raise ValueError(f"need {n + 1} vectors, got {len(vectors)}")
    _check_layer(a, b, True)
    masks: list[int] = []
    _bases(vectors, b + 1, masks)
    return psi(VertexPattern.from_masks(a + 1, b + 1, masks), 0)


def f2_edge_set(a: int, b: int, seed: int) -> EdgePattern:
    """Seeded basis-selected subset of L'(a,b)."""
    if b < 1:
        raise ValueError("b must be at least 1")
    _check_layer(a, b, True)
    return f2_edge_set_from_vectors(a, b, random_vectors(a + b + 2, b + 1, seed))


def density_lower_bound(b: int) -> Fraction:
    """Probability that b uniform vectors in GF(2)^b form a basis:
    the product of (1 - 2^-i) for i = 1..b.  Decreasing in b, always
    above 0.2887."""
    if b < 1:
        raise ValueError("b must be at least 1")
    out = Fraction(1)
    for i in range(1, b + 1):
        out *= 1 - Fraction(1, 2**i)
    return out
