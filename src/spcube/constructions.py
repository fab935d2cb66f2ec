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
Its work grows with its output: each node stops its position loop where
the remaining vectors can no longer complete a basis, and the last two
levels are read off in bulk (the nonzero positions, then the pairs of
unequal nonzero vectors), without a call per leaf.
"""

from __future__ import annotations

from fractions import Fraction

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

# the largest layer, or starred layer, that the f2 sets are listed in
F2_LAYER_LIMIT = 500_000
# the largest layer that ``f2_vertex_count`` searches.  Its search costs
# 0.2-0.9 us a string on layers with as many zeros as ones or more: L(20, 8),
# 3.1 million strings, takes 0.8 s and L(12, 12), 2.7 million, 2.2 s
# (Python 3.11, shared 2-core x86 machine).  A layer with fewer zeros costs
# more a string: L(8, 20), 3.1 million strings, takes 12 s.
F2_COUNT_LIMIT = 2**22


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
    unless it is None.

    Depth-first basis extension in position order, so the masks come out
    in lexicographic order of their 1-positions.  The partial basis is
    kept by Gaussian elimination: every vector still to be tried has the
    basis's pivot bits cleared, so it extends the basis exactly when it is
    nonzero.  This is the only search.  An edge set is psi of the vertex
    set at coordinate 0: (W, s) is admitted when W + {v0} and W + {v_s}
    are bases, and those are the vertex-set elements ``1 | W << 1`` and
    ``(W | 1 << s) << 1``.

    The search is output-sensitive.  A node's position loop stops at the
    last position from which the remaining vectors still have rank
    ``need`` (``_last_start``): beyond it no leaf can be reached.  The
    cutoff is exact, because a nonzero pivot taken at or before it leaves
    vectors of rank at least ``need - 1`` behind it, so every call below
    the root reaches a leaf.  The last two levels run in bulk (``_bulk``),
    with no recursive call and no eliminated row per child: with
    ``need == 1`` the leaves are the nonzero positions, and with
    ``need == 2`` each nonzero pivot pairs with every later position whose
    vector is neither 0 nor the pivot, exactly those that stay nonzero
    once it is eliminated; counting them needs no masks.
    """
    if need == 0:
        if out is not None:
            out.append(0)
        return 1
    return _extend(vectors, 1, need, 0, out)


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
    # ``ones`` the positions taken so far.  State lives in the arguments: a
    # closure that calls itself would keep it alive in a cycle.
    if need < 3:
        return _bulk(row, bit, need, ones, out)
    step = _extend if need > 3 else _bulk
    found = 0
    for i in range(_last_start(row, need) + 1):
        p = row[i]
        if p:
            found += step(_eliminate(row[i + 1:], p), bit << (i + 1), need - 1, ones | bit << i, out)
    return found


def _bulk(row: list[int], bit: int, need: int, ones: int, out: list[int] | None) -> int:
    # The last two levels, with no call and no eliminated row per child.
    # With need == 1 the leaves are the nonzero positions.  With need == 2,
    # position i pairs with every later nonzero j with row[j] != row[i]:
    # exactly those stay nonzero once row[i] is eliminated.
    if out is None:
        n = len(row) - row.count(0)
        if need == 1:
            return n
        # the ordered pairs of nonzero vectors, less those of equal ones
        equal = 0
        for v in set(row):
            if v:
                c = row.count(v)
                equal += c * (c - 1)
        return (n * (n - 1) - equal) // 2
    nonzero = [i for i, x in enumerate(row) if x]
    before = len(out)
    if need == 1:
        out.extend([ones | bit << i for i in nonzero])
    else:
        for k, i in enumerate(nonzero):
            p, here = row[i], ones | bit << i
            out.extend([here | bit << j for j in nonzero[k + 1:] if row[j] != p])
    return len(out) - before


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


def _check_layer(
    a: int, b: int, starred: bool, limit: int = F2_LAYER_LIMIT, task: str = "materialize"
) -> None:
    """The layer checks of an f2 set or count, made before any vector is
    drawn.  A layer has C(a + b, k) >= 2^k strings for k = min(a, b), so
    one with k >= ``limit.bit_length()`` is refused without its size,
    which takes 50 s to compute at a = b = 10^6."""
    if a < 0 or b < 0:
        raise ValueError("layer parameters must be nonnegative")
    if min(a, b) >= limit.bit_length() or layer_size(a, b, starred) > limit:
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
    ``F2_COUNT_LIMIT`` strings, before any vector is drawn."""
    if b < 1:
        raise ValueError("b must be at least 1")
    _check_layer(a, b, False, F2_COUNT_LIMIT, "count")
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
