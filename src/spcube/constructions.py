"""Dense pattern-avoiding layer subsets from GF(2) linear algebra.

Strings are admitted to the set when the random vectors indexed by their
1-positions (plus, for edge sets, a fixed extra vector and the starred
position's vector) form a basis.  Vector sampling is driven by a
counter-based generator keyed by an explicit 64-bit seed, so every
constructed set is reproducible from (a, b, seed) alone.

One depth-first basis-extension search (``_bases``) decides admission:
``f2_vertex_set_from_vectors`` takes the strings at its leaves,
``f2_vertex_count`` counts them, and ``f2_edge_set_from_vectors`` runs it
once per star position with two partial bases, seeded by the extra vector
and by the starred position's vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .errors import SizeGuardError
from .patterns import EdgePattern, VertexPattern

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


def _bases(vectors: list[int], need: int, seeds: list[int], out: list[str] | None) -> int:
    """Count the 0/1 strings over the positions of ``vectors`` with ``need``
    ones whose vectors stay independent when joined with each of the
    ``seeds``; append them to ``out`` unless it is None.

    Depth-first basis extension in position order.  Each partial basis
    (one per seed, or one empty basis) is kept by Gaussian elimination:
    every vector still to be tried has the basis's pivot bits cleared, so
    it extends the basis exactly when it is nonzero.
    """
    n = len(vectors)
    if not all(seeds):
        return 0
    if need == 0:
        if out is not None:
            out.append("0" * n)
        return 1
    rows = [_eliminate(vectors, seed) for seed in seeds] or [list(vectors)]
    return _extend(rows, 1 << (n - 1), need, 0, f"0{n}b", out)


def _eliminate(row: list[int], pivot: int) -> list[int]:
    top = 1 << (pivot.bit_length() - 1)
    return [x ^ pivot if x & top else x for x in row]


def _extend(
    rows: list[list[int]], bit: int, need: int, ones: int, fmt: str, out: list[str] | None
) -> int:
    # ``bit`` marks the first row's position, most significant first, so
    # format(ones, fmt) is the string.  The accumulator is an argument: a
    # closure over it that calls itself would keep it alive in a cycle.
    found = 0
    for i in range(len(rows[0]) - need + 1):
        pivots = [row[i] for row in rows]
        if not all(pivots):
            continue
        here = ones | bit >> i
        if need == 1:
            found += 1
            if out is not None:
                out.append(format(here, fmt))
            continue
        sub = [_eliminate(row[i + 1:], p) for row, p in zip(rows, pivots)]
        found += _extend(sub, bit >> (i + 1), need - 1, here, fmt, out)
    return found


def random_vectors(count: int, dim: int, seed: int) -> list[int]:
    """``count`` uniform vectors in GF(2)^dim from a Philox stream."""
    if dim < 1 or dim > 64:
        raise ValueError("dimension must be between 1 and 64")
    gen = np.random.Generator(np.random.Philox(key=seed))
    words = gen.integers(0, 2**64 - 1, size=count, dtype=np.uint64, endpoint=True)
    mask = (1 << dim) - 1
    return [int(w) & mask for w in words]


def f2_vertex_set_from_vectors(
    a: int, b: int, vectors: list[int], *, max_layer: int = 500_000
) -> VertexPattern:
    """Strings of L(a,b) whose 1-positions index a basis of GF(2)^b."""
    if len(vectors) != a + b:
        raise ValueError(f"need {a + b} vectors, got {len(vectors)}")
    if comb(a + b, b) > max_layer:
        raise SizeGuardError("layer too large to materialize; use f2_vertex_density")
    strings: list[str] = []
    _bases(vectors, b, [], strings)
    return VertexPattern(a, b, frozenset(strings))


def f2_vertex_set(a: int, b: int, seed: int) -> VertexPattern:
    """Seeded basis-selected subset of L(a,b); deterministic given the seed."""
    if b < 1:
        raise ValueError("b must be at least 1")
    return f2_vertex_set_from_vectors(a, b, random_vectors(a + b, b, seed))


def f2_vertex_count(a: int, b: int, seed: int) -> int:
    """|f2_vertex_set(a, b, seed)|, counted by the same search without
    materializing the strings."""
    if b < 1:
        raise ValueError("b must be at least 1")
    return _bases(random_vectors(a + b, b, seed), b, [], None)


def f2_vertex_density(a: int, b: int, seed: int) -> Fraction:
    """Exact density |S| / |L(a,b)| of the seeded construction."""
    return Fraction(f2_vertex_count(a, b, seed), comb(a + b, b))


def f2_edge_set_from_vectors(
    a: int, b: int, vectors: list[int], *, max_layer: int = 500_000
) -> EdgePattern:
    """Starred strings of L'(a,b) admitted when the 1-position vectors
    extend to a basis of GF(2)^(b+1) both by vectors[0] and by the starred
    position's vector.

    ``vectors`` has length a+b+2: one extra leading vector, then one per
    string position.
    """
    n = a + b + 1
    if len(vectors) != n + 1:
        raise ValueError(f"need {n + 1} vectors, got {len(vectors)}")
    if n * comb(n - 1, b) > max_layer:
        raise SizeGuardError("starred layer too large to materialize")
    pos = vectors[1:]
    strings = set()
    for star in range(n):
        # a zero vector never extends a basis, so the star never joins
        rest = pos[:star] + [0] + pos[star + 1:]
        texts: list[str] = []
        _bases(rest, b, [vectors[0], pos[star]], texts)
        strings.update(text[:star] + "*" + text[star + 1:] for text in texts)
    return EdgePattern(a, b, frozenset(strings))


def f2_edge_set(a: int, b: int, seed: int) -> EdgePattern:
    """Seeded basis-selected subset of L'(a,b)."""
    if b < 1:
        raise ValueError("b must be at least 1")
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
