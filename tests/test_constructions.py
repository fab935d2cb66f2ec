import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from spcube import (
    VertexPattern,
    contains_pattern,
    density_lower_bound,
    f2_edge_set,
    f2_edge_set_from_vectors,
    f2_vertex_count,
    f2_vertex_density,
    f2_vertex_set,
    f2_vertex_set_from_vectors,
    gf2_rank,
    layer_strings,
)
from spcube.constructions import random_vectors
from spcube.verify import (
    check_f2_avoidance,
    check_f2_b2_extraction,
    check_f2_density,
)


def _vertex_by_ranks(a: int, b: int, vectors: list[int]) -> frozenset[str]:
    """One gf2_rank call per b-subset of positions."""
    n = a + b
    return frozenset(
        "".join("1" if j in ones else "0" for j in range(n))
        for ones in combinations(range(n), b)
        if gf2_rank([vectors[j] for j in ones]) == b
    )


def _edge_by_ranks(a: int, b: int, vectors: list[int]) -> frozenset[str]:
    n = a + b + 1
    v0, pos = vectors[0], vectors[1:]
    out = set()
    for star in range(n):
        for ones in combinations([j for j in range(n) if j != star], b):
            chosen = [pos[j] for j in ones]
            if gf2_rank(chosen + [v0]) == b + 1 and gf2_rank(chosen + [pos[star]]) == b + 1:
                out.add(
                    "".join("*" if j == star else "1" if j in ones else "0" for j in range(n))
                )
    return frozenset(out)


def _vectors(rng: random.Random, count: int, dim: int) -> list[int]:
    # zero vectors included on purpose: they never join a basis
    return [0 if rng.random() < 0.2 else rng.randrange(1 << dim) for _ in range(count)]


class TestAgainstSubsetRanks:
    """The basis-extension search against a rank computation per subset."""

    def test_vertex_sets(self):
        rng = random.Random(31)
        for _ in range(150):
            a, b = rng.randint(0, 5), rng.randint(0, 5)
            vectors = _vectors(rng, a + b, max(b, 1))
            got = f2_vertex_set_from_vectors(a, b, vectors)
            assert got.strings == _vertex_by_ranks(a, b, vectors)

    def test_edge_sets(self):
        rng = random.Random(32)
        for _ in range(150):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            vectors = _vectors(rng, a + b + 2, b + 1)
            got = f2_edge_set_from_vectors(a, b, vectors)
            assert got.strings == _edge_by_ranks(a, b, vectors)

    def test_counts_and_seeded_sets(self):
        for a, b, seed in [(3, 3, 0), (4, 4, 1), (5, 3, 2), (2, 6, 3), (6, 5, 4)]:
            want = _vertex_by_ranks(a, b, random_vectors(a + b, b, seed))
            assert f2_vertex_set(a, b, seed).strings == want
            assert f2_vertex_count(a, b, seed) == len(want)
        for a, b, seed in [(2, 2, 0), (3, 3, 1), (4, 3, 5)]:
            want = _edge_by_ranks(a, b, random_vectors(a + b + 2, b + 1, seed))
            assert f2_edge_set(a, b, seed).strings == want


class TestRank:
    def test_basics(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([0b1, 0b10, 0b11]) == 2
        assert gf2_rank([0b101, 0b011, 0b110]) == 2
        assert gf2_rank([1, 2, 4, 8]) == 4


class TestVertexSet:
    def test_dimension_one_all_ones(self):
        s = f2_vertex_set_from_vectors(3, 1, [1, 1, 1, 1])
        assert s.strings == frozenset(layer_strings(3, 1))

    def test_forced_vectors(self):
        s = f2_vertex_set_from_vectors(2, 2, [0b01, 0b10, 0b01, 0b10])
        assert s.strings == {"1100", "1001", "0110", "0011"}

    def test_zero_vectors_empty(self):
        s = f2_vertex_set_from_vectors(2, 2, [0, 0, 0, 0])
        assert s.strings == frozenset()

    def test_seeded_reproducible(self):
        assert f2_vertex_set(4, 4, 7) == f2_vertex_set(4, 4, 7)
        assert f2_vertex_set(4, 4, 7) != f2_vertex_set(4, 4, 8) or True
        # different seeds are allowed to collide, but the generator state
        # must not leak between calls
        a = f2_vertex_set(4, 3, 1)
        b = f2_vertex_set(4, 3, 2)
        assert f2_vertex_set(4, 3, 1) == a and f2_vertex_set(4, 3, 2) == b

    def test_count_matches_set(self):
        for seed in range(5):
            assert f2_vertex_count(3, 3, seed) == len(f2_vertex_set(3, 3, seed))

    def test_density_fraction(self):
        d = f2_vertex_density(3, 3, 0)
        assert isinstance(d, Fraction)
        assert d == Fraction(f2_vertex_count(3, 3, 0), comb(6, 3))

    def test_mean_density_above_bound(self):
        # expected density over seeds stays near or above the basis probability
        seeds = range(40)
        mean = sum(f2_vertex_density(5, 5, s) for s in seeds) / len(seeds)
        assert float(mean) >= float(density_lower_bound(5)) - 0.05


class TestEdgeSet:
    def test_zero_vectors_empty(self):
        s = f2_edge_set_from_vectors(1, 1, [0] * 4)
        assert s.strings == frozenset()

    def test_rank_oracle_small(self):
        # dimension 2, both basis conditions checked by hand:
        # vectors: v0=01, positions: 10, 01, 11
        s = f2_edge_set_from_vectors(1, 1, [0b01, 0b10, 0b01, 0b11])
        for starred in s.strings:
            star = starred.index("*")
            ones = [j for j, ch in enumerate(starred) if ch == "1"]
            chosen = [[0b10, 0b01, 0b11][j] for j in ones]
            assert gf2_rank(chosen + [0b01]) == 2
            assert gf2_rank(chosen + [[0b10, 0b01, 0b11][star]]) == 2

    def test_seeded(self):
        s = f2_edge_set(2, 1, 3)
        assert s == f2_edge_set(2, 1, 3)
        for st in s.strings:
            assert st.count("*") == 1


class TestDensityBound:
    def test_values(self):
        assert density_lower_bound(1) == Fraction(1, 2)
        assert density_lower_bound(2) == Fraction(3, 8)
        assert density_lower_bound(4) == Fraction(315, 1024)

    def test_decreasing_and_above_limit(self):
        prev = Fraction(1)
        for b in range(1, 65):
            cur = density_lower_bound(b)
            assert cur < prev
            assert float(cur) > 0.2887
            prev = cur


class TestAvoidance:
    def test_middle_layer_never_contained(self):
        assert check_f2_avoidance(seeds=10) == []

    @pytest.mark.slow
    def test_middle_layer_never_contained_deep(self):
        assert check_f2_avoidance(seeds=50) == []

    def test_single_seed_explicit(self):
        s = f2_vertex_set(4, 4, 0)
        full = VertexPattern(2, 2, frozenset(layer_strings(2, 2)))
        contained, witness = contains_pattern(s, full)
        assert not contained and witness is None


class TestEmpiricalDensity:
    def test_mean_near_bound(self):
        assert check_f2_density(seeds=25) == []

    @pytest.mark.slow
    def test_mean_near_bound_deep(self):
        assert check_f2_density(seeds=100) == []


class TestQuotientExtraction:
    def test_contained_patterns_fit_class_graph(self):
        assert check_f2_b2_extraction() == []
