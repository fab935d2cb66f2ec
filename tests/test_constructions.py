import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from spcube import (
    SizeGuardError,
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
    psi,
)
from spcube import constructions
from spcube.constructions import _bases, random_vectors
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


def _low_rank(rng: random.Random, count: int, dim: int, rank: int) -> list[int]:
    """``count`` vectors from the span of ``rank`` random ones: repeats,
    zeros and a rank below the basis size are all likely."""
    gens = [rng.randrange(1, 1 << dim) for _ in range(rank)]
    out = []
    for _ in range(count):
        v = 0
        for g in gens:
            if rng.random() < 0.5:
                v ^= g
        out.append(v)
    return out


def _edge_cases(rng: random.Random, count: int, dim: int) -> list[int]:
    """Vector sets aimed at each level of the search: a few distinct
    vectors repeated (a later vector equal to the pivot at the bulk
    level), zeros, a low-rank subspace, or plain random vectors."""
    kind = rng.randrange(4)
    if kind == 0:
        pool = [rng.randrange(1 << dim) for _ in range(rng.randint(1, 3))]
        return [rng.choice(pool) for _ in range(count)]
    if kind == 1:
        return [0 if rng.random() < 0.5 else rng.randrange(1 << dim) for _ in range(count)]
    if kind == 2:
        return _low_rank(rng, count, dim, rng.randint(1, max(1, dim - 1)))
    return _vectors(rng, count, dim)


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

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_vertex_edge_cases(self, b):
        # b <= 4 puts the tail at the root, of the primal side or, with
        # a < b, of the dual; a = 0 leaves no choice; dimensions above b
        # leave more room than a basis fills
        rng = random.Random(40 + b)
        for _ in range(80):
            a = rng.choice([0, 0, 1, 2, 3, 5, 7])
            dim = b + rng.choice([0, 0, 1, 3])
            vectors = _edge_cases(rng, a + b, dim)
            want = _vertex_by_ranks(a, b, vectors)
            assert f2_vertex_set_from_vectors(a, b, vectors).strings == want
            assert _bases(vectors, b, None) == len(want)

    @pytest.mark.parametrize("b", [3, 4])
    def test_repeated_and_rank_deficient_tails(self, b):
        # the tail groups residuals by value: many copies of a few vectors
        # make large groups, and a span of rank b - 1 or b - 2 leaves
        # values that are distinct but dependent, at need 3 and 4
        rng = random.Random(50 + b)
        for _ in range(60):
            a = rng.choice([1, 4, 8, 12])
            dim = b + rng.choice([0, 0, 1])
            if rng.random() < 0.5:
                pool = [rng.randrange(1, 1 << dim) for _ in range(rng.randint(b, b + 2))]
                vectors = [rng.choice(pool) for _ in range(a + b)]
            else:
                vectors = _low_rank(rng, a + b, dim, rng.randint(b - 2, b - 1))
            want = _vertex_by_ranks(a, b, vectors)
            assert f2_vertex_set_from_vectors(a, b, vectors).strings == want
            assert _bases(vectors, b, None) == len(want)

    def test_copies_of_one_vector(self):
        # 40 copies of e1 with e2, e3, e4: a basis is one copy and the rest
        vectors = [1] * 40 + [2, 4, 8]
        want = {0b111 << 40 | 1 << i for i in range(40)}
        masks: list[int] = []
        assert _bases(vectors, 4, masks) == 40 == _bases(vectors, 4, None)
        assert set(masks) == want and len(masks) == 40
        assert _bases(vectors[:-1], 4, None) == 0  # rank 3

    def test_edge_sets_with_dependent_extra_vector(self):
        # vectors[0] equal to a position's vector, or in the span of some
        rng = random.Random(41)
        for _ in range(120):
            a, b = rng.randint(0, 4), rng.randint(1, 4)
            vectors = _edge_cases(rng, a + b + 2, b + 1)
            pos = vectors[1:]
            if rng.random() < 0.5:
                vectors[0] = rng.choice(pos)
            else:
                vectors[0] = 0
                for v in rng.sample(pos, rng.randint(2, 3)):
                    vectors[0] ^= v
            want = _edge_by_ranks(a, b, vectors)
            assert f2_edge_set_from_vectors(a, b, vectors).strings == want

    def test_counts_and_seeded_sets(self):
        for a, b, seed in [(3, 3, 0), (4, 4, 1), (5, 3, 2), (2, 6, 3), (6, 5, 4)]:
            want = _vertex_by_ranks(a, b, random_vectors(a + b, b, seed))
            assert f2_vertex_set(a, b, seed).strings == want
            assert f2_vertex_count(a, b, seed) == len(want)
        for a, b, seed in [(2, 2, 0), (3, 3, 1), (4, 3, 5)]:
            want = _edge_by_ranks(a, b, random_vectors(a + b + 2, b + 1, seed))
            assert f2_edge_set(a, b, seed).strings == want


class TestEdgeSetIsPsiOfVertexSet:
    """An f2 edge set is psi at coordinate 0 of the vertex set one level up
    that the same vector list selects."""

    def test_from_vectors(self):
        rng = random.Random(43)
        for _ in range(200):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            vectors = _edge_cases(rng, a + b + 2, b + 1 + rng.choice([0, 0, 1]))
            pos = vectors[1:]
            kind = rng.randrange(4)
            if kind == 0:  # v0 equal to one position's vector
                vectors[0] = rng.choice(pos)
            elif kind == 1 and len(pos) > 1:  # v0 in the span of some
                vectors[0] = 0
                for v in rng.sample(pos, rng.randint(2, min(3, len(pos)))):
                    vectors[0] ^= v
            elif kind == 2:
                vectors[0] = 0
            want = psi(f2_vertex_set_from_vectors(a + 1, b + 1, vectors), 0)
            assert f2_edge_set_from_vectors(a, b, vectors) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded(self, seed):
        for a in range(5):
            for b in range(1, 5):
                want = psi(f2_vertex_set(a + 1, b + 1, seed), 0)
                assert f2_edge_set(a, b, seed) == want


class TestOutputSensitive:
    """Every call of the recursive step below the root reaches a leaf."""

    @staticmethod
    def _calls(monkeypatch, vectors: list[int], need: int) -> list[int]:
        found = []
        step = constructions._extend

        def counted(*args):
            n = step(*args)
            found.append(n)
            return n

        with monkeypatch.context() as patch:
            patch.setattr(constructions, "_extend", counted)
            total = _bases(vectors, need, None)
        assert found[-1] == total  # the root returns last
        return found[:-1]

    def test_seeded_10_10(self, monkeypatch):
        # one call per node of need 5 or more: the last four levels are
        # the tail's
        below = self._calls(monkeypatch, random_vectors(20, 10, 1), 10)
        assert len(below) == 2106 and 0 not in below

    def test_seeded_edge_7_7(self, monkeypatch):
        # f2_edge_set(7, 7, 1) is one vertex search with need 8, then psi
        searches = []
        search = constructions._bases

        def recorded(vectors, need, out):
            searches.append((list(vectors), need))
            return search(vectors, need, out)

        with monkeypatch.context() as patch:
            patch.setattr(constructions, "_bases", recorded)
            f2_edge_set(7, 7, 1)
        assert searches == [(random_vectors(16, 8, 1), 8)]
        below = self._calls(monkeypatch, random_vectors(16, 8, 1), 8)
        assert len(below) == 85 and 0 not in below

    def test_low_rank(self, monkeypatch):
        # the root may find nothing (rank below need), calls below it never do
        rng = random.Random(42)
        for _ in range(60):
            b = rng.randint(3, 7)
            vectors = _low_rank(rng, rng.randint(b, 14), b, rng.randint(b - 2, b))
            below = self._calls(monkeypatch, vectors, b)
            assert 0 not in below


class TestBothSides:
    """The primal search and the search of the dual's complements agree on
    every layer with a + b <= 14, whichever side ``_bases`` takes."""

    @staticmethod
    def _sides(vectors: list[int], need: int) -> tuple[set[int], set[int]]:
        n = len(vectors)
        primal: list[int] = []
        dual: list[int] = []
        constructions._extend(vectors, 1, need, 0, primal)
        coords = constructions._dual(vectors, need)
        if coords is not None:
            constructions._extend(coords, 1, n - need, (1 << n) - 1, dual)
        assert len(set(primal)) == len(primal) and len(set(dual)) == len(dual)
        return set(primal), set(dual)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_seeded(self, mode):
        for n in range(15):
            for b in range(mode == "vertex", n + 1):
                a = n - b
                if mode == "vertex":
                    vectors, need = random_vectors(n, b, n), b
                else:
                    vectors, need = random_vectors(n + 2, b + 1, n), b + 1
                primal, dual = self._sides(vectors, need)
                if gf2_rank(vectors) == need:
                    assert primal == dual, (mode, a, b)
                else:
                    assert primal == set() and constructions._dual(vectors, need) is None
                masks: list[int] = []
                assert _bases(vectors, need, masks) == len(primal) == _bases(vectors, need, None)
                assert set(masks) == primal

    def test_thin_layers(self):
        # L(4, 50) and L(50, 4) are one tail at the root on opposite sides
        for a, b in ((4, 50), (50, 4), (3, 60)):
            vectors = random_vectors(a + b, b, 1)
            masks: list[int] = []
            count = _bases(vectors, b, masks)
            assert count == len(set(masks)) == _bases(vectors, b, None) > 0
            for m in masks[:: max(1, count // 300)]:
                assert m.bit_count() == b
                assert gf2_rank([vectors[j] for j in range(a + b) if m >> j & 1]) == b


class TestRank:
    def test_basics(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([0b1, 0b10, 0b11]) == 2
        assert gf2_rank([0b101, 0b011, 0b110]) == 2
        assert gf2_rank([1, 2, 4, 8]) == 4


# Seeds of the stream's known-answer and cross-checks: both key words at
# their extremes, and a key with a high word only.
STREAM_SEEDS = [0, 1, 7, 2**63 + 5, 2**64 - 1, 2**64, 46116860184273879040, 2**128 - 1]


class TestStream:
    """The Philox4x64-10 stream behind ``random_vectors``."""

    def test_known_answers(self):
        # words recorded from numpy 2.4.6's Generator(Philox(key=seed))
        assert random_vectors(5, 64, 1) == [
            0x4DB6A27B756282DF, 0xD944FA03BABE0E2F, 0x27F872E577060D32,
            0x07F697696A0482A2, 0xE677FE4BBD0452EC,
        ]
        assert random_vectors(2, 64, 2**128 - 1) == [0x6D46CC0E71F0BE7E, 0x924EA1693F9A8BC0]

    def test_low_bits_and_prefixes(self):
        words = random_vectors(22, 64, 7)
        assert random_vectors(22, 5, 7) == [w & 0b11111 for w in words]
        for count in (0, 1, 3, 4, 5):  # within the first block and across it
            assert random_vectors(count, 64, 7) == words[:count]

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_against_numpy(self, seed):
        np = pytest.importorskip("numpy")
        for count in (1, 3, 4, 5, 22, 100):
            gen = np.random.Generator(np.random.Philox(key=seed))
            words = gen.integers(0, 2**64 - 1, size=count, dtype=np.uint64, endpoint=True)
            assert random_vectors(count, 64, seed) == [int(w) for w in words]

    def test_cli_import_leaves_numpy_out(self):
        src = str(Path(constructions.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, spcube.cli; print('numpy' in sys.modules)"
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout == "False\n"


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


class TestLayerGuard:
    def test_refused_before_a_vector_is_drawn(self, monkeypatch):
        # a listing is bounded by its characters, strings x width, within
        # F2_LAYER_LIMIT = 2^25: L(12, 11) has 1,352,078 strings of width
        # 23 and L(12, 12) 2,704,156 of width 24; L'(9, 9) has 923,780 of
        # width 19 and L'(10, 9) 1,847,560 of width 20; L(5791, 1) has
        # 5,792 of width 5,792 and L(5792, 1) one more of each.  L(1446,
        # 2) has only 1,047,628 strings, but of width 1,448.  L(10^6, 60)
        # and L'(10^6, 60) are far past the limit; drawing their 10^6 + 60
        # vectors first took seconds
        limit = constructions.F2_LAYER_LIMIT
        assert comb(23, 11) * 23 <= limit < comb(24, 12) * 24
        assert 19 * comb(18, 9) * 19 <= limit < 20 * comb(19, 9) * 20
        assert 5792 * 5792 <= limit < 5793 * 5793
        assert comb(1448, 2) <= 2**20 < comb(1448, 2) * 1448
        monkeypatch.setattr(constructions, "random_vectors", lambda count, dim, seed: [0] * count)
        assert len(f2_vertex_set(12, 11, 1)) == len(f2_vertex_set(5791, 1, 1)) == 0
        assert len(f2_edge_set(9, 9, 1)) == 0

        def undrawn(*args):
            raise AssertionError("vectors drawn before the layer guard")

        monkeypatch.setattr(constructions, "random_vectors", undrawn)
        for a, b in ((12, 12), (5792, 1), (1446, 2), (10**6, 60)):
            with pytest.raises(SizeGuardError, match="^layer too large to materialize"):
                f2_vertex_set(a, b, 1)
        for a, b in ((10, 9), (10**6, 60)):
            with pytest.raises(SizeGuardError, match="^starred layer too large to materialize$"):
                f2_edge_set(a, b, 1)

    def test_count_refused_before_a_vector_is_drawn(self, monkeypatch):
        # L(5791, 2) has 16,776,528 strings, within F2_COUNT_LIMIT = 2^24, and
        # L(5792, 2) 16,782,321; L(3000, 60) was still being counted at 15 s.
        # L(a, 1) draws a + 1 vectors for a + 1 strings, so F2_DRAW_LIMIT =
        # 2^18 holds it: L(2^24 - 2, 1) is within the count limit, but its
        # draw took about 17 s and 0.7 GB
        assert comb(5793, 2) <= constructions.F2_COUNT_LIMIT < comb(5794, 2)
        draw = constructions.F2_DRAW_LIMIT
        assert draw < 2**24 - 1 <= constructions.F2_COUNT_LIMIT
        monkeypatch.setattr(constructions, "random_vectors", lambda count, dim, seed: [0] * count)
        assert f2_vertex_count(5791, 2, 1) == f2_vertex_count(draw - 1, 1, 1) == 0

        def undrawn(*args):
            raise AssertionError("vectors drawn before the layer guard")

        monkeypatch.setattr(constructions, "random_vectors", undrawn)
        for a, b in ((5792, 2), (3000, 60), (draw, 1), (2**24 - 2, 1)):
            with pytest.raises(SizeGuardError, match="^layer too large to count$"):
                f2_vertex_density(a, b, 1)

    def test_wide_layers_refused_without_their_size(self, monkeypatch):
        # C(a + b, min(a, b)) >= 2^min(a, b), so no size is needed; C(2 *
        # 10^6, 10^6) took 50 s to compute
        def unsized(*args):
            raise AssertionError("the size of a layer far past the guard was computed")

        monkeypatch.setattr(constructions, "layer_size", unsized)
        for call in (f2_vertex_set, f2_vertex_count):
            with pytest.raises(SizeGuardError, match="^layer too large to"):
                call(10**6, 10**6, 1)
        with pytest.raises(SizeGuardError, match="^starred layer too large to materialize$"):
            f2_edge_set(10**6, 10**6, 1)


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

    def test_mean_near_bound_deep(self):
        assert check_f2_density(seeds=100) == []


class TestQuotientExtraction:
    def test_contained_patterns_fit_class_graph(self):
        assert check_f2_b2_extraction() == []
