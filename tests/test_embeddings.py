import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

import extremal_oracle as oracle
from spcube import (
    EdgePattern,
    SizeGuardError,
    VertexPattern,
    alon_pattern,
    apply_map,
    catalog,
    contains_pattern,
    count_maps,
    density_t,
    enumerate_maps,
    ex_cube,
    ex_layer,
    ex_layer_bruteforce,
    f2_vertex_set,
    layer_strings,
    named_pattern,
    partite_pattern,
    starred_layer_strings,
)
from spcube import embeddings
from spcube.embeddings import MAP_WIDTH_LIMIT, EmbeddingMap
from spcube.verify import (
    check_density_properties,
    check_ex_bnb_vs_bruteforce,
    check_map_counts,
    check_map_weights,
)

X_C2 = VertexPattern(1, 1, frozenset({"01", "10"}))


def _subset(rng: random.Random, pool, p: float) -> frozenset:
    return frozenset(s for s in pool if rng.random() < p)


def _pattern(starred: bool, a: int, b: int, strings):
    return (EdgePattern if starred else VertexPattern)(a, b, frozenset(strings))


def _layer(starred: bool, a: int, b: int) -> list[str]:
    return starred_layer_strings(a, b) if starred else layer_strings(a, b)


class TestMaps:
    def test_count_1_1_2_2(self):
        assert count_maps(1, 1, 2, 2) == 24
        assert sum(1 for _ in enumerate_maps(1, 1, 2, 2)) == 24

    def test_count_choose(self):
        from math import comb

        # (a'+b')!/(a'! b'!) is the binomial coefficient
        assert count_maps(0, 0, 3, 2) == comb(5, 2)

    def test_count_starred(self):
        assert count_maps(1, 1, 1, 1, starred=True) == 6

    def test_formula_suite(self):
        assert check_map_counts() == []

    @pytest.mark.parametrize("a, b, a2, b2", [(0, 0, 2, 2), (1, 1, 2, 2), (2, 1, 3, 3), (1, 2, 1, 4)])
    @pytest.mark.parametrize("starred", [False, True])
    def test_order_is_lexicographic(self, a, b, a2, b2, starred):
        # slots in order, then '0', then '1': the distinct permutations of
        # the tokens' indices, sorted
        k = a + b + starred
        tokens = [*range(k), "0", "1"]
        indices = [*range(k)] + [k] * (a2 - a) + [k + 1] * (b2 - b)
        want = [tuple(tokens[i] for i in p) for p in sorted(set(permutations(indices)))]
        assert [p.tokens for p in enumerate_maps(a, b, a2, b2, starred)] == want

    def test_wide_constant_map(self):
        # one map per token multiset, however long: nothing recurses per
        # coordinate
        maps = list(enumerate_maps(0, 0, 0, 1500))
        assert len(maps) == 1 and maps[0].tokens == ("1",) * 1500

    def test_identity_map(self):
        p = EmbeddingMap((0, 1), 2)
        assert apply_map(p, "01") == "01"

    def test_mixed_map(self):
        p = EmbeddingMap((1, "0", 0, "1"), 2)
        assert apply_map(p, "01") == "1001"

    def test_elementwise_image(self):
        p = EmbeddingMap((0, 1, "0", "1"), 2)
        assert {apply_map(p, s) for s in X_C2.strings} == {"0101", "1001"}

    def test_weights(self):
        assert check_map_weights() == []

    def test_starred_passthrough(self):
        p = EmbeddingMap((0, 1, "1"), 2)
        assert apply_map(p, "*0") == "*01"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_map(EmbeddingMap((0, 1), 2), "011")

    @pytest.mark.parametrize(
        "tokens, slots",
        [((0, 0), 2), ((0,), 2), ((0, "2"), 1)],
        ids=["repeated-slot", "missing-slot", "bad-constant"],
    )
    def test_invalid_map_refused(self, tokens, slots):
        with pytest.raises(ValueError):
            EmbeddingMap(tokens, slots)


class TestDensity:
    def test_full_layer(self):
        full = VertexPattern(2, 2, frozenset(layer_strings(2, 2)))
        assert density_t(X_C2, full) == 1

    def test_antipodal_zero(self):
        target = VertexPattern(2, 2, frozenset({"0011", "1100"}))
        assert density_t(X_C2, target) == 0

    def test_empty_pattern(self):
        empty = VertexPattern(1, 1, frozenset())
        assert density_t(empty, VertexPattern(1, 2, frozenset({"011"}))) == 1

    def test_exact_fraction(self):
        target = VertexPattern(2, 2, frozenset(layer_strings(2, 2)) - {"0011"})
        t = density_t(X_C2, target)
        assert isinstance(t, Fraction) and 0 < t < 1

    def test_mismatch_rejected(self):
        small = VertexPattern(2, 2, frozenset({"0011"}))
        with pytest.raises(ValueError):
            density_t(small, X_C2)

    def test_property_suite(self):
        assert check_density_properties() == []


class TestContains:
    def test_positive(self):
        target = VertexPattern(2, 2, frozenset(layer_strings(2, 2)) - {"0011"})
        found, witness = contains_pattern(target, X_C2)
        assert found
        assert {apply_map(witness, s) for s in X_C2.strings} <= target.strings

    def test_negative(self):
        target = VertexPattern(2, 2, frozenset({"0011", "1100"}))
        assert contains_pattern(target, X_C2) == (False, None)

    def test_cube_mode(self):
        pool = frozenset({"000", "011", "101", "110"})  # even-weight class of Q3
        found, witness = contains_pattern(pool, X_C2)
        assert found  # the weight-2 layer holds e.g. {011, 101}
        assert {apply_map(witness, s) for s in X_C2.strings} <= pool
        found2, w2 = contains_pattern(frozenset({"000", "011"}), X_C2)
        assert not found2 and w2 is None

    def test_cube_mode_tries_the_heaviest_layer_first(self):
        # {"1"} maps into weight 1 by "s1 0 0" and into weight 2 by "s1 1 0"
        found, witness = contains_pattern(frozenset({"100", "110"}), VertexPattern(0, 1, {"1"}))
        assert found and str(witness) == "s1 1 0"


class TestExLayer:
    def test_l11(self):
        value, witness = ex_layer(1, 1, X_C2)
        assert value == 1

    def test_l22_with_witness(self):
        value, witness = ex_layer(2, 2, X_C2)
        assert value == 2
        assert witness == ["0011", "1100"]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            ex_layer(2, 2, VertexPattern(1, 1, frozenset()))

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            ex_layer(5, 5, X_C2)

    @pytest.mark.parametrize("x", [X_C2, EdgePattern(0, 0, {"*"})], ids=["vertex", "edge"])
    def test_size_guards_run_before_the_layer_is_listed(self, monkeypatch, x):
        # L(3000,3000) has C(6000,3000) strings: listing it would never end
        def unlisted(*args):
            raise AssertionError("the layer was listed before its guard")

        for name in ("layer_masks", "starred_layer_masks", "layer_strings", "starred_layer_strings"):
            monkeypatch.setattr(embeddings, name, unlisted)
        for search in (ex_layer, ex_layer_bruteforce):
            with pytest.raises(SizeGuardError, match="^layer size [0-9]+ exceeds"):
                search(3000, 3000, x)

    def test_bruteforce_agrees(self):
        assert check_ex_bnb_vs_bruteforce(trials=8) == []

    def test_bruteforce_agrees_deep(self):
        assert check_ex_bnb_vs_bruteforce(trials=20) == []

    def test_starred(self):
        y = EdgePattern(0, 0, frozenset({"*"}))
        value, witness = ex_layer(1, 0, y)
        assert value == 0  # a single starred string embeds into any nonempty set


class TestMapWidthGuard:
    # The empty string of L(0,0) maps onto one string of the target by
    # exactly one map: the search runs one branch to the full width.
    EMPTY = VertexPattern(0, 0, {""})

    @staticmethod
    def _one_string(width: int) -> VertexPattern:
        ones = width // 2
        return VertexPattern(width - ones, ones, {"0" * (width - ones) + "1" * ones})

    def test_at_the_guard(self):
        big = self._one_string(MAP_WIDTH_LIMIT)
        assert density_t(self.EMPTY, big) == Fraction(1, comb(MAP_WIDTH_LIMIT, big.b))
        assert contains_pattern(big, self.EMPTY)[0]

    def test_beyond_the_guard(self):
        big = self._one_string(MAP_WIDTH_LIMIT + 1)
        with pytest.raises(SizeGuardError, match="map-search guard"):
            density_t(self.EMPTY, big)
        with pytest.raises(SizeGuardError, match="map-search guard"):
            contains_pattern(big, self.EMPTY)
        with pytest.raises(SizeGuardError, match="map-search guard"):
            contains_pattern(big.strings, self.EMPTY)  # cube mode


class TestExCube:
    def test_single_vertex_pattern(self):
        single = VertexPattern(0, 1, frozenset({"1"}))
        value, witness = ex_cube(2, single)
        assert value == 0 and witness == []

    def test_xc2_in_q2(self):
        value, _ = ex_cube(2, X_C2)
        # forbidden pairs are the two diagonals; one point of each can stay
        assert value == 2

    def test_monotone_density_q2_to_q3(self):
        v2, _ = ex_cube(2, X_C2)
        v3, _ = ex_cube(3, X_C2)
        assert Fraction(v3, 8) <= Fraction(v2, 4)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            ex_cube(5, X_C2)

    @pytest.mark.parametrize("n", [-1, -2])
    @pytest.mark.parametrize("x", [X_C2, EdgePattern(0, 0, {"*"})], ids=["vertex", "edge"])
    def test_negative_dimension(self, monkeypatch, n, x):
        def unlisted(n, starred):
            raise AssertionError("the cube was listed before its dimension was checked")

        monkeypatch.setattr(embeddings, "_cube_universe", unlisted)
        with pytest.raises(ValueError, match="^cube dimension must be nonnegative$"):
            ex_cube(n, x)

    def test_pattern_wider_than_the_cube(self):
        # no face of Q2 has 40 dimensions, so there is no image and every
        # vertex stays; the search must not walk the pattern's 2^40 flips
        x = VertexPattern(40, 0, {"0" * 40})
        assert ex_cube(2, x) == (4, ["00", "01", "10", "11"])
        assert ex_cube(0, EdgePattern(0, 0, {"*"})) == (0, [])

    def test_faces_flip_but_contains_does_not(self):
        # ex_cube's face embeddings flip the pattern's coordinates, so "0"
        # is a copy of X at every vertex of Q1; contains_pattern's cube
        # mode maps without flips, so {"1"} holds no copy of X
        x = VertexPattern(1, 0, {"0"})
        assert contains_pattern(frozenset({"1"}), x) == (False, None)
        assert ex_cube(1, x) == (0, [])

    def test_matches_exhaustive_subsets(self):
        universe = oracle.cube_vertex_universe(2)
        images = oracle.cube_images(2, X_C2)
        best = 0
        for size in range(len(universe), -1, -1):
            found = False
            for combo in combinations(universe, size):
                s = set(combo)
                if not any(img <= s for img in images):
                    best = size
                    found = True
                    break
            if found:
                break
        assert best == ex_cube(2, X_C2)[0]


class TestMapSearchAgainstOracle:
    """The pruned map search against every map applied one by one."""

    @pytest.mark.parametrize("starred", [False, True])
    def test_layer_mode(self, starred):
        rng = random.Random(2024 + starred)
        positive = 0
        for _ in range(50):
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            a2, b2 = a + rng.randint(0, 2), b + rng.randint(0, 2)
            x = _pattern(starred, a, b, _subset(rng, _layer(starred, a, b), 0.6))
            big = _pattern(starred, a2, b2, _subset(rng, _layer(starred, a2, b2), 0.85))
            t = density_t(x, big)
            assert t == oracle.density_by_maps(x, big)
            positive += 0 < t < 1
            got = contains_pattern(big, x)
            want = oracle.contains_by_maps(big, x)
            assert got == want and str(got[1]) == str(want[1])
        assert positive >= 10

    def test_zero_length_map(self):
        # L(0,0) into L(0,0): one map with no coordinate to fix
        for xs in (set(), {""}):
            for bs in (set(), {""}):
                x, big = VertexPattern(0, 0, frozenset(xs)), VertexPattern(0, 0, frozenset(bs))
                assert density_t(x, big) == oracle.density_by_maps(x, big)
                assert contains_pattern(big, x) == oracle.contains_by_maps(big, x)

    @pytest.mark.parametrize("starred", [False, True])
    def test_cube_mode(self, starred):
        rng = random.Random(99 + starred)
        found = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            width = n - starred
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            if a + b > width:
                continue
            pool = [
                s
                for w in range(width + 1)
                for s in _layer(starred, width - w, w)
                if rng.random() < 0.6
            ]
            x = _pattern(starred, a, b, _subset(rng, _layer(starred, a, b), 0.7))
            got = contains_pattern(frozenset(pool), x)
            want = oracle.contains_by_maps(frozenset(pool), x)
            assert got == want and str(got[1]) == str(want[1])
            found += got[0]
        assert found >= 10

    def test_f2_witness_tokens(self):
        # check_f2_b2_extraction reads the witness's tokens
        x = VertexPattern(2, 2, frozenset({"1100", "0110", "0011"}))
        found = 0
        for seed in range(8):
            s = f2_vertex_set(4, 4, seed)
            got = contains_pattern(s, x)
            assert got == oracle.contains_by_maps(s, x)
            found += got[0]
        assert found


class TestExAgainstOracles:
    """The branch and bound against the n+1 hitting-set solves and plain
    subset enumeration: same values, same lex-least witnesses."""

    def test_ex_layer_random(self):
        rng = random.Random(77)
        plain = [(2, 2), (1, 3), (3, 1), (4, 1), (1, 4), (2, 3), (3, 2), (4, 2), (2, 4)]
        starred_targets = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
        for _ in range(60):
            starred = rng.random() < 0.35
            a2, b2 = rng.choice(starred_targets if starred else plain)
            a, b = rng.randint(0, min(a2, 2)), rng.randint(0, min(b2, 2))
            pool = _layer(starred, a, b)
            x = _pattern(starred, a, b, rng.sample(pool, rng.randint(1, len(pool))))
            got = ex_layer(a2, b2, x)
            assert got == ex_layer_bruteforce(a2, b2, x)
            assert got == oracle.ex_layer_by_hitting_sets(a2, b2, x)

    @pytest.mark.parametrize(
        "x, a2, b2",
        [
            (VertexPattern(1, 1, frozenset({"01"})), 2, 2),
            (VertexPattern(0, 0, frozenset({""})), 2, 1),
            (VertexPattern(1, 2, frozenset({"101"})), 2, 3),
            (EdgePattern(0, 1, frozenset({"1*"})), 1, 2),
        ],
    )
    def test_singleton_patterns(self, x, a2, b2):
        # every string of the target layer is an image: nothing survives
        assert ex_layer(a2, b2, x) == (0, [])
        assert ex_layer_bruteforce(a2, b2, x) == (0, [])

    def test_ex_cube_random(self):
        # At n = 4 an edge pattern of three strings can take seconds in the
        # branch and bound (see the README), so there the draws hold at most
        # two; and the hitting-set oracle takes 3-15 s on those, so the
        # string-level face images go to the branch and bound instead.
        rng = random.Random(5)
        for _ in range(80):
            starred = rng.random() < 0.4
            n = rng.randint(0, 4)
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            pool = _layer(starred, a, b)
            most = min(2, len(pool)) if starred and n == 4 else len(pool)
            x = _pattern(starred, a, b, rng.sample(pool, rng.randint(1, most)))
            if starred and n == 4:
                want = embeddings._max_avoiding(*oracle.cube_masks(n, x))
            else:
                want = oracle.ex_cube_by_hitting_sets(n, x)
            assert ex_cube(n, x) == want

    def test_ex_cube_q4_xc2(self):
        assert ex_cube(4, X_C2) == oracle.ex_cube_by_hitting_sets(4, X_C2)

    @pytest.mark.parametrize(
        "strings, want",
        [
            (["0*1", "01*", "10*"], 12),
            pytest.param(["01*", "10*", "1*0", "*01", "*10"], 20, marks=pytest.mark.slow),
        ],
        ids=["three", "five"],
    )
    def test_ex_cube_q4_edge_patterns_by_ilp(self, strings, want):
        # edge patterns at n = 4 are too slow for the hitting-set oracle
        pytest.importorskip("scipy")
        x = EdgePattern(1, 1, frozenset(strings))
        universe, masks = oracle.cube_masks(4, x)
        value, witness = ex_cube(4, x)
        assert value == oracle.max_avoiding_by_ilp(universe, masks) == want
        assert len(set(witness)) == value
        picked = sum(1 << universe.index(s) for s in witness)
        assert not any(m & picked == m for m in masks)

    def test_forbidden_masks_ignore_image_order(self):
        # equal masks in any order: the branch and bound's greedy bound
        # reads them in list order
        x = EdgePattern(1, 1, frozenset({"*01", "1*0", "10*"}))
        universe = oracle.cube_edge_universe(4)
        images = sorted(oracle.cube_images(4, x), key=sorted)
        forward = embeddings._forbidden_masks(universe, images)
        assert len(forward) == 192
        assert embeddings._forbidden_masks(universe, images[::-1]) == forward


class TestConstantWeightCodes:
    """ex(L(a,b), X_C2) = A(a+b, 4, b), the largest constant-weight code of
    length a+b, weight b and minimum distance 4 (Brouwer, Shearer, Sloane
    and Smith, IEEE Trans. Inf. Theory 36, 1990)."""

    @pytest.mark.parametrize(
        "a, b, value",
        [(3, 3, 4), (4, 3, 7), (3, 4, 7), (6, 2, 4), (2, 6, 4), (4, 4, 14)],
    )
    def test_value_and_witness(self, a, b, value):
        got, witness = ex_layer(a, b, X_C2)
        assert got == value
        assert len(set(witness)) == value
        assert all(s in set(layer_strings(a, b)) for s in witness)
        for s, t in combinations(witness, 2):
            assert sum(c != d for c, d in zip(s, t)) >= 4


def _relabel(x, perm: list[int]):
    """x with coordinate j of each string moved to position perm[j]."""
    n = len(perm)
    out = []
    for s in x.strings:
        t = [""] * n
        for j, c in enumerate(s):
            t[perm[j]] = c
        out.append("".join(t))
    return type(x)(x.a, x.b, frozenset(out))


def _aut_order_by_listing(x) -> int:
    """|Aut(x)| by trying every permutation of the coordinates."""
    n = len(next(iter(x.strings)))
    return sum(_relabel(x, list(p)).strings == x.strings for p in permutations(range(n)))


def _orbit_closure(rng: random.Random, starred: bool, a: int, b: int, seeds) -> set:
    """The strings of ``seeds`` under the group of one or two random
    coordinate permutations: a pattern with a nontrivial group."""
    n = a + b + starred
    gens = [rng.sample(range(n), n) for _ in range(rng.randint(1, 2))]
    out, todo = set(seeds), list(seeds)
    while todo:
        s = todo.pop()
        for g in gens:
            t = "".join(s[g[j]] for j in range(n))
            if t not in out:
                out.add(t)
                todo.append(t)
    return out


def _symmetric_patterns(rng: random.Random, starred: bool, count: int):
    """Full layers and orbit closures of random sets, up to 5 coordinates."""
    out = []
    for _ in range(count):
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        pool = _layer(starred, a, b)
        if rng.random() < 0.3:
            strings = pool
        else:
            seeds = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            strings = _orbit_closure(rng, starred, a, b, seeds)
        out.append(_pattern(starred, a, b, strings))
    return out


class TestAutomorphisms:
    """Aut(X), the slot permutations that map X onto itself, found without
    listing the group."""

    def test_x16_is_s4_on_the_edges_of_k4(self):
        x16 = named_pattern("x16")
        edges = [tuple(sorted(e)) for e in catalog.k4_x16().edges]
        induced = set()
        for p in permutations(range(4)):
            perm = [edges.index(tuple(sorted((p[u], p[v])))) for u, v in edges]
            assert _relabel(x16, perm).strings == x16.strings
            induced.add(tuple(perm))
        group = embeddings._group(x16)
        assert group.order() == 24 == len(induced)
        # each automorphism the search met is a relabelling of K4's vertices
        assert group.found and all(tuple(s) in induced for _, s in group.found)

    def test_y18(self):
        y18 = named_pattern("y18")
        assert embeddings._group(y18).order() == 4 == _aut_order_by_listing(y18)

    @pytest.mark.parametrize("starred", [False, True])
    def test_full_layers(self, starred):
        for a, b in [(0, 0), (1, 0), (2, 1), (3, 3), (0, 7), (5, 4)]:
            x = _pattern(starred, a, b, _layer(starred, a, b))
            assert embeddings._group(x).order() == factorial(a + b + starred)

    def test_star_coordinate_moves(self):
        # swapping the two coordinates maps *0 to 0* and back
        x = EdgePattern(1, 0, frozenset({"*0", "0*"}))
        group = embeddings._group(x)
        assert group.order() == 2
        assert group.orbits(0) == [[0, 1]]
        assert group.found == [(0b11, [1, 0])]

    @pytest.mark.parametrize("starred", [False, True])
    def test_against_listing_and_relabelling(self, starred):
        rng = random.Random(31 + starred)
        patterns = _symmetric_patterns(rng, starred, 40)
        for _ in range(20):
            a, b = rng.randint(0, 3), rng.randint(0, 2)
            pool = _layer(starred, a, b)
            patterns.append(_pattern(starred, a, b, rng.sample(pool, rng.randint(1, len(pool)))))
        for x in patterns:
            order = embeddings._group(x).order()
            assert order == _aut_order_by_listing(x)
            n = x.a + x.b + starred
            assert embeddings._group(_relabel(x, rng.sample(range(n), n))).order() == order

    def test_the_group_is_never_listed(self):
        # Aut = S_69; every string of L(1,69) is an image of the one string
        x = VertexPattern(0, 69, frozenset({"1" * 69}))
        assert embeddings._group(x).order() == factorial(69)
        start = time.perf_counter()
        assert ex_layer(1, 69, x) == (0, [])
        assert time.perf_counter() - start < 1.0


class TestOrbitSearchAgainstOracles:
    """One map per orbit on patterns with large groups: the same
    densities, witness maps, ex values and ex witnesses as the plain
    routes of ``extremal_oracle``, which apply every map."""

    @pytest.mark.parametrize("starred", [False, True])
    def test_density_and_contains(self, starred):
        rng = random.Random(404 + starred)
        for x in _symmetric_patterns(rng, starred, 30):
            a2, b2 = x.a + rng.randint(0, 2), x.b + rng.randint(0, 2)
            p = rng.choice([0.6, 0.9, 1.0])
            big = _pattern(starred, a2, b2, _subset(rng, _layer(starred, a2, b2), p))
            assert density_t(x, big) == oracle.density_by_maps(x, big)
            got, want = contains_pattern(big, x), oracle.contains_by_maps(big, x)
            assert got == want and str(got[1]) == str(want[1])

    def test_named_patterns(self):
        x16, y18 = named_pattern("x16"), named_pattern("y18")
        rng = random.Random(16)
        cases = [(x16, 4, 3), (y18, 2, 3), (alon_pattern((2, 1, 1)), 3, 3)]
        cases.append((partite_pattern((2, 1)), 2, 2))
        for x, a2, b2 in cases:
            starred = isinstance(x, EdgePattern)
            for p in (0.7, 0.9):
                big = _pattern(starred, a2, b2, _subset(rng, _layer(starred, a2, b2), p))
                assert density_t(x, big) == oracle.density_by_maps(x, big)
                got, want = contains_pattern(big, x), oracle.contains_by_maps(big, x)
                assert got == want and str(got[1]) == str(want[1])

    def test_ex_layer(self):
        rng = random.Random(918)
        targets = {False: [(2, 2), (3, 2), (2, 3), (4, 1)], True: [(1, 1), (2, 1), (1, 2)]}
        cases = []
        for starred in (False, True):
            for x in _symmetric_patterns(rng, starred, 15):
                fits = [(a2, b2) for a2, b2 in targets[starred] if a2 >= x.a and b2 >= x.b]
                if fits:
                    cases.append((x, *rng.choice(fits)))
        cases += [(alon_pattern((1, 1, 1)), 2, 2), (partite_pattern((1, 1)), 1, 2)]
        for x, a2, b2 in cases:
            got = ex_layer(a2, b2, x)
            assert got == ex_layer_bruteforce(a2, b2, x)
            assert got == oracle.ex_layer_by_hitting_sets(a2, b2, x)

    def test_ex_cube(self):
        rng = random.Random(27)
        for starred in (False, True):
            for x in _symmetric_patterns(rng, starred, 12):
                d = x.a + x.b + starred
                if d > 3:
                    continue
                n = rng.randint(d, 3)
                assert ex_cube(n, x) == oracle.ex_cube_by_hitting_sets(n, x)


class TestOrbitMapsGuard:
    def test_density_refused_per_orbit(self):
        # 16!/(5! 5!) maps, 24 to an orbit, and 29% of them reach the set
        big = f2_vertex_set(8, 8, 1)
        with pytest.raises(SizeGuardError, match="embedding maps per orbit exceed the guard"):
            density_t(named_pattern("x16"), big)
