"""The benchmark's four workloads: their jobs, inputs and exactness oracles.

Each workload is a list of jobs.  A job is one ``spcube`` argv and an
oracle that checks the job's parsed output.  Oracles run in the benchmark
process, outside the timed region, and cache what they compute, so a
value is derived once per run however many repetitions check it.  Every
oracle compares parsed values and witnesses, never raw bytes: the tables'
``millis`` column varies from run to run.

Why each workload exists:

* ``tables``: the paper's two tables as a reader reproduces them.  Heavy
  on building and canonicalizing new terms (``spterm``, the ``search`` DP
  frontier) and on ``multigraph`` isomorphism in the census.
* ``m-terms``: the literal route through every canonical term, where
  ``multigraph.spanning_trees`` and the ``patterns`` string building do
  most of the work and ``spterm`` reads and formats cached terms.
* ``extremal``: a seeded avoiding-set workflow on pattern and set files,
  where ``embeddings`` (branch and bound, map enumeration) and
  ``constructions`` (GF(2) rank) do nearly all the work.
* ``verify``: the fast invariant suite, many small calls across every
  layer; the only workload that reaches ``operators``, ``catalog`` and
  ``verify``.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Callable

import numpy as np

from spcube.catalog import k4_x16
from spcube.embeddings import ex_layer, ex_layer_bruteforce
from spcube.multigraph import graph_from_json, tree_count
from spcube.patterns import VertexPattern, dual_pattern, format_pattern, parse_pattern, y_pattern
from spcube.search import m_table
from spcube.spterm import edge_count, enumerate_terms, parse_term, to_marked_graph
from spcube.verify import ALL_CHECKS

# m(1..14), as pinned by the acceptance suite.
TABLE_M = [1, 2, 4, 8, 14, 24, 42, 72, 122, 204, 343, 576, 960, 1608]

# A(n, 4, w): the largest binary code of length n, constant weight w and
# minimum distance 4 (Brouwer's table of constant-weight codes).  Avoiding
# X_C2 = {01, 10} in L(a, b) means no two strings at distance 2, so
# ex(L(a, b), X_C2) = A(a + b, 4, b).
A4 = {(4, 2): 2, (5, 2): 2, (5, 3): 2, (6, 2): 3, (6, 3): 4, (6, 4): 3, (7, 2): 3, (7, 5): 3}
XC2_LAYERS = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (5, 2), (2, 5)]


@dataclass
class Job:
    argv: list[str]
    check: Callable[[dict], None]  # raises Failure when the output is wrong


class Failure(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Failure(message)


def check_job(job: Job, result: dict) -> str | None:
    """None when the job exited 0 and its oracle accepts the output."""
    if result["rc"] != 0:
        tail = result["stderr"].strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {result['rc']}: {tail[0]}"
    try:
        job.check(result)
    except Failure as exc:
        return str(exc)
    except Exception as exc:  # output the oracle cannot even parse
        return f"unreadable output: {exc!r}"
    return None


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ----------------------------------------------------------------------
# tables and m-terms


@functools.cache
def _m_witness_size(d: int, text: str) -> int:
    term = parse_term(text)
    require(edge_count(term) == d, f"m({d}) witness {text} has {edge_count(term)} edges")
    return len(y_pattern(to_marked_graph(term), 0))


def check_m_rows(rows: list[dict], d_max: int, expected: list[int]) -> None:
    require([int(r["d"]) for r in rows] == list(range(1, d_max + 1)), "m rows out of order")
    for r in rows:
        d, value, witness = int(r["d"]), int(r["value"]), r["witness-term"]
        if d <= len(expected):
            require(value == expected[d - 1], f"m({d}) = {value}, expected {expected[d - 1]}")
        require(
            fib(d + 2) - 1 <= value <= Fraction(d * fib(d + 2), 2),
            f"m({d}) = {value} violates the Fibonacci bounds",
        )
        size = _m_witness_size(d, witness)
        require(size == value, f"m({d}) witness {witness} has {size} tree pairs, not {value}")


@functools.cache
def _fib_witness_count(d: int, text: str) -> int:
    g = graph_from_json(text)
    require(len(g.edges) == d, f"fib witness for d={d} has {len(g.edges)} edges")
    return tree_count(g)


def check_fib_rows(rows: list[dict], d_max: int) -> None:
    require([int(r["d"]) for r in rows] == list(range(d_max + 1)), "fib rows out of order")
    for r in rows:
        d, value = int(r["d"]), int(r["value"])
        require(value == fib(d + 1), f"fib row d={d} is {value}, expected {fib(d + 1)}")
        count = _fib_witness_count(d, r["witness-term"])
        require(count == value, f"fib witness d={d} has {count} spanning trees, not {value}")


def tables(seed: int, work: Path) -> tuple[list[Job], dict]:
    jobs = [
        Job(["table", "m", "--max-d", "16"],
            lambda r: check_m_rows(csv_rows(r["stdout"]), 16, TABLE_M)),
        Job(["table", "fib", "--max-d", "8"],
            lambda r: check_fib_rows(csv_rows(r["stdout"]), 8)),
        Job(["table", "fib", "--max-d", "16", "--witness-only"],
            lambda r: check_fib_rows(csv_rows(r["stdout"]), 16)),
    ]
    return jobs, {"m_rows": 16, "fib_census_rows": 9, "fib_chain_rows": 17}


@functools.cache
def _m_dp(d_max: int) -> list[int]:
    return [row.value for row in m_table(d_max, "dp")]


def m_terms(seed: int, work: Path) -> tuple[list[Job], dict]:
    def check(result: dict) -> None:
        rows = csv_rows(result["stdout"])
        dp = _m_dp(9)
        require([int(r["value"]) for r in rows] == dp, f"terms route differs from DP {dp}")
        check_m_rows(rows, 9, TABLE_M)

    terms = [sum(1 for _ in enumerate_terms(d)) for d in range(1, 10)]
    jobs = [Job(["table", "m", "--max-d", "9", "--method", "terms"], check)]
    return jobs, {"terms_per_d": terms, "terms_total": sum(terms)}


# ----------------------------------------------------------------------
# verify


def verify(seed: int, work: Path) -> tuple[list[Job], dict]:
    def check(result: dict) -> None:
        lines = result["stdout"].splitlines()
        require(len(lines) == len(ALL_CHECKS), f"{len(lines)} lines for {len(ALL_CHECKS)} checks")
        bad = [ln for ln in lines if not ln.startswith("PASS")]
        require(not bad, f"failing checks: {bad[:3]}")

    return [Job(["verify"], check)], {"checks": len(ALL_CHECKS)}


# ----------------------------------------------------------------------
# extremal


def strings_of(text: str) -> tuple[str, int, int, list[str]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    kind, a, b = lines[0].split()
    return kind, int(a), int(b), lines[1:]


def read_pattern_file(path: Path) -> tuple[str, int, int, list[str]]:
    return strings_of(path.read_text(encoding="utf-8"))


def mask(s: str) -> int:
    return sum(1 << j for j, c in enumerate(s) if c == "1")


def in_layer(s: str, a: int, b: int) -> bool:
    return len(s) == a + b and s.count("1") == b and set(s) <= {"0", "1"}


def parse_ex(stdout: str) -> tuple[int, list[str]]:
    lines = stdout.splitlines()
    require(len(lines) == 2 and lines[0].startswith("ex = "), f"bad ex output {stdout!r}")
    return int(lines[0][5:]), lines[1].split()[1:]


def check_xc2(a: int, b: int, result: dict) -> None:
    value, witness = parse_ex(result["stdout"])
    expected = A4[(a + b, b)]
    require(value == expected, f"ex(L({a},{b}), X_C2) = {value}, A({a + b},4,{b}) = {expected}")
    require(len(set(witness)) == value, "witness size differs from the value")
    require(all(in_layer(s, a, b) for s in witness), "witness leaves the layer")
    for s, t in itertools.combinations(witness, 2):
        require(bin(mask(s) ^ mask(t)).count("1") >= 4, f"witness {s} {t} at distance 2")


@functools.cache
def _ex_oracle(text: str, a2: int, b2: int) -> int:
    x = parse_pattern(text)
    brute, _ = ex_layer_bruteforce(a2, b2, x)
    dual, _ = ex_layer(b2, a2, dual_pattern(x))
    require(brute == dual, f"brute force {brute} and dual {dual} disagree")
    return brute


def check_random_ex(text: str, a2: int, b2: int, result: dict) -> None:
    value, witness = parse_ex(result["stdout"])
    expected = _ex_oracle(text, a2, b2)
    require(value == expected, f"ex = {value}, brute force and dual give {expected}")
    require(len(set(witness)) == value, "witness size differs from the value")
    require(all(in_layer(s, a2, b2) for s in witness), "witness leaves the layer")


DENSITY_LINE = re.compile(r"^# seed (\d+) size (\d+) density (\d+)/(\d+) ", re.M)


def check_f2(path: Path, kind: str, a: int, b: int, seed: int, result: dict) -> None:
    got_kind, got_a, got_b, strings = read_pattern_file(path)
    require((got_kind, got_a, got_b) == (kind, a, b), f"{path.name} header is {got_kind} {got_a} {got_b}")
    match = DENSITY_LINE.search(result["stderr"])
    require(match is not None, "no density line on stderr")
    s, size, num, den = map(int, match.groups())
    layer = comb(a + b, b) if kind == "vertex" else (a + b + 1) * comb(a + b, b)
    require(s == seed and size == len(set(strings)), f"{path.name}: size line disagrees with file")
    require(Fraction(size, layer) == Fraction(num, den), f"{path.name}: density {num}/{den} != {size}/{layer}")


def check_contains_no(result: dict) -> None:
    require(result["stdout"].strip() == "contains: no", "an f2 set contains the full middle layer")


def check_x16(path: Path, result: dict) -> None:
    kind, a, b, strings = read_pattern_file(path)
    edges = k4_x16().edges
    trees = set()
    for picked in itertools.combinations(range(len(edges)), 3):
        parent = list(range(4))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        acyclic = True
        for j in picked:
            u, v = find(edges[j][0]), find(edges[j][1])
            acyclic &= u != v
            parent[u] = v
        if acyclic:
            trees.add("".join("1" if j in picked else "0" for j in range(len(edges))))
    require((kind, a, b) == ("vertex", 3, 3) and set(strings) == trees, "x16 is not the K4 tree set")


@functools.cache
def _density_oracle(small_text: str, big_text: str) -> Fraction:
    """t(small, big) by vectorised bitmask enumeration of all maps."""
    _, a, b, small = strings_of(small_text)
    _, a2, b2, big = strings_of(big_text)
    n, k = a2 + b2, a + b
    member = np.zeros(1 << n, dtype=bool)
    member[[mask(s) for s in big]] = True
    slots = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64)
    used = np.zeros((len(slots), n), dtype=bool)
    np.put_along_axis(used, slots, True, axis=1)
    free = np.nonzero(~used)[1].reshape(len(slots), n - k)
    good = total = 0
    for ones in itertools.combinations(range(n - k), b2 - b):
        const = np.zeros(len(slots), dtype=np.int64)
        for j in ones:
            const |= 1 << free[:, j]
        inside = np.ones(len(slots), dtype=bool)
        for s in small:
            image = const.copy()
            for t, c in enumerate(s):
                if c == "1":
                    image |= 1 << slots[:, t]
            inside &= member[image]
        good += int(inside.sum())
        total += len(slots)
    require(total == factorial(n) // (factorial(a2 - a) * factorial(b2 - b)), "map count")
    return Fraction(good, total)


def check_density(small: Path, big: Path, result: dict) -> None:
    got = Fraction(result["stdout"].strip())
    expected = _density_oracle(small.read_text(encoding="utf-8"), big.read_text(encoding="utf-8"))
    require(got == expected, f"density {got}, bitmask enumeration gives {expected}")


@functools.cache
def _q4_no_distance_two() -> int:
    """Largest set of 4-bit vertices with no two at Hamming distance 2,
    by branching on each vertex (take it, or leave it out)."""
    conflict = [sum(1 << u for u in range(16) if bin(u ^ v).count("1") == 2) for v in range(16)]

    def best(candidates: int) -> int:
        if not candidates:
            return 0
        v = (candidates & -candidates).bit_length() - 1
        rest = candidates & ~(1 << v)
        return max(best(rest), 1 + best(rest & ~conflict[v]))

    return best((1 << 16) - 1)


def check_ex_cube(result: dict) -> None:
    value, witness = parse_ex(result["stdout"])
    expected = _q4_no_distance_two()
    require(value == expected, f"ex-cube = {value}, brute force gives {expected}")
    require(len(set(witness)) == value and all(len(s) == 4 for s in witness), "bad witness")
    for s, t in itertools.combinations(witness, 2):
        require(bin(mask(s) ^ mask(t)).count("1") != 2, f"witness {s} {t} at distance 2")


def _random_patterns(rng: random.Random, count: int) -> list[tuple[VertexPattern, int, int]]:
    """Random non-empty vertex patterns, each with a target layer of at
    most 16 strings (the brute-force oracle's guard) dominating it."""
    targets = [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4)]
    out = []
    for _ in range(count):
        a, b = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        layer = [s for s in (format(v, f"0{a + b}b") for v in range(1 << (a + b))) if in_layer(s, a, b)]
        strings = []
        while not strings:
            strings = [s for s in layer if rng.random() < 0.5]
        a2, b2 = rng.choice([t for t in targets if t[0] >= a and t[1] >= b])
        out.append((VertexPattern(a, b, frozenset(strings)), a2, b2))
    return out


def extremal(seed: int, work: Path) -> tuple[list[Job], dict]:
    """Jobs name their files relative to ``work``, the children's cwd."""
    rng = random.Random(seed)
    xc2 = work / "xc2.pat"
    xc2.write_text("vertex 1 1\n01\n10\n", encoding="utf-8")
    middle = work / "middle.pat"
    layer22 = [s for s in (format(v, "04b") for v in range(16)) if in_layer(s, 2, 2)]
    middle.write_text(format_pattern(VertexPattern(2, 2, frozenset(layer22))), encoding="utf-8")
    x16 = work / "x16.pat"

    jobs = [Job(["pattern", "named", "--name", "x16", "--out", x16.name],
                lambda r: check_x16(x16, r))]
    for a, b in XC2_LAYERS:
        jobs.append(Job(["ex-layer", "--a", str(a), "--b", str(b), "--pattern", xc2.name],
                        lambda r, a=a, b=b: check_xc2(a, b, r)))
    randoms = []
    for i, (x, a2, b2) in enumerate(_random_patterns(rng, 3)):
        path = work / f"random{i}.pat"
        text = format_pattern(x)
        path.write_text(text, encoding="utf-8")
        randoms.append({"layer": [x.a, x.b], "strings": sorted(x.strings), "target": [a2, b2]})
        jobs.append(Job(["ex-layer", "--a", str(a2), "--b", str(b2), "--pattern", path.name],
                        lambda r, t=text, a2=a2, b2=b2: check_random_ex(t, a2, b2, r)))

    def f2(a: int, b: int, mode: str, name: str, s: int | None = None) -> tuple[int, Path]:
        s = rng.randrange(2**31) if s is None else s
        path = work / name
        jobs.append(Job(["f2", "--a", str(a), "--b", str(b), "--seed", str(s), "--mode", mode,
                         "--out", path.name],
                        lambda r: check_f2(path, mode, a, b, s, r)))
        return s, path

    # The seed draws the four small sets that `contains` checks.  The sets
    # that the heavy jobs depend on have a fixed seed: `density` does more
    # work the denser its target set, and the sizes of the (10,10) and edge
    # sets set the workload's time and peak memory.  Drawn from the seed,
    # they moved the workload's normalized time by 10% between seeds.
    drawn = []
    for i in range(4):
        s, path = f2(4, 4, "vertex", f"f2_4_4_{i}.pat")
        drawn.append(s)
        jobs.append(Job(["contains", "--set", path.name, "--pattern", middle.name],
                        check_contains_no))
    _, set44 = f2(4, 4, "vertex", "f2_4_4.pat", s=1)
    _, set54 = f2(5, 4, "vertex", "f2_5_4.pat", s=1)
    f2(10, 10, "vertex", "f2_10_10.pat", s=1)
    f2(6, 6, "edge", "f2e_6_6.pat", s=1)
    f2(7, 7, "edge", "f2e_7_7.pat", s=1)
    for big in (set44, set54):
        jobs.append(Job(["density", "--small", x16.name, "--big", big.name],
                        lambda r, big=big: check_density(x16, big, r)))
    jobs.append(Job(["ex-cube", "--n", "4", "--pattern", xc2.name], check_ex_cube))

    descriptors = {
        "xc2_layer_sizes": {f"L({a},{b})": comb(a + b, b) for a, b in XC2_LAYERS},
        "xc2_maps": sum(factorial(a + b) // (factorial(a - 1) * factorial(b - 1))
                        for a, b in XC2_LAYERS),
        "random_patterns": randoms,
        "f2_drawn_seeds": drawn,
        "f2_fixed_seed": 1,
        "f2_strings_tested": 5 * comb(8, 4) + comb(9, 4) + comb(20, 10)
        + 13 * comb(12, 6) + 15 * comb(14, 7),
        "contains_maps": 4 * factorial(8) // (factorial(2) * factorial(2)),
        "density_maps": {"L(4,4)": factorial(8), "L(5,4)": factorial(9) // 2},
    }
    return jobs, descriptors


WORKLOADS = {"tables": tables, "m-terms": m_terms, "extremal": extremal, "verify": verify}
