"""Command-line surface.

Exit codes: 0 success, 1 domain error, 2 size-guard refusal, 64 usage
error.  Every run echoes its resolved invocation (seeds and limits
included) to stderr so results are reproducible from the transcript.
Randomized commands require an explicit --seed.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from fractions import Fraction

from .constructions import (
    density_lower_bound,
    f2_edge_set,
    f2_vertex_set,
)
from .embeddings import contains_pattern, density_t, ex_cube, ex_layer
from .errors import SizeGuardError
from .multigraph import CORE_VERTEX_LIMIT, load_graph, tree_count
from .operators import CODUP, DUP, duplicate_e, duplicate_v
from .patterns import (
    EdgePattern,
    VertexPattern,
    dual_pattern,
    format_pattern,
    h_graph,
    layer_size,
    load_pattern,
    named_pattern,
    NAMED_PATTERN_NOTES,
    PATTERN_OUTPUT_LIMIT,
    parse_pattern,
    parse_string,
    pg_from_json,
    pg_is_connected,
    pg_shape,
    pg_to_json,
    phi,
    product_join,
    psi,
    x_pattern,
    y_pattern,
)
from .search import (
    EXHAUSTIVE_TREE_LIMIT,
    M_TABLE_LIMIT,
    M_TERMS_LIMIT,
    WITNESS_CHAIN_LIMIT,
    check_m_bounds,
    fib_table,
    m_table,
    rows_to_csv,
    rows_to_markdown,
)
from .verify import run_all

__all__ = ["main"]

# ``pattern x|y|h --graph`` builds strings from every spanning tree; at this
# many trees ``pattern h --out`` takes 1.5 s and 256 MB (``alon_graph`` of
# classes 4, 4, 4, 4, 8, 8, 12 at edge 0; Python 3.11, shared 2-core x86
# machine), and K_9 has 4.8 million.  On ``alon_graph((8,) * 6)``, 196,608
# trees: ``h_graph`` 0.35 s, a search on H's edges for ``connected`` 0.09 s
# and ``pg_to_json`` 0.43 s.  At 2^19 trees (``alon_graph((2,) * 16)``) it
# takes 3.0-3.1 s and 375-378 MB, half again the memory used here, so the
# guard stays.  ``tree_count``, which checks the guard, refuses a graph
# whose irreducible core exceeds ``multigraph.CORE_VERTEX_LIMIT`` vertices.
PATTERN_TREE_LIMIT = 2**18


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def _build_parser() -> _Parser:
    p = _Parser(prog="spcube", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pat = sub.add_parser("pattern", help="derive or emit patterns")
    pat.add_argument("kind", choices=["x", "y", "h", "named"])
    pat.add_argument(
        "--graph",
        help=f"graph JSON file (for x/y/h); refused (exit 2) above {PATTERN_TREE_LIMIT} "
        f"spanning trees, above {PATTERN_OUTPUT_LIMIT} for trees x edges, or with an "
        f"irreducible (non-series-parallel) core above {CORE_VERTEX_LIMIT} vertices",
    )
    pat.add_argument("--edge", type=int, help="marked edge index (0-based)")
    pat.add_argument("--name", help="named pattern: alon, partite, x16, y18, x_k4, y_k4")
    pat.add_argument(
        "--params",
        help="comma-separated block sizes for alon/partite; refused (exit 2) above "
        f"{PATTERN_OUTPUT_LIMIT} for elements x width",
    )
    pat.add_argument("--out", help="output file (pattern file, or JSON for h)")

    op = sub.add_parser("op", help="apply a pattern operator")
    op.add_argument(
        "op_name",
        metavar="name",
        choices=["dup", "codup", "dual", "phi", "psi", "product-join"],
    )
    op.add_argument("--pattern", help="pattern file")
    op.add_argument("--coord", type=int, help="coordinate index (0-based)")
    op.add_argument("--h1", help="pattern-graph JSON (product-join)")
    op.add_argument("--h2", help="pattern-graph JSON (product-join)")
    op.add_argument("--out")

    den = sub.add_parser("density", help="embedding density t(small, big)")
    den.add_argument("--small", required=True)
    den.add_argument("--big", required=True)

    con = sub.add_parser("contains", help="does the set contain an embedded copy?")
    con.add_argument("--set", required=True, dest="set_file")
    con.add_argument("--pattern", required=True)

    exl = sub.add_parser("ex-layer", help="exact extremal number within one layer")
    exl.add_argument("--a", type=int, required=True)
    exl.add_argument("--b", type=int, required=True)
    exl.add_argument("--pattern", required=True)
    exl.add_argument("--brute-force", action="store_true")

    exc = sub.add_parser("ex-cube", help="exact extremal number over the whole cube")
    exc.add_argument("--n", type=int, required=True)
    exc.add_argument("--pattern", required=True)

    f2 = sub.add_parser("f2", help="GF(2) basis-selected layer subset")
    f2.add_argument("--a", type=int, required=True)
    f2.add_argument("--b", type=int, required=True)
    f2.add_argument(
        "--seed", type=int, required=True,
        help="integer key of the vector stream, 0 <= seed < 2**128",
    )
    f2.add_argument("--mode", choices=["vertex", "edge"], default="vertex")
    f2.add_argument("--out")

    tab = sub.add_parser("table", help="reproduce the quantitative tables")
    tab.add_argument("which", choices=["fib", "m"])
    tab.add_argument(
        "--max-d", type=int, required=True,
        help=f"last row; table fib is guarded at {EXHAUSTIVE_TREE_LIMIT} "
        f"({WITNESS_CHAIN_LIMIT} with --witness-only), table m at {M_TABLE_LIMIT} "
        f"({M_TERMS_LIMIT} with --method terms)",
    )
    tab.add_argument(
        "--witness-only", action="store_true",
        help="table fib only: the witness chain's lower bound instead of the census",
    )
    tab.add_argument(
        "--method", choices=["dp", "terms"],
        help="table m only: the frontier DP (the default) or every canonical term",
    )
    tab.add_argument("--emit", choices=["csv", "md"], default="csv")

    ver = sub.add_parser("verify", help="run the full invariant suite")
    ver.add_argument("--deep", action="store_true", help="full documented bounds (slow)")
    return p


_POSITIONAL = {"pattern": "kind", "op": "op_name", "table": "which"}


def _check_table_options(parser: _Parser, args: argparse.Namespace) -> None:
    """Refuse (exit 64) a ``table`` option that the chosen table does not
    read, and resolve ``table m``'s default method."""
    if args.which == "fib" and args.method is not None:
        parser.error("--method applies to table m only")
    if args.which == "m" and args.witness_only:
        parser.error("--witness-only applies to table fib only")
    if args.which == "m" and args.method is None:
        args.method = "dp"


def _echo(args: argparse.Namespace) -> None:
    """Write the resolved invocation to stderr as a command line that runs
    again as it stands: the subcommand and its options, each value
    shell-quoted."""
    pos_key = _POSITIONAL.get(args.command)
    parts = [args.command]
    if pos_key:
        parts.append(shlex.quote(str(getattr(args, pos_key))))
    for key, val in sorted(vars(args).items()):
        if key in ("command", pos_key) or val is None or val is False:
            continue
        name = key.replace("_", "-")
        if name == "set-file":
            name = "set"
        parts.append(f"--{name}" if val is True else f"--{name} {shlex.quote(str(val))}")
    sys.stderr.write("# spcube " + " ".join(parts) + "\n")


def _write(text: str, out: str | None) -> None:
    """Write text to the file ``out``, or to stdout when there is none."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_pattern(pattern, out: str | None) -> None:
    _write(format_pattern(pattern), out)


def _load_any_set(path: str, starred: bool):
    """Pattern file (layer mode) or bare strings, one per line (cube mode).

    Cube-mode lines must be 0/1 strings of one length, with one ``*``
    each when the pattern is an edge pattern; the first line that is not
    is named in the error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if first.split() and first.split()[0] in ("vertex", "edge"):
        return parse_pattern(text)
    width = len(first.strip())
    strings = []
    for number, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s:
            continue
        try:
            parse_string(s, width, starred)
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
        strings.append(s)
    return frozenset(strings)


def _named_output(name: str, sizes: tuple[int, ...]) -> int:
    """Characters in the strings of the alon or partite pattern with these
    block sizes, elements x width, counted without building an element.

    Alon's pattern has sum_i prod_{j != i} s_j elements and partite's
    k prod_j s_j; both are sum_j s_j characters wide.  An element count
    past ``PATTERN_OUTPUT_LIMIT`` is cut to just above it, so long size
    lists cost no big products.  Other names, and sizes that the builders
    refuse, count 0.
    """
    if name not in ("alon", "partite") or any(s < 1 for s in sizes):
        return 0
    cap = PATTERN_OUTPUT_LIMIT + 1
    prod, alon = 1, 0
    for s in sizes:
        # alon's all-zero block is among the earlier blocks (then the new
        # block holds one of s ones) or is the new block
        prod, alon = min(prod * s, cap), min(alon * s + prod, cap)
    elements = alon if name == "alon" else min(len(sizes) * prod, cap)
    return elements * sum(sizes)


def _cmd_pattern(args) -> int:
    if args.kind == "named":
        if not args.name:
            raise ValueError("pattern named requires --name")
        sizes = tuple(int(x) for x in args.params.split(",")) if args.params else ()
        if _named_output(args.name, sizes) > PATTERN_OUTPUT_LIMIT:
            raise SizeGuardError(
                f"the {args.name} pattern would write over {PATTERN_OUTPUT_LIMIT} "
                "characters, the pattern output guard (elements x width)"
            )
        pattern = named_pattern(args.name, sizes)
        if args.name in NAMED_PATTERN_NOTES:
            sys.stderr.write(f"# note: {NAMED_PATTERN_NOTES[args.name]}\n")
        _emit_pattern(pattern, args.out)
        return 0
    if not args.graph:
        raise ValueError(f"pattern {args.kind} requires --graph")
    g = load_graph(args.graph)
    trees = tree_count(g) if g.n else 0  # spanning_trees reports an empty graph
    if trees > PATTERN_TREE_LIMIT:
        raise SizeGuardError(f"{trees} spanning trees exceed the pattern guard {PATTERN_TREE_LIMIT}")
    if trees * g.e > PATTERN_OUTPUT_LIMIT:
        raise SizeGuardError(
            f"{trees} spanning trees of {g.e} edges exceed the pattern output guard "
            f"{PATTERN_OUTPUT_LIMIT} (trees x edges)"
        )
    if args.kind == "x":
        _emit_pattern(x_pattern(g), args.out)
        return 0
    edge = args.edge if args.edge is not None else g.distinguished
    if edge is None:
        raise ValueError("pattern y/h requires --edge or a marked graph")
    if args.kind == "y":
        _emit_pattern(y_pattern(g, edge), args.out)
        return 0
    h = h_graph(g, edge)
    print(f"lower {len(h.lower)} upper {len(h.upper)} edges {len(h.edges)}")
    print(f"connected {pg_is_connected(h)}")
    print(f"shape {pg_shape(h)}")
    if args.out:
        _write(pg_to_json(h) + "\n", args.out)
    return 0


def _cmd_op(args) -> int:
    if args.op_name == "product-join":
        if not args.h1 or not args.h2:
            raise ValueError("product-join requires --h1 and --h2")
        with open(args.h1, encoding="utf-8") as fh:
            h1 = pg_from_json(fh.read())
        with open(args.h2, encoding="utf-8") as fh:
            h2 = pg_from_json(fh.read())
        _write(pg_to_json(product_join(h1, h2)) + "\n", args.out)
        return 0
    if not args.pattern:
        raise ValueError(f"op {args.op_name} requires --pattern")
    pattern = load_pattern(args.pattern)
    if args.op_name in ("dup", "codup"):
        if args.coord is None:
            raise ValueError("dup/codup require --coord")
        kind = DUP if args.op_name == "dup" else CODUP
        if isinstance(pattern, VertexPattern):
            result = duplicate_v(pattern, args.coord, kind)
        else:
            result = duplicate_e(pattern, args.coord, kind)
    elif args.op_name == "dual":
        result = dual_pattern(pattern)
    elif args.op_name == "phi":
        if not isinstance(pattern, EdgePattern):
            raise ValueError("phi expects an edge pattern")
        result = phi(pattern)
    else:  # psi
        if args.coord is None:
            raise ValueError("psi requires --coord")
        if not isinstance(pattern, VertexPattern):
            raise ValueError("psi expects a vertex pattern")
        result = psi(pattern, args.coord)
    _emit_pattern(result, args.out)
    return 0


def _cmd_density(args) -> int:
    small = load_pattern(args.small)
    big = load_pattern(args.big)
    t = density_t(small, big)
    print(f"{t.numerator}/{t.denominator}")
    return 0


def _cmd_contains(args) -> int:
    pattern = load_pattern(args.pattern)
    target = _load_any_set(args.set_file, isinstance(pattern, EdgePattern))
    found, witness = contains_pattern(target, pattern)
    if found:
        print(f"contains: yes  witness: {witness}")
    else:
        print("contains: no")
    return 0


def _cmd_ex_layer(args) -> int:
    pattern = load_pattern(args.pattern)
    if args.brute_force:
        from .embeddings import ex_layer_bruteforce

        value, witness = ex_layer_bruteforce(args.a, args.b, pattern)
    else:
        value, witness = ex_layer(args.a, args.b, pattern)
    print(f"ex = {value}")
    print("witness " + " ".join(witness))
    return 0


def _cmd_ex_cube(args) -> int:
    value, witness = ex_cube(args.n, load_pattern(args.pattern))
    print(f"ex = {value}")
    print("witness " + " ".join(witness))
    return 0


def _cmd_f2(args) -> int:
    if args.mode == "vertex":
        pattern = f2_vertex_set(args.a, args.b, args.seed)
        bound = density_lower_bound(args.b)
    else:
        pattern = f2_edge_set(args.a, args.b, args.seed)
        # 1/4 times prod_{i=1..b} (1 - 2^-(i+1))
        bound = density_lower_bound(args.b + 1) / 2
    density = Fraction(len(pattern), layer_size(args.a, args.b, args.mode == "edge"))
    _emit_pattern(pattern, args.out)
    sys.stderr.write(
        f"# seed {args.seed} size {len(pattern)} "
        f"density {density.numerator}/{density.denominator} "
        f"(~{float(density):.4f}, basis probability ~{float(bound):.4f})\n"
    )
    return 0


def _cmd_table(args) -> int:
    if args.which == "fib":
        rows = fib_table(args.max_d, "witness" if args.witness_only else "exhaustive")
    else:
        rows = m_table(args.max_d, args.method)
        check_m_bounds(rows)
    text = rows_to_csv(rows) if args.emit == "csv" else rows_to_markdown(rows)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    return 0 if run_all(deep=args.deep) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "table":
            _check_table_options(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    _echo(args)
    handlers = {
        "pattern": _cmd_pattern,
        "op": _cmd_op,
        "density": _cmd_density,
        "contains": _cmd_contains,
        "ex-layer": _cmd_ex_layer,
        "ex-cube": _cmd_ex_cube,
        "f2": _cmd_f2,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except SizeGuardError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
