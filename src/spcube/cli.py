"""Command-line surface.

Exit codes: 0 success, 1 domain error, 2 size-guard refusal, 64 usage
error.  Every run echoes its resolved invocation (seeds and limits
included) to stderr so results are reproducible from the transcript.
Randomized commands require an explicit --seed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import comb

from .constructions import (
    density_lower_bound,
    f2_edge_set,
    f2_vertex_density,
    f2_vertex_set,
)
from .embeddings import contains_pattern, density_t, ex_cube, ex_layer
from .errors import SizeGuardError
from .multigraph import load_graph
from .operators import CODUP, DUP, duplicate_e, duplicate_v
from .patterns import (
    EdgePattern,
    VertexPattern,
    dual_pattern,
    format_pattern,
    h_graph,
    load_pattern,
    named_pattern,
    NAMED_PATTERN_NOTES,
    parse_pattern,
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
from .search import fib_table, m_table, check_m_bounds, rows_to_csv, rows_to_markdown
from .verify import run_all

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def _build_parser() -> _Parser:
    p = _Parser(prog="spcube", description=__doc__)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="parallelism hint; results are independent of it (execution is sequential)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pat = sub.add_parser("pattern", help="derive or emit patterns")
    pat.add_argument("kind", choices=["x", "y", "h", "named"])
    pat.add_argument("--graph", help="graph JSON file (for x/y/h)")
    pat.add_argument("--edge", type=int, help="marked edge index (0-based)")
    pat.add_argument("--name", help="named pattern: alon, partite, x16, y18, x_k4, y_k4")
    pat.add_argument("--params", help="comma-separated block sizes for alon/partite")
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
    exc.add_argument("--mode", choices=["vertex", "edge"], help="cross-checked against the pattern file")

    f2 = sub.add_parser("f2", help="GF(2) basis-selected layer subset")
    f2.add_argument("--a", type=int, required=True)
    f2.add_argument("--b", type=int, required=True)
    f2.add_argument("--seed", type=int, required=True)
    f2.add_argument("--mode", choices=["vertex", "edge"], default="vertex")
    f2.add_argument("--out")

    tab = sub.add_parser("table", help="reproduce the quantitative tables")
    tab.add_argument("which", choices=["fib", "m"])
    tab.add_argument("--max-d", type=int, required=True)
    tab.add_argument("--witness-only", action="store_true", help="fib: chain mode only")
    tab.add_argument("--method", choices=["dp", "terms"], default="dp", help="m only")
    tab.add_argument("--emit", choices=["csv", "md"], default="csv")

    ver = sub.add_parser("verify", help="run the full invariant suite")
    ver.add_argument("--deep", action="store_true", help="full documented bounds (slow)")
    return p


_POSITIONAL = {"pattern": "kind", "op": "op_name", "table": "which"}


def _echo(args: argparse.Namespace) -> None:
    pos_key = _POSITIONAL.get(args.command)
    parts = [args.command]
    if pos_key:
        parts.append(str(getattr(args, pos_key)))
    for key, val in sorted(vars(args).items()):
        if key in ("command", pos_key) or val is None or val is False:
            continue
        name = key.replace("_", "-")
        if name == "set-file":
            name = "set"
        parts.append(f"--{name}" if val is True else f"--{name} {val}")
    sys.stderr.write("# spcube " + " ".join(parts) + "\n")


def _emit_pattern(pattern, out: str | None) -> None:
    text = format_pattern(pattern)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_any_set(path: str):
    """Pattern file (layer mode) or bare strings, one per line (cube mode)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if first.split() and first.split()[0] in ("vertex", "edge"):
        return parse_pattern(text)
    return frozenset(ln.strip() for ln in text.splitlines() if ln.strip())


def _cmd_pattern(args) -> int:
    if args.kind == "named":
        if not args.name:
            raise ValueError("pattern named requires --name")
        sizes = tuple(int(x) for x in args.params.split(",")) if args.params else ()
        pattern = named_pattern(args.name, sizes)
        if args.name in NAMED_PATTERN_NOTES:
            sys.stderr.write(f"# note: {NAMED_PATTERN_NOTES[args.name]}\n")
        _emit_pattern(pattern, args.out)
        return 0
    if not args.graph:
        raise ValueError(f"pattern {args.kind} requires --graph")
    g = load_graph(args.graph)
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(pg_to_json(h) + "\n")
    return 0


def _cmd_op(args) -> int:
    if args.op_name == "product-join":
        if not args.h1 or not args.h2:
            raise ValueError("product-join requires --h1 and --h2")
        with open(args.h1, encoding="utf-8") as fh:
            h1 = pg_from_json(fh.read())
        with open(args.h2, encoding="utf-8") as fh:
            h2 = pg_from_json(fh.read())
        joined = product_join(h1, h2)
        text = pg_to_json(joined) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
    target = _load_any_set(args.set_file)
    pattern = load_pattern(args.pattern)
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
    pattern = load_pattern(args.pattern)
    is_edge = isinstance(pattern, EdgePattern)
    if args.mode and (args.mode == "edge") != is_edge:
        raise ValueError("--mode contradicts the pattern file kind")
    value, witness = ex_cube(args.n, pattern)
    print(f"ex = {value}")
    print("witness " + " ".join(witness))
    return 0


def _cmd_f2(args) -> int:
    if args.mode == "vertex":
        pattern = f2_vertex_set(args.a, args.b, args.seed)
        density = f2_vertex_density(args.a, args.b, args.seed)
        bound = density_lower_bound(args.b)
    else:
        pattern = f2_edge_set(args.a, args.b, args.seed)
        layer = (args.a + args.b + 1) * comb(args.a + args.b, args.b)
        density = Fraction(len(pattern.strings), layer)
        # 1/4 times prod_{i=1..b} (1 - 2^-(i+1))
        bound = density_lower_bound(args.b + 1) / 2
    _emit_pattern(pattern, args.out)
    sys.stderr.write(
        f"# seed {args.seed} size {len(pattern.strings)} "
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
        if args.threads < 1:
            parser.error("--threads must be at least 1")
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
