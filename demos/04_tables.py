#!/usr/bin/env python3
"""The two quantitative tables, recomputed from scratch.

The maximum spanning-tree count over connected series-parallel graphs
with d edges is the Fibonacci number F(d+1): an exhaustive isomorphism
census confirms it at desk scale, and the alternating duplicate/subdivide
chain achieves it far beyond.  The analogous maximum m(d) for edge
patterns has no closed form; the dominance DP reproduces it with
witnesses, every one of which revalidates by brute force.
"""

from spcube.patterns import y_pattern
from spcube.search import check_m_bounds, fib, fib_table, m_table
from spcube.spterm import to_marked_graph


def main():
    print("d : exhaustive max trees / chain value / F(d+1)")
    chain = fib_table(12, "witness")
    exhaustive = fib_table(9)
    for d in range(10):
        print(f"{d:2d}: {exhaustive[d].value:4d} {chain[d].value:4d} {fib(d + 1):4d}")
    for d in range(10, 13):
        print(f"{d:2d}:    - {chain[d].value:4d} {fib(d + 1):4d}")

    print("\nd : m(d)  bounds F(d+2)-1 .. d*F(d+2)/2   witness")
    rows = m_table(12)
    report = check_m_bounds(rows)
    for row, rep in zip(rows, report):
        print(
            f"{row.d:2d}: {row.value:4d}  {rep['lower']:5d} .. {float(rep['upper']):7.1f}"
            f"   {row.witness_text()}"
        )

    print("\nrevalidating every witness by tree-set enumeration:")
    ok = all(
        len(y_pattern(to_marked_graph(row.witness), 0)) == row.value for row in rows
    )
    print("all witnesses reproduce their table value:", ok)


if __name__ == "__main__":
    main()
