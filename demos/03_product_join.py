#!/usr/bin/env python3
"""Two-terminal networks, 2-sums, and the product-join of pattern graphs.

Every 2-connected series-parallel graph with a marked edge is a term over
series/parallel composition; gluing two of them along their marked edges
multiplies the lower parts of their pattern graphs and joins the uppers,
which is exactly the product-join.  The named alon/partite families are
the patterns of cycles of parallel classes.
"""

from itertools import product

from spcube import catalog
from spcube.patterns import (
    alon_pattern,
    h_graph,
    partite_pattern,
    pg_shape,
    product_join,
    x_pattern,
    y_pattern,
)
from spcube.spterm import enumerate_terms, format_term, to_marked_graph
from spcube.multigraph import two_sum


def one_mark(size, mark):
    """The strings of one block of the given size with a single mark."""
    return ["0" * j + mark + "0" * (size - 1 - j) for j in range(size)]


def block_strings(sizes, special):
    """Strings of one block per size: one block from ``special(size)``
    and every other block holding a single 1."""
    strings = set()
    for k in range(len(sizes)):
        blocks = [special(s) if i == k else one_mark(s, "1") for i, s in enumerate(sizes)]
        strings.update("".join(p) for p in product(*blocks))
    return strings


def main():
    print("two-terminal networks with up to 5 edges:")
    for d in range(1, 6):
        terms = list(enumerate_terms(d))
        preview = ", ".join(format_term(t) for t in terms[:4])
        more = "" if len(terms) <= 4 else f", ... ({len(terms)} total)"
        print(f"  {d} edges: {preview}{more}")

    t1 = next(enumerate_terms(3))
    t2 = next(enumerate_terms(2))
    g1, g2 = to_marked_graph(t1), to_marked_graph(t2)
    print(f"\nglue {format_term(t1)} with {format_term(t2)} along the marks")
    glued = h_graph(two_sum(g1, g2), 0)
    joined = product_join(h_graph(g1, 0), h_graph(g2, 0))
    print("pattern graph of the 2-sum:", pg_shape(glued))
    print("product-join of the parts: ", pg_shape(joined))
    print("string-for-string equal:   ", glued == joined)

    print("\nnamed families from cycles of parallel classes:")
    sizes = (2, 1, 2)
    print(f"  alon{sizes}   ==", " ".join(alon_pattern(sizes).sorted_strings))
    print("  equals X of the class cycle:",
          x_pattern(catalog.alon_graph(sizes)).strings
          == block_strings(sizes, lambda s: ["0" * s]))
    print(f"  partite{(1, 2)} ==", " ".join(partite_pattern((1, 2)).sorted_strings))
    print("  equals Y of the marked path:",
          y_pattern(catalog.partite_graph((1, 2))).strings
          == block_strings((1, 2), lambda s: one_mark(s, "*")))


if __name__ == "__main__":
    main()
