#!/usr/bin/env python3
"""Tree patterns of a small graph, coordinate by coordinate.

Builds the 5-edge graph K4-minus-an-edge, reads off its spanning-tree
pattern X as binary strings (coordinate i = edge i), and shows how
contracting or deleting the last edge splits X into the two endpoint sets
of the edge pattern Y, which here forms an 8-cycle inside Q4.
"""

from spcube import catalog
from spcube.multigraph import contract, delete_edge
from spcube.patterns import format_string, h_graph, pg_shape, x_pattern, y_pattern


def main():
    g = catalog.k4_minus_edge()
    print(f"graph: {g.n} vertices, edges {g.edges}")

    x = x_pattern(g)
    print(f"\nX lives in the layer with {x.a} zeros and {x.b} ones:")
    for s in x.sorted_strings:
        print(" ", s)

    lower = x_pattern(contract(g, 4))
    upper = x_pattern(delete_edge(g, 4))
    print("\ncontract edge 4 ->", " ".join(lower.sorted_strings))
    print("delete   edge 4 ->", " ".join(upper.sorted_strings))

    y = y_pattern(g, 4)
    print("\nstarred pairs between them (the edge pattern Y):")
    print(" ", " ".join(y.sorted_strings))

    h = h_graph(g, 4)
    print(f"\nas a bipartite graph: {pg_shape(h)}")
    # the graph holds masks (bit j = coordinate j); walk it by their strings
    name = {v: format_string(v, h.width) for v in h.lower | h.upper}
    adj = {s: set() for s in name.values()}
    for lo, hi in h.edges:
        adj[name[lo]].add(name[hi])
        adj[name[hi]].add(name[lo])
    walk = [min(name[v] for v in h.lower)]
    prev = None
    for _ in range(len(adj)):
        nxt = sorted(v for v in adj[walk[-1]] if v != prev)[0]
        prev = walk[-1]
        walk.append(nxt)
    print("cycle walk:", " - ".join(walk))


if __name__ == "__main__":
    main()
