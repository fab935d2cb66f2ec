"""Spanning-tree patterns of series-parallel multigraphs in hypercube layers.

The package builds the vertex patterns X (tree sets) and edge patterns Y
(tree-pair sets) of series-parallel multigraphs, the layer operators that
mirror edge duplication and subdivision, embedding maps and densities
between layers, GF(2) basis-selected dense avoiding sets, and the exact
desk-scale searches behind the Fibonacci tree maxima and the max-edge
table.
"""

from .errors import SizeGuardError
from .multigraph import (
    Block,
    Multigraph,
    add_leaf,
    add_loop,
    blocks,
    canonical_form,
    contract,
    delete_edge,
    duplicate_edge,
    graph_from_json,
    graph_to_json,
    has_k4_minor,
    is_isomorphic,
    is_series_parallel,
    is_two_connected,
    load_graph,
    one_sum,
    permute_edges,
    save_graph,
    spanning_trees,
    subdivide_edge,
    tree_count,
    two_sum,
)
from .spterm import (
    EDGE,
    SpTerm,
    canonical,
    canonical_key,
    dual,
    edge_count,
    enumerate_connected_sp,
    enumerate_terms,
    format_term,
    parallel,
    parse_term,
    series,
    tf_counts,
    to_marked_graph,
    tree_bitsets,
    tree_sets,
)
from .patterns import (
    EdgePattern,
    PatternGraph,
    VertexPattern,
    alon_pattern,
    dual_pattern,
    edge_pattern_from_pattern_graph,
    format_pattern,
    format_string,
    h_graph,
    layer_masks,
    layer_strings,
    load_pattern,
    named_pattern,
    parse_pattern,
    parse_string,
    partite_pattern,
    pattern_graph_from_edge_pattern,
    pg_components,
    pg_is_connected,
    pg_is_two_connected,
    phi,
    product_join,
    psi,
    save_pattern,
    starred_layer_masks,
    starred_layer_strings,
    x16_pattern,
    x_k4_pattern,
    x_pattern,
    y18_pattern,
    y_k4_pattern,
    y_pattern,
)
from .operators import CODUP, DUP, duplicate_e, duplicate_v
from .embeddings import (
    EmbeddingMap,
    apply_map,
    contains_pattern,
    count_maps,
    density_t,
    enumerate_maps,
    ex_cube,
    ex_layer,
    ex_layer_bruteforce,
)
from .constructions import (
    density_lower_bound,
    f2_edge_set,
    f2_edge_set_from_vectors,
    f2_vertex_count,
    f2_vertex_density,
    f2_vertex_set,
    f2_vertex_set_from_vectors,
    gf2_rank,
)
from .search import (
    TableRow,
    check_m_bounds,
    fib,
    fib_table,
    m_table,
    m_value,
    max_spanning_trees,
    rows_to_csv,
    rows_to_markdown,
)
from . import catalog

__version__ = "0.1.0"
