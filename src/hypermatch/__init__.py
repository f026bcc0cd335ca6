"""Desk-scale laboratory for matchings in k-uniform hypergraphs."""

from .core import (
    KGraph,
    Matching,
    degree,
    format_graph,
    independence_number,
    induced,
    is_stable,
    link,
    min_l_degree,
    parse_graph,
    verify_matching,
)
from .constructions import (
    VertexPartition,
    build_Hkl,
    build_Hknm,
    complete,
    join_clique,
    parity_construction,
    random_kgraph,
    random_kgraph_conditioned,
    space_barrier,
    vertex_degree_threshold,
)

__version__ = "0.1.0"
