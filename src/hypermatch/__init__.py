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
    max_l_degree,
    min_l_degree,
    parse_graph,
    remove,
    stable_closure,
    verify_matching,
)
from .constructions import (
    ThresholdSpec,
    VertexPartition,
    build_Hkl,
    build_Hknm,
    complete,
    erdos_threshold,
    join_clique,
    l_degree_conjectured_fraction,
    parity_construction,
    random_kgraph,
    random_kgraph_conditioned,
    space_barrier,
    vertex_degree_threshold,
)

__version__ = "0.1.0"
