"""Graph substrate: attributed digraphs, traversals, SCCs, distances."""

from .digraph import DiGraph, GraphError
from .distance import DistanceMatrix, floyd_warshall
from .generators import (
    chain,
    complete_graph,
    cycle_graph,
    densification_sequence,
    random_dag,
    star,
    synthetic_graph,
)
from .io import (
    graph_from_dict,
    graph_to_dict,
    load_edge_list,
    load_json,
    save_edge_list,
    save_json,
)
from .scc import (
    condensation,
    is_dag,
    strongly_connected_components,
    topological_order,
    topological_ranks,
)
from .traversal import (
    INF,
    ancestors_within,
    bfs_distances,
    descendants_within,
    has_path_of_length_at_most,
    is_reachable,
    path_distance,
    reachable_set,
    shortest_cycle_through,
)
from .twohop import TwoHopLabels

__all__ = [
    "DiGraph",
    "GraphError",
    "DistanceMatrix",
    "floyd_warshall",
    "TwoHopLabels",
    "INF",
    "bfs_distances",
    "descendants_within",
    "ancestors_within",
    "path_distance",
    "is_reachable",
    "reachable_set",
    "shortest_cycle_through",
    "has_path_of_length_at_most",
    "strongly_connected_components",
    "condensation",
    "is_dag",
    "topological_order",
    "topological_ranks",
    "synthetic_graph",
    "densification_sequence",
    "random_dag",
    "chain",
    "cycle_graph",
    "complete_graph",
    "star",
    "graph_to_dict",
    "graph_from_dict",
    "save_json",
    "load_json",
    "save_edge_list",
    "load_edge_list",
]
