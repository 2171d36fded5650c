"""The paper's algorithms: query structure (Sec. 3), punting processes
(Sec. 4), the O(log^2 n) simple DnC (Sec. 5) and the O(log n) fast DnC
(Sec. 6), plus the result types they share (:class:`KNNResult`, the
k-neighborhood system and its k-NN graph).
"""

from .graph_separators import (
    GraphSeparatorNode,
    elimination_fill,
    build_separator_tree,
    check_separation,
    nested_dissection_order,
    separator_profile,
)
from .config import DTYPES, ENGINES, CommonConfig
from .correction import (
    MarchResult,
    apply_candidate_pairs_batch,
    march_balls,
    query_correction_pairs,
)
from .fast_dnc import FastDnCConfig, FastDnCStats, parallel_nearest_neighborhood
from .knn_graph import KNNResult, adjacency_lists, knn_graph_edges, max_degree, to_networkx
from .neighborhood import KNeighborhoodSystem, merge_neighbor_lists
from .online import (
    CommitInfo,
    MutableIndex,
    UpdateStats,
    equivalence_report,
    online_sample_size,
    tree_signature,
)
from .partition_tree import PartitionNode
from .punting import (
    DuplicationTrace,
    ab_tree_trials,
    punted_weighted_depth,
    simulate_ab_tree,
    simulate_duplication,
)
from .query_points import knn_query
from .query import NeighborhoodQueryStructure, QueryConfig, QueryNode, QueryStats
from .verify import VerificationReport, verify_system
from .simple_dnc import SimpleDnCConfig, SimpleDnCStats, simple_parallel_dnc

__all__ = [
    "GraphSeparatorNode",
    "build_separator_tree",
    "check_separation",
    "elimination_fill",
    "nested_dissection_order",
    "separator_profile",
    "CommonConfig",
    "ENGINES",
    "DTYPES",
    "MarchResult",
    "apply_candidate_pairs_batch",
    "march_balls",
    "query_correction_pairs",
    "FastDnCConfig",
    "FastDnCStats",
    "parallel_nearest_neighborhood",
    "KNNResult",
    "adjacency_lists",
    "knn_graph_edges",
    "max_degree",
    "to_networkx",
    "KNeighborhoodSystem",
    "merge_neighbor_lists",
    "PartitionNode",
    "CommitInfo",
    "MutableIndex",
    "UpdateStats",
    "equivalence_report",
    "online_sample_size",
    "tree_signature",
    "DuplicationTrace",
    "ab_tree_trials",
    "punted_weighted_depth",
    "simulate_ab_tree",
    "simulate_duplication",
    "knn_query",
    "NeighborhoodQueryStructure",
    "QueryConfig",
    "QueryNode",
    "QueryStats",
    "SimpleDnCConfig",
    "SimpleDnCStats",
    "simple_parallel_dnc",
    "VerificationReport",
    "verify_system",
]
