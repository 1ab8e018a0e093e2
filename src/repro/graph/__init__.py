"""Graph substrate: data containers, normalisation, propagation and caching."""

from repro.graph.data import GraphData, GraphDelta, next_version
from repro.graph.view import (
    GraphView,
    PropagatedView,
    StackedFeatures,
    poison_graph_view,
)
from repro.graph.normalize import (
    gcn_normalize,
    incremental_gcn_normalize,
    self_loop_degrees,
    row_normalize,
    add_self_loops,
    symmetric_laplacian,
)
from repro.graph.propagation import (
    sgc_precompute,
    sgc_precompute_hops,
    incremental_sgc_delta,
    incremental_sgc_precompute,
    reachable_rows,
    appnp_propagate,
    chebyshev_polynomials,
)
from repro.graph.cache import PropagationCache, get_default_cache, set_default_cache
from repro.graph.blocked import (
    BlockedArray,
    blocked_precompute_hops,
    blocked_spmm,
    blocked_threshold,
    set_blocked_threshold,
)
from repro.graph.subgraph import (
    k_hop_subgraph,
    induced_subgraph,
    attach_trigger_adjacency,
    drop_undirected_edges,
)
from repro.graph.generators import (
    stochastic_block_model,
    degree_corrected_sbm,
    class_correlated_features,
)
from repro.graph.splits import SplitIndices, make_planetoid_split, make_inductive_split

__all__ = [
    "GraphData",
    "GraphDelta",
    "next_version",
    "GraphView",
    "PropagatedView",
    "StackedFeatures",
    "poison_graph_view",
    "PropagationCache",
    "get_default_cache",
    "set_default_cache",
    "BlockedArray",
    "blocked_precompute_hops",
    "blocked_spmm",
    "blocked_threshold",
    "set_blocked_threshold",
    "gcn_normalize",
    "incremental_gcn_normalize",
    "self_loop_degrees",
    "row_normalize",
    "add_self_loops",
    "symmetric_laplacian",
    "sgc_precompute",
    "sgc_precompute_hops",
    "incremental_sgc_delta",
    "incremental_sgc_precompute",
    "reachable_rows",
    "appnp_propagate",
    "chebyshev_polynomials",
    "k_hop_subgraph",
    "induced_subgraph",
    "attach_trigger_adjacency",
    "drop_undirected_edges",
    "stochastic_block_model",
    "degree_corrected_sbm",
    "class_correlated_features",
    "SplitIndices",
    "make_planetoid_split",
    "make_inductive_split",
]
