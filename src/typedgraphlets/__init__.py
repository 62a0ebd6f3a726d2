"""Typed-graphlet spectral clustering for heterogeneous graphs.

Builds motif-weighted adjacency matrices from induced typed-graphlet
occurrences and runs sweep-cut spectral clustering, node embeddings,
vertex orderings, and an evaluation harness on top of them.
"""

from .errors import (
    DegenerateCutError,
    EdgeListFormatError,
    EigenConvergenceError,
    GraphletAbsentError,
    UnknownTypeError,
    ZeroVolumeError,
)
from .graph import (
    HeteroGraph,
    WeightedGraph,
    connected_components,
    inverse_permutation,
    load_typed_edge_list,
    permute_graph,
    read_typed_edge_list,
)
from .graphlets import (
    SKELETON_ORDER,
    SKELETONS,
    Skeleton,
    TypedGraphletSignature,
    census,
    enumerate_all_instances,
    enumerate_instances,
    instances_matching,
    resolve_skeleton,
)
from .motifmatrix import (
    MotifMatrix,
    NormalizedLaplacian,
    build_motif_matrix,
    build_normalized_laplacian,
    edge_expansion_measure,
    normalized_laplacian,
    typed_conductance,
    typed_cut,
)
from .oracles import (
    brute_force_all_instances,
    brute_force_instances,
    brute_force_min_conductance,
    brute_force_min_weighted_conductance,
    signature_of,
    typed_degree,
    typed_volume,
    weighted_conductance,
    weighted_cut,
    weighted_volume,
)
from .spectral import (
    ClusterResult,
    EigenPair,
    MotifRank,
    OrderingResult,
    PartitionResult,
    RankResult,
    SweepResult,
    cluster,
    rank_typed_graphlets,
    recursive_bipartition,
    smallest_eigenpairs,
    spectral_embedding,
    spectral_ordering,
    sweep_cut,
)
from .evaluation import (
    EDGE_OPERATORS,
    EdgeDataset,
    LinkPredResult,
    MetricsReport,
    compressed_size_estimate,
    compute_metrics,
    edge_embed,
    external_conductance,
    link_prediction_eval,
    planted_partition,
    predict_scores,
    split_edges,
    summarize_trials,
    train_linear_classifier,
)
from .cli import format_signature, parse_signature_spec

__version__ = "0.1.0"
