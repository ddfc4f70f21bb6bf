"""E2GCL core: node selector, view generator, trainer, facade.

The contrastive losses (Eq. 5 + InfoNCE) live in :mod:`repro.contrast`.
"""

from .augmentations import (
    ALL_OPERATIONS,
    MINIMAL_OPERATIONS,
    add_edges,
    add_nodes,
    apply_view_plan,
    drop_edges,
    drop_features,
    drop_nodes,
    express_with_minimal_ops,
    mask_features,
    perturb_features,
    subgraph_sample,
)
from .config import E2GCLConfig, ablation_config
from .kmeans import KMeansResult, kmeans
from .model import E2GCL
from .node_selector import CoresetResult, recommended_sample_size, select_coreset
from .representativity import (
    ClusterModel,
    RepresentativityObjective,
    build_cluster_model,
    representativity_cost,
)
from .serialization import load_model, save_model
from .scores import (
    EdgeScoreTable,
    FeatureScoreTable,
    compute_edge_scores,
    compute_feature_scores,
    similarity_offset,
)
from .trainer import E2GCLTrainer, EpochRecord, TrainResult
from .view_generator import (
    NodeView,
    generate_global_view,
    generate_global_view_pair,
    generate_node_view,
    generate_node_view_pair,
)

__all__ = [
    "E2GCL",
    "E2GCLConfig",
    "ablation_config",
    "E2GCLTrainer",
    "TrainResult",
    "EpochRecord",
    "kmeans",
    "KMeansResult",
    "select_coreset",
    "CoresetResult",
    "recommended_sample_size",
    "ClusterModel",
    "RepresentativityObjective",
    "build_cluster_model",
    "representativity_cost",
    "compute_edge_scores",
    "compute_feature_scores",
    "similarity_offset",
    "save_model",
    "load_model",
    "EdgeScoreTable",
    "FeatureScoreTable",
    "generate_node_view",
    "generate_node_view_pair",
    "generate_global_view",
    "generate_global_view_pair",
    "NodeView",
    "drop_edges",
    "add_edges",
    "drop_nodes",
    "add_nodes",
    "subgraph_sample",
    "mask_features",
    "drop_features",
    "perturb_features",
    "express_with_minimal_ops",
    "apply_view_plan",
    "MINIMAL_OPERATIONS",
    "ALL_OPERATIONS",
]
