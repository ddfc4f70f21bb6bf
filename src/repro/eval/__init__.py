"""Evaluation protocols: linear eval, link prediction, graph classification."""

from .graph_classification import (
    GraphClassificationResult,
    evaluate_graph_classification,
    summarize_graphs,
)
from .link_prediction import LinkPredictionResult, evaluate_link_prediction
from .metrics import MeanStd, accuracy, macro_f1, roc_auc
from .node_classification import NodeClassificationResult, evaluate_embeddings
from .protocol import CurvePoint, TimedCurve
from .visualize import ScatterData, coreset_scatter, pca_2d, tsne_2d

__all__ = [
    "accuracy",
    "macro_f1",
    "roc_auc",
    "MeanStd",
    "evaluate_embeddings",
    "NodeClassificationResult",
    "evaluate_link_prediction",
    "LinkPredictionResult",
    "evaluate_graph_classification",
    "summarize_graphs",
    "GraphClassificationResult",
    "TimedCurve",
    "CurvePoint",
    "pca_2d",
    "tsne_2d",
    "coreset_scatter",
    "ScatterData",
]
