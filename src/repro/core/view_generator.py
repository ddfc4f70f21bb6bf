"""Alg. 3 — edge-aware and feature-aware positive view generation.

Two implementations with the same sampling semantics:

* :func:`generate_node_view` — the paper's per-node procedure, verbatim:
  starting from the anchor ``v``, sample ``τ·|N_u|`` neighbors for every
  frontier node ``u`` from its candidate set ``N_u^1 ∪ N_u^2`` with
  probability proportional to the edge score, hop by hop for ``L`` hops,
  then perturb features by Eq. 16.  Used for analysis, tests, and the
  faithful small-graph path.

* :func:`generate_global_view` — the batched variant used for training:
  every node's neighborhood is sampled once with the same per-node rule and
  the union forms one augmented graph, so a full-graph GCN forward computes
  all anchors' view representations in one shot.  An anchor's ``L``-hop ego
  network inside the global sample is distributed identically to the
  per-node construction (each ``u``'s outgoing sample uses the same
  distribution), which is what makes full-batch training equivalent.

Because two views are drawn independently (with their own τ̂/τ̃, η̂/η̃), the
pair is diverse; because sampling favors high-score edges and low-score
features, each view preserves the anchor's important locality — the two
requirements of Def. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..graphs import Graph, adjacency_from_edges
from ..obs.tracer import span
from .augmentations import perturb_features
from .scores import EdgeScoreTable, FeatureScoreTable


@dataclass
class NodeView:
    """A positive view ``Ĝ_v`` for one anchor node.

    Attributes
    ----------
    graph:
        The view as a standalone graph (re-indexed).
    center:
        The anchor's index inside ``graph``.
    node_ids:
        Original ids of the view's nodes (``node_ids[center] == anchor``).
    """

    graph: Graph
    center: int
    node_ids: np.ndarray


def _sample_count(tau: float, base_degree: float, num_candidates: int) -> int:
    """``τ·|N_u|`` rounded, clamped into [0, |candidates|]; at least one
    neighbor is kept when the node has any candidates and τ > 0, so views
    never strand the anchor."""
    if num_candidates == 0 or tau <= 0:
        return 0
    want = int(round(tau * base_degree))
    return int(np.clip(max(want, 1), 1, num_candidates))


def _sample_counts(tau: float, base_degree: np.ndarray, num_candidates: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_sample_count` over all nodes at once.

    Uses ``np.round`` (banker's rounding), matching Python's ``round`` in the
    scalar version, so both paths request identical counts everywhere.
    """
    if tau <= 0:
        return np.zeros(num_candidates.shape[0], dtype=np.int64)
    want = np.round(tau * base_degree).astype(np.int64)
    counts = np.clip(np.maximum(want, 1), 1, np.maximum(num_candidates, 1))
    counts[num_candidates == 0] = 0
    return counts


def _sample_neighbors(
    table: EdgeScoreTable, node: int, tau: float, rng: np.random.Generator
) -> np.ndarray:
    cands = table.candidates[node]
    count = _sample_count(tau, float(table.base_degree[node]), cands.size)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count >= cands.size:
        return cands
    probs = table.probabilities[node]
    return rng.choice(cands, size=count, replace=False, p=probs)


def generate_node_view(
    graph: Graph,
    anchor: int,
    hops: int,
    tau: float,
    eta: float,
    edge_table: EdgeScoreTable,
    feature_table: FeatureScoreTable,
    rng: np.random.Generator,
    perturb_magnitude: float = 1.0,
) -> NodeView:
    """Run Alg. 3 (lines 3-16) for a single anchor node."""
    if not 0 <= anchor < graph.num_nodes:
        raise ValueError(f"anchor {anchor} out of range")
    if hops < 0:
        raise ValueError("hops must be non-negative")

    nodes = {int(anchor)}
    edges: List[Tuple[int, int]] = []
    frontier = [int(anchor)]
    for _ in range(hops):
        next_frontier: List[int] = []
        for u in frontier:
            sampled = _sample_neighbors(edge_table, u, tau, rng)
            for u1 in sampled:
                u1 = int(u1)
                edges.append((min(u, u1), max(u, u1)))
                if u1 not in nodes:
                    nodes.add(u1)
                    next_frontier.append(u1)
        frontier = next_frontier
        if not frontier:
            break

    node_ids = np.asarray(sorted(nodes), dtype=np.int64)
    local = {int(g): i for i, g in enumerate(node_ids)}
    local_edges = np.asarray(
        [(local[a], local[b]) for a, b in set(edges)], dtype=np.int64
    ).reshape(-1, 2)
    adjacency = adjacency_from_edges(node_ids.size, local_edges)
    features = graph.features[node_ids].copy()
    view = Graph(adjacency, features,
                 None if graph.labels is None else graph.labels[node_ids],
                 name=f"{graph.name}[view:{anchor}]")
    prob = feature_table.perturb_probability(eta)[node_ids]
    view = perturb_features(view, prob, rng, magnitude=perturb_magnitude)
    return NodeView(graph=view, center=local[int(anchor)], node_ids=node_ids)


def generate_node_view_pair(
    graph: Graph,
    anchor: int,
    hops: int,
    edge_table: EdgeScoreTable,
    feature_table: FeatureScoreTable,
    rng: np.random.Generator,
    tau_hat: float = 1.0,
    tau_tilde: float = 1.0,
    eta_hat: float = 0.4,
    eta_tilde: float = 0.4,
) -> Tuple[NodeView, NodeView]:
    """The diverse positive pair ``(Ĝ_v, G̃_v)`` of Def. 2."""
    hat = generate_node_view(graph, anchor, hops, tau_hat, eta_hat, edge_table, feature_table, rng)
    tilde = generate_node_view(graph, anchor, hops, tau_tilde, eta_tilde, edge_table, feature_table, rng)
    return hat, tilde


def _batched_weighted_sample(
    edge_table: EdgeScoreTable, tau: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample every node's neighbors in one vectorized pass.

    Weighted sampling without replacement via the exponential-race trick:
    draw ``key = Exp(1) / p`` for every candidate at once, then keep each
    node's ``m_u`` smallest keys.  Equivalent in distribution to sequential
    probability-proportional draws (:func:`_sequential_weighted_sample`),
    but with zero Python-level per-node work.

    The segmented top-``m_u`` is resolved by batching the contended segments
    into power-of-two size classes and running ``argpartition`` on one padded
    ``(rows, width)`` matrix per class, then masking per-row ranks against
    ``m_u``.  That keeps the kernel ``O(total)`` (a global sort over
    ``(segment, key)`` costs ``O(total log total)`` and loses to the padded
    partition by ~8x on dense-candidate graphs) while per-class overhead is
    ``O(log max_width)`` Python steps, independent of node count.

    Returns flat ``(sources, targets)`` arrays of sampled directed picks.
    """
    total = edge_table.num_entries
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    counts = edge_table.counts
    want = _sample_counts(tau, edge_table.base_degree, counts)
    if not want.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    keys = rng.exponential(size=total) / np.maximum(edge_table.probs, 1e-300)
    indptr = edge_table.indptr
    picked_parts: List[np.ndarray] = []

    # Saturated segments take their whole candidate set — no race needed.
    full = want >= counts
    if full.any():
        picked_parts.append(np.flatnonzero(np.repeat(full, counts)))

    contended = np.flatnonzero((want > 0) & (want < counts))
    if contended.size:
        widths = counts[contended]
        classes = np.ceil(np.log2(widths)).astype(np.int64)  # widths >= 2 here
        for c in np.unique(classes):
            rows = contended[classes == c]
            width = 1 << int(c)
            base = indptr[rows][:, None]
            col = np.arange(width, dtype=np.int64)[None, :]
            padded = keys[np.minimum(base + col, total - 1)]
            padded[col >= counts[rows][:, None]] = np.inf
            # want < counts <= width, so k_max <= width - 1: the partition
            # index is always valid and pads never reach the kept block.
            k_max = int(want[rows].max())
            smallest = np.argpartition(padded, k_max - 1, axis=1)[:, :k_max]
            block = np.take_along_axis(padded, smallest, axis=1)
            by_key = np.take_along_axis(smallest, np.argsort(block, axis=1), axis=1)
            rank_ok = np.arange(k_max, dtype=np.int64)[None, :] < want[rows][:, None]
            picked_parts.append((base + by_key)[rank_ok])

    picked = np.concatenate(picked_parts)
    return edge_table.segment_ids()[picked], edge_table.indices[picked]


def _sequential_weighted_sample(
    edge_table: EdgeScoreTable, tau: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node reference sampler: sequential ``rng.choice(p=...)`` draws.

    Semantically the ground truth for :func:`_batched_weighted_sample` —
    the distribution-equivalence tests compare the two — and the baseline
    the micro-benchmarks measure speedups against.  Never used in training.
    """
    sources: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    for u in range(edge_table.num_nodes):
        cands = edge_table.candidates[u]
        count = _sample_count(tau, float(edge_table.base_degree[u]), cands.size)
        if count == 0:
            continue
        if count >= cands.size:
            picked = cands
        else:
            picked = rng.choice(cands, size=count, replace=False, p=edge_table.probabilities[u])
        sources.append(np.full(picked.size, u, dtype=np.int64))
        targets.append(picked)
    if not sources:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(sources), np.concatenate(targets)


def generate_global_view(
    graph: Graph,
    tau: float,
    eta: float,
    edge_table: EdgeScoreTable,
    feature_table: FeatureScoreTable,
    rng: np.random.Generator,
    perturb_magnitude: float = 1.0,
) -> Graph:
    """Batched Alg. 3: one augmented graph whose ego networks are the views."""
    with span("view_generator.generate_global_view"):
        sources, targets = _batched_weighted_sample(edge_table, tau, rng)
        pairs = np.stack([np.minimum(sources, targets), np.maximum(sources, targets)], axis=1) \
            if sources.size else np.empty((0, 2), dtype=np.int64)
        adjacency = adjacency_from_edges(graph.num_nodes, pairs)
        view = Graph(adjacency, graph.features.copy(), graph.labels, name=f"{graph.name}[view]")
        prob = feature_table.perturb_probability(eta)
        return perturb_features(view, prob, rng, magnitude=perturb_magnitude)


def generate_global_view_pair(
    graph: Graph,
    edge_table: EdgeScoreTable,
    feature_table: FeatureScoreTable,
    rng: np.random.Generator,
    tau_hat: float = 1.0,
    tau_tilde: float = 1.0,
    eta_hat: float = 0.4,
    eta_tilde: float = 0.4,
) -> Tuple[Graph, Graph]:
    """Two independently sampled global views (training-time positive pair)."""
    hat = generate_global_view(graph, tau_hat, eta_hat, edge_table, feature_table, rng)
    tilde = generate_global_view(graph, tau_tilde, eta_tilde, edge_table, feature_table, rng)
    return hat, tilde
