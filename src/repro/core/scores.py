"""Edge and feature importance scores (Sec. IV-C1 / IV-C2).

Edge score between a target node ``v`` and a candidate ``u``::

    w^e_{v,u} = β · exp(φ_c(u) + Sim(v, u))          if u ∈ N_v
              = (1−β) · exp(−φ_c(u) + Sim(v, u))     otherwise

with ``φ_c(u) = log(D_u + 1)`` and ``Sim(v,u) = c − ||x_v − x_u||`` where
``c`` is the max feature distance over existing edges.  Keeping an existing
edge to an influential, similar neighbor scores high; adding a new edge to
an influential node scores low (it would distort the locality pattern).

Feature score: global dimension importance ``w_i^f = Σ_v φ_c(v)·|x_v[i]|``
combined with the owner's centrality, ``w^f_{x_v[i]} = w_i^f · φ_c(v)``.
Eq. 16 then perturbs low-score entries with probability
``p = η · (w_max − w) / (w_max − w_mean)``.

Note on normalization: the paper normalizes per feature dimension, but with
the factorized score ``w_i^f · φ_c(v)`` a per-dimension max/mean cancels
``w_i^f`` entirely, leaving a probability that ignores dimension importance
(contradicting the E2GCL\\F ablation).  Following the GCA lineage the paper
builds on, the default normalizes over the full score matrix so both the
node's centrality *and* the dimension's importance modulate the probability;
``normalization="per_dimension"`` gives the literal reading.

All scores depend only on degrees and raw features (the paper's *Remarks*),
so everything here is computed once per graph and reused across epochs.

Storage: :class:`EdgeScoreTable` keeps the per-node candidate sets in one
flat CSR layout (``indptr``/``indices``/``probs``) instead of ragged
``List[np.ndarray]`` columns, so downstream consumers (the batched view
sampler above all) operate on whole arrays with zero per-node Python
dispatch.  The old list-of-arrays API survives as thin zero-copy views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graphs import Graph, centrality as graph_centrality, degree_centrality
from ..obs.tracer import span


class _SegmentedView:
    """Read-only list-of-arrays facade over a flat CSR pair.

    ``view[u]`` returns the ``u``-th segment as a zero-copy slice, so code
    written against the old ragged ``List[np.ndarray]`` layout keeps
    working unchanged.
    """

    __slots__ = ("_indptr", "_data")

    def __init__(self, indptr: np.ndarray, data: np.ndarray) -> None:
        self._indptr = indptr
        self._data = data

    def __len__(self) -> int:
        return self._indptr.shape[0] - 1

    def __getitem__(self, u: int) -> np.ndarray:
        return self._data[self._indptr[u]:self._indptr[u + 1]]

    def __iter__(self):
        for u in range(len(self)):
            yield self[u]


@dataclass
class EdgeScoreTable:
    """Per-node candidate neighbor sets with sampling probabilities, CSR-flat.

    For each node ``u``, ``indices[indptr[u]:indptr[u+1]]`` is its sorted
    ``N_u^1 ∪ N_u^2`` candidate set (Alg. 3 line 6) and the matching slice of
    ``probs`` the normalized edge scores ``P(u1 | u, V_u^N)`` used for
    neighbor sampling.  ``base_degree[u]`` is ``|N_u|``, the quantity τ
    multiplies.  ``counts`` caches the per-node segment lengths.

    ``candidates`` / ``probabilities`` expose the historical list-like API as
    zero-copy views into the flat arrays.
    """

    indptr: np.ndarray      # (n + 1,) int64 segment boundaries
    indices: np.ndarray     # (total,) int64 flat candidate ids
    probs: np.ndarray       # (total,) float64 flat sampling probabilities
    base_degree: np.ndarray  # (n,) float64
    counts: np.ndarray = field(init=False)  # (n,) int64 segment sizes

    def __post_init__(self) -> None:
        self.counts = np.diff(self.indptr)

    @property
    def num_nodes(self) -> int:
        return self.base_degree.shape[0]

    @property
    def num_entries(self) -> int:
        return int(self.indices.shape[0])

    @property
    def candidates(self) -> _SegmentedView:
        return _SegmentedView(self.indptr, self.indices)

    @property
    def probabilities(self) -> _SegmentedView:
        return _SegmentedView(self.indptr, self.probs)

    def segment_ids(self) -> np.ndarray:
        """``(total,)`` source-node id of every flat entry."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.counts)


def similarity_offset(graph: Graph) -> float:
    """``c = max_{(v,u) ∈ E} ||x_v − x_u||`` (0 for edgeless graphs)."""
    edges = graph.edge_array()
    if edges.shape[0] == 0:
        return 0.0
    diffs = graph.features[edges[:, 0]] - graph.features[edges[:, 1]]
    return float(np.sqrt((diffs ** 2).sum(axis=1)).max())


def _candidate_sets(graph: Graph, max_candidates: Optional[int], rng: np.random.Generator):
    """``N_u^1 ∪ N_u^2`` for every node via one sparse square ``A + A²``.

    Fully CSR: the diagonal is dropped by a coordinate mask (no ``.tolil()``
    round-trip, no explicit zeros left behind) and the optional per-node cap
    is applied with one random-key ``lexsort`` instead of a Python loop of
    ``rng.choice`` calls.

    Returns ``(indptr, flat_candidates, is_neighbor)`` where ``is_neighbor``
    flags the candidates that are existing 1-hop edges — recovered for free
    from the reach-matrix values, replacing per-node Python set probes.
    """
    adj = graph.adjacency
    two_hop = (adj @ adj).tocsr()
    two_hop.data = np.ones_like(two_hop.data)
    # Values encode provenance: 2 → 1-hop only, 1 → 2-hop only, 3 → both.
    reach = (adj * 2.0 + two_hop).tocsr()
    reach.sum_duplicates()

    coo = reach.tocoo()
    keep = coo.row != coo.col
    rows = coo.row[keep].astype(np.int64)
    cols = coo.col[keep].astype(np.int64)
    vals = coo.data[keep]

    n = graph.num_nodes
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    if max_candidates is not None and counts.max(initial=0) > max_candidates:
        # Uniform without-replacement subsample per overfull row: shuffle
        # each row with random keys, keep the first ``max_candidates``
        # positions, then restore ascending (row, col) order.
        keys = rng.random(rows.size)
        order = np.lexsort((keys, rows))
        rank = np.arange(rows.size) - np.repeat(indptr[:-1], counts)
        selected = np.sort(order[rank < max_candidates])
        rows, cols, vals = rows[selected], cols[selected], vals[selected]
        counts = np.bincount(rows, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    return indptr, cols, vals >= 2.0


def _node_influence(graph: Graph, method: str) -> np.ndarray:
    """φ_c under the chosen centrality (Sec. IV-C defaults to log-degree;
    PageRank/eigenvector variants follow the GCA lineage).  Non-degree
    centralities are log-scaled onto a comparable range."""
    if method == "degree":
        return degree_centrality(graph)
    values = graph_centrality(graph, method)
    return np.log1p(values / max(values.mean(), 1e-12))


def _segmented_max(values: np.ndarray, indptr: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment max of a flat CSR-aligned array (empty segments → 0).

    ``np.maximum.reduceat`` over the starts of the *non-empty* segments is
    exact here because empty segments contribute no flat entries, so
    consecutive non-empty starts bound precisely one segment each.
    """
    n = counts.shape[0]
    out = np.zeros(n)
    nonempty = counts > 0
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, indptr[:-1][nonempty])
    return out


def _segmented_sum(values: np.ndarray, indptr: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment sum of a flat CSR-aligned array (empty segments → 0)."""
    n = counts.shape[0]
    out = np.zeros(n)
    nonempty = counts > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


_CROSS_CHUNK_ELEMENTS = 8_000_000  # flat-entry × feature-dim budget per pass


def _pairwise_similarity(
    graph: Graph, sources: np.ndarray, targets: np.ndarray, c_offset: float
) -> np.ndarray:
    """``Sim(v, u) = c − ||x_v − x_u||`` for flat (source, target) pairs,
    chunked so the gathered feature blocks stay inside a fixed budget."""
    feat = graph.features
    feat_sq = (feat ** 2).sum(axis=1)
    total = sources.shape[0]
    cross = np.empty(total)
    chunk = max(1, _CROSS_CHUNK_ELEMENTS // max(feat.shape[1], 1))
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        cross[start:stop] = np.einsum(
            "ij,ij->i", feat[sources[start:stop]], feat[targets[start:stop]]
        )
    dist_sq = feat_sq[sources] + feat_sq[targets] - 2.0 * cross
    np.maximum(dist_sq, 0.0, out=dist_sq)
    return c_offset - np.sqrt(dist_sq)


def compute_edge_scores(
    graph: Graph,
    beta: float = 0.7,
    uniform: bool = False,
    max_candidates: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    centrality_method: str = "degree",
) -> EdgeScoreTable:
    """Precompute the edge-score sampling table for Alg. 3.

    One segmented pass over the flat candidate array: similarity, centrality,
    the β-split, and per-node normalization are all whole-array expressions
    (``reduceat`` for the per-node max/sum), with no per-node Python work.

    Parameters
    ----------
    beta:
        Mass on existing edges vs. new (2-hop) edges.  β > 0.5 means views
        mostly keep real neighbors and occasionally add 2-hop shortcuts.
    uniform:
        Ablation switch (E2GCL\\S): all candidates equally likely, but the
        existing/new split still honors β so edge *counts* stay comparable.
    max_candidates:
        Cap per-node candidate sets (memory guard on dense graphs).
    centrality_method:
        ``"degree"`` (the paper's φ_c), ``"pagerank"``, or ``"eigenvector"``.
    """
    with span("scores.compute_edge_scores"):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        rng = rng or np.random.default_rng(0)
        indptr, flat_candidates, is_neighbor = _candidate_sets(graph, max_candidates, rng)
        counts = np.diff(indptr)
        sources = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), counts)

        if uniform:
            scores = np.where(is_neighbor, beta, 1.0 - beta)
        else:
            centrality = _node_influence(graph, centrality_method)
            sim = _pairwise_similarity(graph, sources, flat_candidates, similarity_offset(graph))
            phi = centrality[flat_candidates]
            # exp() is shift-invariant under the final normalization, so subtract
            # each node's max exponent for numerical safety.
            exponent = np.where(is_neighbor, phi + sim, -phi + sim)
            exponent -= _segmented_max(exponent, indptr, counts)[sources]
            scores = np.where(is_neighbor, beta, 1.0 - beta) * np.exp(exponent)

        totals = _segmented_sum(scores, indptr, counts)
        safe_totals = np.where(totals > 0, totals, 1.0)[sources]
        probs = np.where(
            totals[sources] > 0,
            scores / safe_totals,
            1.0 / np.maximum(counts, 1)[sources],
        )
        return EdgeScoreTable(
            indptr=indptr,
            indices=flat_candidates.astype(np.int64),
            probs=probs,
            base_degree=graph.degrees.copy(),
        )


@dataclass
class FeatureScoreTable:
    """Feature-perturbation probabilities for Eq. 16.

    ``perturb_probability(eta)`` returns the ``(n, d)`` matrix of Bernoulli
    parameters ``p_{x_u[i]}``; the score matrix itself is kept for tests and
    diagnostics.
    """

    scores: np.ndarray            # (n, d) — w^f_{x_v[i]}
    dimension_scores: np.ndarray  # (d,)  — w_i^f
    normalized: np.ndarray        # (n, d) in [0, 1]; higher = perturb more

    def perturb_probability(self, eta: float) -> np.ndarray:
        """``p = η · normalized`` clipped to [0, 1]."""
        if eta < 0:
            raise ValueError("eta must be non-negative")
        return np.clip(eta * self.normalized, 0.0, 1.0)


def compute_feature_scores(
    graph: Graph,
    normalization: str = "global",
    uniform: bool = False,
    centrality_method: str = "degree",
) -> FeatureScoreTable:
    """Compute ``w^f`` and the Eq. 16 normalization.

    ``uniform=True`` is the E2GCL\\F ablation: every entry is perturbed with
    the same probability η.
    """
    with span("scores.compute_feature_scores"):
        n, d = graph.features.shape
        if uniform:
            flat = np.ones((n, d))
            return FeatureScoreTable(
                scores=flat, dimension_scores=np.ones(d), normalized=flat
            )
        centrality = _node_influence(graph, centrality_method)
        dimension_scores = centrality @ np.abs(graph.features)  # w_i^f, shape (d,)
        scores = np.outer(centrality, dimension_scores)          # w^f_{x_v[i]}

        if normalization == "global":
            w_max = scores.max()
            w_mean = scores.mean()
            spread = max(w_max - w_mean, 1e-12)
            normalized = np.clip((w_max - scores) / spread, 0.0, 1.0)
        elif normalization == "per_dimension":
            w_max = scores.max(axis=0, keepdims=True)
            w_mean = scores.mean(axis=0, keepdims=True)
            spread = np.maximum(w_max - w_mean, 1e-12)
            normalized = np.clip((w_max - scores) / spread, 0.0, 1.0)
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
        return FeatureScoreTable(
            scores=scores, dimension_scores=dimension_scores, normalized=normalized
        )
