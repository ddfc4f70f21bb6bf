"""The cluster-based coreset objective of Def. 1 (Eq. 13/14).

Given the propagated features ``R = A_n^L X`` and a KMeans partition
``C = {C_i}``, the representativity cost of a selected set ``V_s`` is::

    RS(V_s) = Σ_i Σ_{v ∈ C_i} min( min_{u1 ∈ C_{V_s,i}} ||R[v] − R[u1]||,
                                    min_{u2 ∈ V_s \\ C_i} (||c_i − R[u2]|| + d_i^max) )

(lower is better).  The greedy selector needs *marginal gains*
``ΔRS(v | V_s) = RS(V_s) − RS(V_s ∪ {v})`` for hundreds of candidates per
round, so this module maintains the objective incrementally:

* ``eff[v]`` — each node's current covering cost under ``V_s``;
* one cluster-ordered view of the nodes (``members`` concatenated, plus the
  start offset of every non-empty cluster), so the cross-cluster relaxation
  term of a whole candidate batch is one ``(m, n)`` pass followed by a
  segmented ``np.add.reduceat`` — no padding and no python loop per cluster.

A candidate's gain is then ``O(n)`` with a small constant: an exact pass over
its own cluster ``C_j`` plus one relaxation per node outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .kmeans import KMeansResult, kmeans


@dataclass
class ClusterModel:
    """Clustered view of the propagated-feature space.

    Attributes
    ----------
    r:
        ``(n, d)`` propagated features (``R``).
    assignments:
        ``(n,)`` cluster index per node.
    centers:
        ``(n_c, d)`` cluster centers.
    members:
        Per-cluster node-index arrays.
    d_max:
        ``d_i^max`` — max distance between a cluster's nodes and its center.
    center_distances:
        ``(n, n_c)`` distances from every node to every center (used for the
        cross-cluster relaxation and the unrepresented-cost cap).
    """

    r: np.ndarray
    assignments: np.ndarray
    centers: np.ndarray
    members: List[np.ndarray]
    d_max: np.ndarray
    center_distances: np.ndarray

    @property
    def num_clusters(self) -> int:
        return self.centers.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.r.shape[0]


def build_cluster_model(
    r: np.ndarray,
    num_clusters: int,
    rng: Optional[np.random.Generator] = None,
    clustering: Optional[KMeansResult] = None,
) -> ClusterModel:
    """Cluster ``R`` (Alg. 2 line 2) and precompute the Def. 1 quantities."""
    r = np.asarray(r, dtype=np.float64)
    if clustering is None:
        clustering = kmeans(r, num_clusters, rng=rng)
    assignments = clustering.assignments
    centers = clustering.centers
    k = centers.shape[0]
    members = [np.flatnonzero(assignments == i) for i in range(k)]

    # ||R[v] - c_i|| for all v, i via the ||a||^2 - 2ab + ||b||^2 expansion.
    center_sq = (centers ** 2).sum(axis=1)
    node_sq = (r ** 2).sum(axis=1)
    cross = r @ centers.T
    dist_sq = node_sq[:, None] - 2.0 * cross + center_sq[None, :]
    np.maximum(dist_sq, 0.0, out=dist_sq)
    center_distances = np.sqrt(dist_sq)

    d_max = np.zeros(k)
    for i, mem in enumerate(members):
        if mem.size:
            d_max[i] = center_distances[mem, i].max()

    return ClusterModel(
        r=r,
        assignments=assignments,
        centers=centers,
        members=members,
        d_max=d_max,
        center_distances=center_distances,
    )


#: Ceiling on the transient ``(chunk, n)`` cross-term array of
#: :meth:`RepresentativityObjective.marginal_gains`; larger candidate batches
#: are evaluated in slices of ``_GAIN_CEILING_BYTES // (8 n)`` candidates.
_GAIN_CEILING_BYTES = 256 * 2 ** 20


def _gain_slack(model: ClusterModel, cap: float) -> float:
    """Bound on how far a batched gain can rise above an earlier batched gain
    of the same candidate.

    Exact gains only shrink as ``eff`` shrinks, but two batched evaluations
    see different cluster groups, so their expanded intra distances differ
    in the last bits.  Each is within a forward-error bound of the exact
    gain: the radicand ``||a||^2 - 2ab + ||b||^2`` is off by at most
    ``(d + 2) u (||a|| + ||b||)^2`` (``u`` the unit roundoff), so one
    distance by at most the square root of that, and a candidate sums at
    most ``max |C_j|`` of them; the cross term's sums of ``n`` terms no
    larger than ``cap`` add at most ``n^2 u cap``.  The bound is twice the
    per-evaluation error (fresh and stale are both off).
    """
    n, dim = model.r.shape
    unit = np.finfo(np.float64).eps / 2
    norm = float(np.sqrt((model.r ** 2).sum(axis=1).max(initial=0.0)))
    dist_err = 2.0 * norm * np.sqrt((dim + 2) * unit)
    largest = max((mem.size for mem in model.members), default=0)
    return 2.0 * (largest * dist_err + n * n * unit * cap)


class RepresentativityObjective:
    """Incremental evaluator of ``RS(V_s)`` supporting greedy selection.

    Usage::

        obj = RepresentativityObjective(model)
        gain = obj.marginal_gain(v)     # ΔRS(v | V_s), does not mutate
        obj.add(v)                      # commit v into V_s
        obj.cost()                      # current RS(V_s)

    ``RS(∅)`` is made finite by capping every node's covering cost at a
    constant strictly larger than any achievable relaxed distance, so the
    first selection always has positive gain.

    ``gain_slack`` bounds how far a batched gain can rise above an earlier
    batched gain of the same candidate (float noise only: exact gains never
    rise); the lazy greedy round of Alg. 2 allows for it before it skips a
    cluster group.
    """

    def __init__(self, model: ClusterModel) -> None:
        self.model = model
        # Cap: any selected node u gives cluster i at most
        # ||c_i - R[u]|| + d_i^max <= max center distance + max d_i, so this
        # constant dominates every reachable cost.
        self.unrepresented_cost = float(
            model.center_distances.max(initial=0.0) + model.d_max.max(initial=0.0) + 1.0
        )
        self.eff = np.full(model.num_nodes, self.unrepresented_cost)
        self.selected: List[int] = []
        # Cluster-ordered layout for the cross term.  Empty clusters get no
        # segment: ``np.add.reduceat`` yields ``a[i]``, not 0, for an empty
        # slice, so they must not appear in ``_starts``.
        sizes = np.array([mem.size for mem in model.members], dtype=np.int64)
        nonempty = sizes > 0
        self._order = np.concatenate(model.members)
        self._node_cluster = model.assignments[self._order]
        self._starts = (np.cumsum(sizes) - sizes)[nonempty]
        self._segment = np.cumsum(nonempty) - 1  # cluster id -> segment index
        self.gain_slack = _gain_slack(model, self.unrepresented_cost)

    # ------------------------------------------------------------------
    def cost(self) -> float:
        """Current value of the Def. 1 objective (plus the finite cap)."""
        return float(self.eff.sum())

    def marginal_gain(self, candidate: int) -> float:
        """``RS(V_s) − RS(V_s ∪ {candidate})`` without mutating state.

        Exact: it is the gain :meth:`add` would realize.  The batched
        :meth:`marginal_gains` agrees up to the ~1e-8 cancellation noise of
        its expanded intra-cluster distances.
        """
        return self.cost() - float(self._covered(candidate).sum())

    def marginal_gains(self, candidates: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`marginal_gain` over a candidate batch.

        The lazy greedy round of Alg. 2 calls this once per cluster group of
        its ``n_s`` sampled candidates (all of them in round one); batching
        turns per-candidate python overhead into a few numpy passes
        (cross-cluster ``(m, n)`` array, per-cluster intra distances, segment
        reductions).  The cross term is evaluated in slices of
        ``_GAIN_CEILING_BYTES // (8 n)`` candidates and each intra block in
        slices of ``_GAIN_CEILING_BYTES // (8 |C_j|)``, so selection never
        allocates gigabytes on large graphs regardless of ``n_s``.

        A candidate's gain depends only on ``eff`` and on the candidates of
        its own cluster in the batch, in batch order: the cross term is
        computed row by row, and the intra term's ``cand_r @ R[C_j]^T``
        (whose bits vary with its row count) sees exactly that group.
        Evaluating one cluster group alone therefore gives the same bits as
        evaluating it inside any larger batch.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            return np.zeros(0)
        model = self.model
        chunk = max(1, _GAIN_CEILING_BYTES // (8 * model.num_nodes))
        gains = np.concatenate([
            self._cross_gains(candidates[start:start + chunk])
            for start in range(0, candidates.size, chunk)
        ])

        # Intra term, grouped by the candidates' own clusters.
        own = model.assignments[candidates]
        for j in np.unique(own):
            mem = model.members[j]
            if mem.size == 0:
                continue
            in_j = np.flatnonzero(own == j)
            mem_r = model.r[mem]
            mem_sq = (mem_r ** 2).sum(axis=1)
            eff_mem = self.eff[mem]
            rows = max(1, _GAIN_CEILING_BYTES // (8 * mem.size))
            for start in range(0, in_j.size, rows):
                block = in_j[start:start + rows]
                cand_r = model.r[candidates[block]]          # (c, d)
                # ||a||^2 - 2ab + ||b||^2, built in one (c, |C_j|) array.
                d = cand_r @ mem_r.T
                d *= -2.0
                d += (cand_r ** 2).sum(axis=1)[:, None]
                d += mem_sq[None, :]
                np.maximum(d, 0.0, out=d)
                np.sqrt(d, out=d)
                np.subtract(eff_mem, d, out=d)
                np.maximum(d, 0.0, out=d)
                gains[block] += d.sum(axis=1)
        return gains

    def _cross_gains(self, candidates: np.ndarray) -> np.ndarray:
        """Cross-cluster term of the gains of ``candidates``.

        Each node v in cluster order gains ``max(0, eff[v] - t_i)`` from the
        threshold ``t_i`` of its cluster i, summed per cluster segment; the
        candidate's own cluster is then taken out (the intra term covers it).
        """
        model = self.model
        thresholds = model.center_distances[candidates] + model.d_max[None, :]
        diff = thresholds[:, self._node_cluster]             # (m, n)
        np.subtract(self.eff[self._order], diff, out=diff)
        np.maximum(diff, 0.0, out=diff)
        per_cluster = np.add.reduceat(diff, self._starts, axis=1)
        own = self._segment[model.assignments[candidates]]
        return per_cluster.sum(axis=1) - per_cluster[np.arange(candidates.size), own]

    def _covered(self, candidate: int) -> np.ndarray:
        """``eff`` after adding ``candidate`` to ``V_s`` (not committed)."""
        model = self.model
        mem_j = model.members[int(model.assignments[candidate])]
        intra = np.sqrt(((model.r[mem_j] - model.r[candidate]) ** 2).sum(axis=1))
        cross = model.center_distances[candidate] + model.d_max  # per-cluster
        thresholds = cross[model.assignments]
        thresholds[mem_j] = np.inf  # own cluster uses the exact distances
        new_eff = np.minimum(self.eff, thresholds)
        new_eff[mem_j] = np.minimum(new_eff[mem_j], intra)
        return new_eff

    def add(self, candidate: int) -> float:
        """Commit ``candidate`` into ``V_s``; returns the realized gain."""
        before = self.cost()
        self.eff = self._covered(candidate)
        self.selected.append(int(candidate))
        return before - self.cost()


def representativity_cost(model: ClusterModel, selected) -> float:
    """Direct (non-incremental) evaluation of Eq. 14; used to cross-check the
    incremental implementation in tests.

    Nodes not covered by any term keep the same finite cap as
    :class:`RepresentativityObjective` so both evaluations agree exactly.
    """
    selected = np.asarray(sorted(set(int(v) for v in selected)), dtype=np.int64)
    cap = float(model.center_distances.max(initial=0.0) + model.d_max.max(initial=0.0) + 1.0)
    total = 0.0
    for i, mem in enumerate(model.members):
        if mem.size == 0:
            continue
        in_cluster = selected[model.assignments[selected] == i]
        out_cluster = selected[model.assignments[selected] != i]
        if out_cluster.size:
            relax = float((model.center_distances[out_cluster, i] + model.d_max[i]).min())
        else:
            relax = cap
        if in_cluster.size:
            diff = model.r[mem][:, None, :] - model.r[in_cluster][None, :, :]
            intra = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
        else:
            intra = np.full(mem.size, cap)
        total += float(np.minimum(np.minimum(intra, relax), cap).sum())
    return total
