"""Alg. 2 — the sampling-based greedy node selector.

Selects a coreset ``V_s`` of ``k`` representative nodes by maximizing
marginal representativity gain over ``n_s`` randomly sampled candidates per
round (Theorem 3 gives the ``1 − 1/e − ε`` guarantee for
``n_s = (n/k)·log(1/ε)``), then assigns each graph node to its nearest
selected node in ``R``-space to produce the weights ``λ_u`` that enter the
contrastive loss.

Rounds are lazy (Minoux's lazy greedy over Theorem 3's sample, as in
"Lazier than lazy greedy", Mirzasoleiman et al., AAAI 2015).  Def. 1's gain
``Σ_v max(0, eff[v] − c(v, u))`` only shrinks as ``eff`` shrinks, so each
node's last computed gain bounds its current one.  A round groups its sample
by cluster, evaluates the groups whole in order of their largest stale bound
and stops once the best exact gain beats the next group's bound by more than
the objective's float-noise slack.  Each round still draws exactly one
``rng.choice``, so the RNG stream is unchanged, and the picked node is the
one an eager round over the whole sample picks, bit for bit — Theorem 3's
guarantee, which concerns only which node is picked, holds untouched.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..graphs import Graph, propagated_features
from ..obs.tracer import emit_event, span
from .representativity import (
    ClusterModel,
    RepresentativityObjective,
    build_cluster_model,
    representativity_cost,
)


@dataclass
class CoresetResult:
    """Output of Alg. 2.

    Attributes
    ----------
    selected:
        ``(k,)`` node indices of the coreset ``V_s`` in selection order.
    weights:
        ``λ_u`` — how many graph nodes each selected node represents
        (nearest-neighbor counts in ``R``-space; sums to ``|V|``).
    representativity:
        Final ``RS(V_s)`` (lower = better coverage).
    gains:
        Realized marginal gain of each greedy addition (non-increasing in
        expectation; used by tests and diagnostics).
    selection_seconds:
        Wall-clock time of the full selection — the ``ST`` column of Tab. V.
    assignment:
        ``(n,)`` index into ``selected`` giving each node's representative.
    """

    selected: np.ndarray
    weights: np.ndarray
    representativity: float
    gains: List[float]
    selection_seconds: float
    assignment: np.ndarray

    @property
    def budget(self) -> int:
        return int(self.selected.shape[0])


def recommended_sample_size(num_nodes: int, budget: int, epsilon: float = 0.1) -> int:
    """Theorem 3's ``n_s = (n/k) log(1/ε)`` (rounded up, at least 1)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return max(1, int(np.ceil(num_nodes / budget * np.log(1.0 / epsilon))))


def _nearest_selected(r: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """For every node, the index (into ``selected``) of its nearest coreset node."""
    sel_r = r[selected]
    sel_sq = (sel_r ** 2).sum(axis=1)
    n = r.shape[0]
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, 8_000_000 // max(selected.size, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = r[start:stop]
        d = block @ sel_r.T
        d *= -2.0
        d += sel_sq
        out[start:stop] = d.argmin(axis=1)
    return out


def _lazy_round(
    objective: RepresentativityObjective,
    candidates: np.ndarray,
    clusters: np.ndarray,
    bound: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One lazy greedy round over the sampled ``candidates``.

    The candidates are grouped by their own cluster (``clusters``), keeping
    sample order inside each group, and the groups are evaluated whole in
    order of their largest stale ``bound`` (highest first, stable): the
    groups holding a never-evaluated candidate in one
    :meth:`~RepresentativityObjective.marginal_gains` call, then one call
    per group.  Evaluation stops once the best exact gain so far beats the
    next group's bound by more than ``objective.gain_slack``; no candidate
    of that group or a later one can then reach it.  ``bound`` is updated
    with every fresh gain.

    Returns the exact gains (``-inf`` for candidates left unevaluated), the
    mask of evaluated candidates and the number of groups evaluated.  The
    first position of ``exact.argmax()`` is the candidate an eager round
    over the whole sample would pick.
    """
    by_cluster = np.argsort(clusters, kind="stable")
    starts = np.flatnonzero(np.diff(clusters[by_cluster], prepend=-1))
    ends = np.append(starts[1:], candidates.size)
    group_bound = np.maximum.reduceat(bound[candidates[by_cluster]], starts)
    exact = np.full(candidates.size, -np.inf)
    done = np.zeros(candidates.size, dtype=bool)
    best = -np.inf
    order = np.argsort(-group_bound, kind="stable")
    # Groups never evaluated (bound +inf, sorted first) cannot be skipped;
    # they go in one call, which gives the same bits as one call each.
    fresh = int(np.isposinf(group_bound).sum())
    batches = ([order[:fresh]] if fresh else []) + [[g] for g in order[fresh:]]
    groups = 0
    for batch in batches:
        if best > group_bound[batch[0]] + objective.gain_slack:
            break
        positions = np.concatenate([by_cluster[starts[g]:ends[g]] for g in batch])
        batch_gains = objective.marginal_gains(candidates[positions])
        exact[positions] = batch_gains
        done[positions] = True
        bound[candidates[positions]] = batch_gains
        best = max(best, float(batch_gains.max()))
        groups += len(batch)
    return exact, done, groups


def select_coreset(
    graph: Graph,
    budget: int,
    num_clusters: int = 60,
    sample_size: Optional[int] = None,
    hops: int = 2,
    rng: Optional[np.random.Generator] = None,
    r: Optional[np.ndarray] = None,
    cluster_model: Optional[ClusterModel] = None,
) -> CoresetResult:
    """Run Alg. 2 on ``graph``.

    Parameters
    ----------
    graph:
        Input graph ``G(V, A, X)``.
    budget:
        ``k`` — coreset size (clamped to ``|V|``).
    num_clusters:
        ``n_c`` for the KMeans partition.
    sample_size:
        ``n_s`` candidates per greedy round; defaults to Theorem 3's value.
    hops:
        ``L`` — propagation depth for ``R = A_n^L X`` (the GNN layer count).
    r, cluster_model:
        Optional precomputed propagated features / clustering, letting
        benchmark sweeps share the expensive pre-processing.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = rng or np.random.default_rng()
    start_time = time.perf_counter()

    if r is None:
        with span("selector.propagate"):
            r = propagated_features(graph, hops)
    budget = min(budget, graph.num_nodes)
    if not np.isfinite(r).all():
        return _degree_fallback(
            graph, budget, r, None, start_time,
            reason="non-finite propagated features",
        )
    if cluster_model is None:
        with span("selector.cluster"):
            cluster_model = build_cluster_model(r, num_clusters, rng=rng)
    if budget < graph.num_nodes > 1 and np.ptp(r, axis=0).max() == 0.0:
        # Every node coincides in R-space (e.g. constant features after
        # propagation): distances carry no information and greedy would
        # pick by sampling order, which is arbitrary.
        return _degree_fallback(
            graph, budget, r, cluster_model, start_time,
            reason="all nodes coincide in R-space",
        )
    objective = RepresentativityObjective(cluster_model)
    if sample_size is None:
        sample_size = recommended_sample_size(graph.num_nodes, budget)

    assignments = cluster_model.assignments
    unselected = np.ones(graph.num_nodes, dtype=bool)
    # bound[v]: v's last batched gain, an upper bound (up to gain_slack) on
    # every later one because gains only shrink as eff shrinks.
    bound = np.full(graph.num_nodes, np.inf)
    gains: List[float] = []
    sampled = evaluated = groups_evaluated = 0
    with span("selector.greedy"):
        while len(objective.selected) < budget:
            pool = np.flatnonzero(unselected)
            if pool.size == 0:
                break
            if pool.size > sample_size:
                candidates = rng.choice(pool, size=sample_size, replace=False)
            else:
                candidates = pool
            exact, done, groups = _lazy_round(
                objective, candidates, assignments[candidates], bound)
            if not np.isfinite(exact[done]).all():
                return _degree_fallback(
                    graph, budget, r, cluster_model, start_time,
                    reason="non-finite marginal gains",
                )
            evaluated += int(done.sum())
            groups_evaluated += groups
            sampled += candidates.size
            if not gains and budget < graph.num_nodes and exact.max() <= 0.0:
                # No candidate improves coverage on the very first round:
                # the objective carries no signal (e.g. all nodes coincide
                # in R-space) and greedy selection would be arbitrary.
                return _degree_fallback(
                    graph, budget, r, cluster_model, start_time,
                    reason="degenerate objective (no positive first-round gain)",
                )
            best_candidate = int(candidates[int(exact.argmax())])
            gains.append(objective.add(best_candidate))
            unselected[best_candidate] = False
    emit_event("selector.lazy", sampled=sampled, evaluated=evaluated,
               groups_evaluated=groups_evaluated)

    selected = np.asarray(objective.selected, dtype=np.int64)
    with span("selector.assign"):
        assignment = _nearest_selected(cluster_model.r, selected)
        weights = np.bincount(assignment, minlength=selected.size).astype(np.float64)
    elapsed = time.perf_counter() - start_time
    return CoresetResult(
        selected=selected,
        weights=weights,
        representativity=objective.cost(),
        gains=gains,
        selection_seconds=elapsed,
        assignment=assignment,
    )


def _degree_fallback(
    graph: Graph,
    budget: int,
    r: np.ndarray,
    cluster_model: Optional[ClusterModel],
    start_time: float,
    reason: str,
) -> CoresetResult:
    """Degree-based coreset when the representativity objective degenerates.

    High-degree nodes are the coverage-maximizing choice when R-space
    distances carry no information (constant features, non-finite
    propagation); the result keeps Alg. 2's output contract — weights
    still sum to ``|V|`` via nearest-neighbor assignment (non-finite
    coordinates are zeroed first so the assignment stays well-defined).
    """
    warnings.warn(
        f"coreset objective degenerated ({reason}); falling back to "
        f"degree-based selection of {budget} nodes",
        RuntimeWarning,
    )
    emit_event("selector.fallback", reason=reason, budget=budget)
    order = np.lexsort((np.arange(graph.num_nodes), -graph.degrees))
    selected = np.sort(order[:budget]).astype(np.int64)
    r_safe = np.nan_to_num(r, nan=0.0, posinf=0.0, neginf=0.0)
    assignment = _nearest_selected(r_safe, selected)
    weights = np.bincount(assignment, minlength=selected.size).astype(np.float64)
    representativity = (
        representativity_cost(cluster_model, selected)
        if cluster_model is not None else float("inf")
    )
    return CoresetResult(
        selected=selected,
        weights=weights,
        representativity=float(representativity),
        gains=[],
        selection_seconds=time.perf_counter() - start_time,
        assignment=assignment,
    )
