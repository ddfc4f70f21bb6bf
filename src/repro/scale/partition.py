"""BFS-grow graph partitioning over the CSR adjacency.

METIS-style quality is not the goal — locality is.  Parts are grown one
BFS frontier at a time from the lowest-degree unassigned seed, always
into the currently smallest part, which yields connected, size-balanced
parts on connected graphs and degrades gracefully (round-robin of
components) on disconnected ones.  The two quality numbers that matter
downstream — edge-cut fraction (how much neighborhood sampling escapes a
part) and balance (largest part / ideal size) — are surfaced both on the
result object and as ``repro.obs`` metrics:

* ``scale.partition.edge_cut`` — fraction of undirected edges crossing parts,
* ``scale.partition.balance`` — max part size over ``ceil(n / parts)``.

Partitions drive Cluster-GCN-style batch formation in
:class:`repro.scale.SampledTrainStep` (anchors grouped per part so one
batch's neighborhood expansion stays mostly inside one CSR region) and
row-chunk locality in the out-of-core aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
import scipy.sparse as sp

from ..obs.tracer import emit_metric, span
from .blocks import gather_rows

__all__ = ["GraphPartition", "bfs_partition"]


@dataclass
class GraphPartition:
    """Assignment of every node to exactly one part.

    ``assignment[v]`` is the part id of node ``v``; ``parts[i]`` the sorted
    node ids of part ``i``.  ``edge_cut`` is the fraction of undirected
    edges with endpoints in different parts; ``balance`` the largest part
    size divided by the ideal ``ceil(n / num_parts)`` (1.0 = perfect).
    """

    assignment: np.ndarray
    parts: List[np.ndarray]
    edge_cut: float
    balance: float

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def sizes(self) -> np.ndarray:
        return np.array([p.size for p in self.parts], dtype=np.int64)

    def reassemble(self, adjacency: sp.csr_matrix) -> sp.csr_matrix:
        """Round-trip check: rebuild the adjacency from per-part row slices.

        Gathers every part's rows (global columns) and re-emits one CSR;
        equality with the input proves each node's row — hence each
        directed edge — was assigned exactly once.
        """
        rows = []
        cols = []
        vals = []
        for part in self.parts:
            if part.size == 0:
                continue
            local, c, v = gather_rows(adjacency, part)
            rows.append(part[local])
            cols.append(c)
            vals.append(v)
        n = adjacency.shape[0]
        if not rows:
            return sp.csr_matrix((n, n))
        return sp.csr_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )


def _edge_cut_fraction(adjacency: sp.csr_matrix, assignment: np.ndarray) -> float:
    """Fraction of directed entries whose endpoints live in different parts."""
    if adjacency.nnz == 0:
        return 0.0
    coo = adjacency.tocoo()
    crossing = int((assignment[coo.row] != assignment[coo.col]).sum())
    return crossing / adjacency.nnz


def bfs_partition(adjacency: sp.csr_matrix, num_parts: int) -> GraphPartition:
    """Grow ``num_parts`` balanced parts by frontier expansion.

    Each round the smallest part absorbs one BFS frontier: either the
    unassigned neighbors of its previous frontier, or — when its frontier
    is exhausted (component boundary or fresh part) — a new seed, the
    lowest-degree unassigned node (low-degree seeds keep early frontiers
    small, so part sizes interleave instead of one part swallowing a hub's
    whole neighborhood).  A frontier that would overshoot the ideal part
    size is truncated, keeping the balance factor near 1 even when a
    frontier is much wider than the remaining budget.
    """
    n = adjacency.shape[0]
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    num_parts = min(num_parts, max(n, 1))
    with span("scale.partition"):
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(num_parts, dtype=np.int64)
        frontiers: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(num_parts)]
        ideal = -(-n // num_parts)
        degrees = np.diff(adjacency.indptr)
        # Unassigned nodes in ascending-degree order; a cursor walks past
        # already-assigned entries so seed lookup is amortized O(1).
        seed_order = np.argsort(degrees, kind="stable")
        cursor = 0
        assigned = 0
        while assigned < n:
            part = int(np.argmin(sizes))
            frontier = frontiers[part]
            frontier = frontier[assignment[frontier] == part]
            if frontier.size:
                _, cols, _ = gather_rows(adjacency, frontier)
                grown = np.unique(cols)
                grown = grown[assignment[grown] < 0]
            else:
                grown = np.empty(0, dtype=np.int64)
            if grown.size == 0:
                while cursor < n and assignment[seed_order[cursor]] >= 0:
                    cursor += 1
                grown = seed_order[cursor:cursor + 1]
            budget = max(1, ideal - int(sizes[part]))
            grown = grown[:budget]
            assignment[grown] = part
            sizes[part] += grown.size
            frontiers[part] = grown
            assigned += int(grown.size)
        parts = [np.flatnonzero(assignment == p) for p in range(num_parts)]
        edge_cut = _edge_cut_fraction(adjacency, assignment)
        balance = (max(sizes.max(), 1) / ideal) if n else 1.0
    emit_metric("scale.partition.edge_cut", float(edge_cut))
    emit_metric("scale.partition.balance", float(balance))
    return GraphPartition(
        assignment=assignment, parts=parts,
        edge_cut=float(edge_cut), balance=float(balance),
    )
