"""Seeded L-hop neighbor sampling for mini-batch training.

Produces one *union* block per batch (ShaDow/Cluster-GCN style, the
same construction serving uses for known nodes): every node reached
within ``L`` hops of any seed gets a single local row, so overlapping
neighborhoods are shared instead of duplicated.  A node's neighborhood is
drawn once, when the BFS first expands it, and the resulting block is
reused by every layer.

Exactness and unbiasedness
--------------------------
* ``fanouts=None`` (or every per-hop fanout ``None``) keeps full
  neighborhoods.  Because rows are normalized with *parent* degrees
  (:func:`repro.scale.blocks.normalized_block`), every block entry is the
  exact full-graph float of ``D̃^{-1/2}(A+I)D̃^{-1/2}``, and an L-layer
  forward over the block is bit-identical to the full-graph forward at
  the seed rows: a seed's layer-ℓ value only reads rows of nodes within
  ``ℓ`` hops, all of which carry complete, exactly-normalized rows.
  Fringe nodes (first reached at hop ``L``) keep self-loop-only rows —
  their outputs are garbage, but nothing within ``L`` layers reads them.
* With ``fanout=k``, each expanded node keeps ``min(k, deg)`` uniform
  without-replacement neighbors, and kept entries are rescaled by
  ``deg/k`` so the expected aggregated neighbor sum matches the full
  row (the GraphSAGE estimator); the chi-square test tier checks the
  per-neighbor inclusion uniformity.

Randomness comes from the caller's generator (an engine
:class:`~repro.engine.RngStreams` stream in training), so sampled runs
checkpoint/resume bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .blocks import block_csr, gather_rows, normalized_block, true_degrees

__all__ = ["NeighborSampler", "SampledBlock"]


@dataclass
class SampledBlock:
    """One mini-batch's union subgraph.

    ``nodes`` are the global ids of the block's local rows (seeds first is
    *not* guaranteed — use ``seeds_local``); ``a_n`` the degree-corrected
    normalized block adjacency; ``seeds_local`` the seed positions within
    ``nodes``; ``num_edges`` the directed adjacency entries before the
    self-loops the normalization adds.
    """

    nodes: np.ndarray
    a_n: sp.csr_matrix
    seeds_local: np.ndarray
    num_edges: int


def _subsample_rows(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    degrees_of_rows: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
):
    """Keep ``min(fanout, deg)`` entries per local row, uniformly without
    replacement, rescaling kept values by ``deg / fanout`` where truncated.

    Vectorized reservoir: draw one uniform key per entry, rank entries
    within their row by key (lexsort), keep ranks below the fanout.
    """
    if rows.size == 0:
        return rows, cols, vals
    keys = rng.random(rows.size)
    order = np.lexsort((keys, rows))
    sorted_rows = rows[order]
    # Rank within each row: position minus the row's first position.
    boundaries = np.flatnonzero(np.diff(sorted_rows)) + 1
    starts = np.concatenate(([0], boundaries))
    row_start = np.repeat(starts, np.diff(np.concatenate((starts, [rows.size]))))
    rank = np.arange(rows.size) - row_start
    keep = order[rank < fanout]
    keep.sort()
    # degrees_of_rows is per-entry (aligned with rows/cols/vals), so the
    # kept entries' parent degrees are selected by position, not row id.
    degs = degrees_of_rows[keep]
    rows, cols, vals = rows[keep], cols[keep], vals[keep].astype(np.float64)
    scale = np.where(degs > fanout, degs / float(fanout), 1.0)
    return rows, cols, vals * scale


class NeighborSampler:
    """Draw union L-hop blocks around seed sets.

    Parameters
    ----------
    adjacency:
        Parent CSR adjacency (binary, symmetric, canonical — a
        :class:`repro.graphs.Graph` adjacency).
    fanouts:
        Per-hop neighbor budgets, outermost first; length = number of GCN
        layers.  ``None`` for a hop (or for the whole sequence) keeps full
        neighborhoods at that hop.
    degrees:
        Parent degree vector; computed from ``adjacency`` when omitted.
        Pass the *base-graph* degrees when sampling an augmented view whose
        edge dropout should not perturb the normalization baseline.
    """

    def __init__(
        self,
        adjacency: sp.csr_matrix,
        fanouts: Optional[Sequence[Optional[int]]] = None,
        degrees: Optional[np.ndarray] = None,
        num_hops: Optional[int] = None,
    ) -> None:
        self.adjacency = sp.csr_matrix(adjacency)
        if fanouts is None:
            if num_hops is None:
                raise ValueError("need fanouts or num_hops")
            fanouts = [None] * num_hops
        self.fanouts: List[Optional[int]] = list(fanouts)
        for f in self.fanouts:
            if f is not None and f < 1:
                raise ValueError(f"fanout must be >= 1 or None, got {f}")
        self.degrees = (
            true_degrees(self.adjacency) if degrees is None
            else np.asarray(degrees, dtype=np.float64).ravel()
        )

    @property
    def exact(self) -> bool:
        """True when no hop subsamples (block forward == dense at seeds)."""
        return all(f is None for f in self.fanouts)

    def sample(
        self, seeds: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> SampledBlock:
        """One union block around ``seeds``.

        ``rng`` is only consumed when a hop actually subsamples, so an
        exact sampler leaves the caller's stream untouched (this is what
        makes the full-fanout fallback seed-for-seed equivalent to the
        dense path).
        """
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size == 0:
            raise ValueError("need at least one seed")
        if not self.exact and rng is None:
            raise ValueError("subsampling fanouts need an rng")
        nodes = seeds
        frontier = seeds
        edge_rows: List[np.ndarray] = []
        edge_cols: List[np.ndarray] = []
        edge_vals: List[np.ndarray] = []
        for fanout in self.fanouts:
            if frontier.size == 0:
                break
            local, cols, vals = gather_rows(self.adjacency, frontier)
            if fanout is not None:
                local, cols, vals = _subsample_rows(
                    local, cols, vals, self.degrees[frontier[local]]
                    if local.size else np.empty(0),
                    fanout, rng)
            edge_rows.append(frontier[local])
            edge_cols.append(cols)
            edge_vals.append(np.asarray(vals, dtype=np.float64))
            reached = np.unique(cols)
            grown = np.union1d(nodes, reached)
            # The next frontier is only the genuinely new nodes: nodes seen
            # at an earlier hop already contributed their (single) row.
            frontier = np.setdiff1d(reached, nodes, assume_unique=True)
            nodes = grown
        rows_g = (np.concatenate(edge_rows) if edge_rows
                  else np.empty(0, dtype=np.int64))
        cols_g = (np.concatenate(edge_cols) if edge_cols
                  else np.empty(0, dtype=np.int64))
        vals_g = np.concatenate(edge_vals) if edge_vals else np.empty(0)
        local_rows = np.searchsorted(nodes, rows_g)
        local_cols = np.searchsorted(nodes, cols_g)
        num_edges = int(rows_g.size)
        rows, cols, vals = normalized_block(
            local_rows, local_cols, vals_g, self.degrees[nodes])
        return SampledBlock(
            nodes=nodes,
            a_n=block_csr(rows, cols, vals, nodes.size),
            seeds_local=np.searchsorted(nodes, seeds),
            num_edges=num_edges,
        )
