"""Shared CSR block-extraction kernels for serving and sampled training.

These are the vectorized gathers the serve :class:`InductiveEncoder` grew
for per-request ego extraction (PR 5), promoted into a standalone module so
the training-side :class:`repro.scale.SampledTrainStep` can reuse them.
Everything operates on a parent CSR adjacency plus a vector of *parent*
degrees, producing degree-corrected normalized blocks whose entries are the
exact full-graph floats of ``D̃^{-1/2}(A+I)D̃^{-1/2}`` (see
``repro/serve/inductive.py`` for why parent degrees are load-bearing).

All functions are pure and read-only on the adjacency, so concurrent
callers need no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BlockDiagonal",
    "block_csr",
    "fused_ego_blocks",
    "gather_rows",
    "grow_ego",
    "normalized_block",
    "sub_triplets",
    "true_degrees",
]


def true_degrees(adjacency: sp.spmatrix) -> np.ndarray:
    """Parent-graph degree vector (row sums of the binary adjacency)."""
    return np.asarray(adjacency.sum(axis=1)).ravel()


def gather_rows(
    adjacency: sp.csr_matrix, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(local rows, global cols, values) of the parent CSR rows ``nodes``.

    One vectorized gather over ``indptr``/``indices``/``data`` — no scipy
    fancy-indexing (which allocates an intermediate CSR per call).
    """
    starts = adjacency.indptr[nodes]
    counts = adjacency.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64), np.empty(0))
    shift = np.concatenate(([0], np.cumsum(counts[:-1])))
    source = np.repeat(starts - shift, counts) + np.arange(total)
    rows = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    return rows, adjacency.indices[source], adjacency.data[source]


def grow_ego(adjacency: sp.csr_matrix, seeds: np.ndarray, hops: int) -> np.ndarray:
    """Sorted node ids within ``hops`` of any seed (vectorized BFS)."""
    nodes = np.unique(np.asarray(seeds, dtype=np.int64))
    for _ in range(hops):
        _, cols, _ = gather_rows(adjacency, nodes)
        grown = np.union1d(nodes, cols)
        if grown.size == nodes.size:
            break
        nodes = grown
    return nodes


def sub_triplets(
    adjacency: sp.csr_matrix, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of ``A[nodes][:, nodes]`` with the diagonal dropped.

    Column order inside each row stays ascending (the parent CSR is
    canonical and ``nodes`` is sorted), so the downstream CSR build
    reproduces the full-graph summation order bit for bit.  Diagonal
    entries are dropped to mirror ``add_self_loops`` forcing them to 1.
    """
    rows, cols, vals = gather_rows(adjacency, nodes)
    pos = np.searchsorted(nodes, cols)
    clipped = np.minimum(pos, nodes.size - 1)
    keep = (nodes[clipped] == cols) & (cols != nodes[rows])
    return rows[keep], pos[keep], vals[keep]


def normalized_block(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    degrees: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree-corrected ``D̃^{-1/2}(A+I)D̃^{-1/2}`` as COO triplets.

    Same arithmetic as :func:`repro.graphs.adjacency.normalized_adjacency`
    restricted to the block — ``D̃`` from *parent* degrees (+1 for the
    renormalization self-loop), scale rows then columns — so every entry
    equals the corresponding full-graph float exactly.
    """
    n = degrees.shape[0]
    tilde = degrees + 1.0
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(tilde > 0, tilde ** -0.5, 0.0)
    diag = np.arange(n, dtype=np.int64)
    out_rows = np.concatenate([rows, diag])
    out_cols = np.concatenate([cols, diag])
    out_vals = np.concatenate([vals, np.ones(n)])
    out_vals = (out_vals * inv_sqrt[out_rows]) * inv_sqrt[out_cols]
    return out_rows, out_cols, out_vals


@dataclass
class BlockDiagonal:
    """A batch's block-diagonal normalized adjacency in COO triplet form.

    ``nodes`` holds the *global* id of every concatenated local row (block
    by block), ``offsets`` the block boundaries (``offsets[i]:offsets[i+1]``
    is block ``i``'s row range), and ``centers`` each block's seed as a
    block-local index.  Consumers slice whatever per-node payload they own
    — serve its cached ``H0 = X W_0`` rows, training the raw features.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    nodes: np.ndarray
    offsets: np.ndarray
    centers: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.nodes.shape[0])


def block_csr(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int
) -> sp.csr_matrix:
    """Canonicalize COO triplets into an ``(size, size)`` CSR block."""
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def fused_ego_blocks(
    adjacency: sp.csr_matrix,
    centers: np.ndarray,
    radius: int,
    degrees: Optional[np.ndarray] = None,
) -> BlockDiagonal:
    """Vectorized multi-source ego extraction for a batch of nodes.

    Every node is tagged with its block id (``key = block * N + node``,
    strictly increasing by construction), so one BFS, one row gather, and
    one ``searchsorted`` against the key array produce the entire batch's
    *block-diagonal* normalized adjacency directly — the amortization
    unbatched requests structurally cannot have.

    Each block is built independently (node ``v`` appearing in two egos
    gets two distinct local rows), which is what per-item isolation in
    serving requires.  Training batches that only read seed rows should
    prefer a single union block (see :mod:`repro.scale.sampler`), which
    shares overlapping neighborhoods instead of duplicating them.
    """
    centers = np.asarray(centers, dtype=np.int64)
    if degrees is None:
        degrees = true_degrees(adjacency)
    n_graph = adjacency.shape[0]
    k = centers.shape[0]
    keys = np.arange(k, dtype=np.int64) * n_graph + centers
    for _ in range(radius):
        rows, cols, _ = gather_rows(adjacency, keys % n_graph)
        if cols.size == 0:
            break
        grown = np.union1d(keys, (keys[rows] // n_graph) * n_graph + cols)
        if grown.size == keys.size:
            break
        keys = grown
    all_nodes = keys % n_graph
    all_blocks = keys // n_graph
    rows, cols, vals = gather_rows(adjacency, all_nodes)
    col_keys = all_blocks[rows] * n_graph + cols
    pos = np.searchsorted(keys, col_keys)
    clipped = np.minimum(pos, keys.size - 1)
    keep = (keys[clipped] == col_keys) & (cols != all_nodes[rows])
    rows, cols, vals = normalized_block(
        rows[keep], pos[keep], vals[keep], degrees[all_nodes])
    offsets = np.searchsorted(all_blocks, np.arange(k + 1))
    centers_local = (
        np.searchsorted(keys, np.arange(k, dtype=np.int64) * n_graph + centers)
        - offsets[:-1]
    )
    return BlockDiagonal(
        rows=rows, cols=cols, vals=vals,
        nodes=all_nodes, offsets=offsets, centers=centers_local,
    )
