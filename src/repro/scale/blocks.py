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

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

# One copy of the degree-corrected arithmetic, shared with ``Graph.a_n``.
from ..graphs.adjacency import normalized_block

__all__ = [
    "block_csr",
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


def grow_ego(adjacency: sp.csr_matrix, seeds: np.ndarray, hops: int,
             limit: Optional[int] = None) -> Optional[np.ndarray]:
    """Sorted node ids within ``hops`` of any seed (vectorized BFS).

    With a ``limit``, growth stops as soon as the union holds more than
    ``limit`` nodes and the result is ``None``.
    """
    nodes = np.unique(np.asarray(seeds, dtype=np.int64))
    for _ in range(hops):
        if limit is not None and nodes.size > limit:
            break
        _, cols, _ = gather_rows(adjacency, nodes)
        grown = np.union1d(nodes, cols)
        if grown.size == nodes.size:
            break
        nodes = grown
    return None if limit is not None and nodes.size > limit else nodes


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


def block_csr(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int
) -> sp.csr_matrix:
    """Canonicalize COO triplets into an ``(size, size)`` CSR block."""
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))

