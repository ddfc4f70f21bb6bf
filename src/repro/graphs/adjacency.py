"""Adjacency normalization and propagated-feature computation.

Implements the GCN normalization ``A_n = D̃^{-1/2} (A + I) D̃^{-1/2}``
(Kipf & Welling) plus the random-walk variant, and the paper's central
pre-processing step ``R = A_n^L X`` (Theorem 1 / Alg. 2 line 1) computed by
``L`` successive sparse-dense products — never materializing ``A_n^L``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from .graph import Graph


def add_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` as CSR (idempotent on the diagonal).

    Stays in CSR throughout: adds ``1 − diag(A)`` along the diagonal so
    existing self-loops are not double-counted, avoiding the LIL round-trip
    (which is a Python-level loop over rows on large graphs).
    """
    out = sp.csr_matrix(adjacency)
    fill = 1.0 - out.diagonal()
    if np.any(fill):
        out = (out + sp.diags(fill, format="csr")).tocsr()
        out.eliminate_zeros()
    return out


def normalized_adjacency(
    adjacency: sp.spmatrix,
    method: str = "symmetric",
    self_loops: bool = True,
) -> sp.csr_matrix:
    """Normalize an adjacency matrix.

    Parameters
    ----------
    adjacency:
        Sparse ``(n, n)`` matrix.
    method:
        ``"symmetric"`` for ``D^{-1/2} A D^{-1/2}`` (GCN) or
        ``"row"`` for ``D^{-1} A`` (random walk).
    self_loops:
        Add ``I`` before normalizing (the GCN renormalization trick).
        Isolated nodes then normalize to a self-loop weight of 1 instead of
        producing divisions by zero.
    """
    adj = add_self_loops(adjacency) if self_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if method == "symmetric":
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(degrees > 0, degrees ** -0.5, 0.0)
        d_mat = sp.diags(inv_sqrt)
        return (d_mat @ adj @ d_mat).tocsr()
    if method == "row":
        with np.errstate(divide="ignore"):
            inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
        return (sp.diags(inv) @ adj).tocsr()
    raise ValueError(f"unknown normalization method {method!r}")


def normalized_block(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    degrees: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree-corrected ``D̃^{-1/2}(A+I)D̃^{-1/2}`` as COO triplets.

    ``rows``/``cols``/``vals`` are the off-diagonal entries of a block of
    ``A`` in local ids and ``degrees`` the block nodes' *parent* degrees.
    Same arithmetic as :func:`normalized_adjacency` — ``D̃`` from parent
    degrees (+1 for the renormalization self-loop), scale rows then
    columns — so every entry equals the corresponding full-graph float
    exactly.  The ``n`` diagonal entries follow the off-diagonal ones.
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


def normalized_csr(adjacency: sp.csr_matrix,
                   degrees: np.ndarray) -> sp.csr_matrix:
    """``D̃^{-1/2}(A+I)D̃^{-1/2}`` of a whole :class:`Graph` as canonical CSR.

    ``adjacency`` holds the :class:`Graph` invariants (binary, symmetric,
    no self-loops, sorted indices) and ``degrees`` are its row sums.  The
    entries are :func:`normalized_block` over the graph's own CSR, and
    each row's diagonal entry is written at its sorted place, so the
    result equals :func:`normalized_adjacency` bit for bit without
    scipy's ``diag @ A @ diag`` products.
    """
    n = adjacency.shape[0]
    indptr, indices = adjacency.indptr, adjacency.indices
    nnz = indices.size
    edge_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    _, _, vals = normalized_block(edge_rows, indices, adjacency.data, degrees)
    # Row r gains one entry, so its edges shift right by r (the diagonals
    # of earlier rows), plus one more past its own diagonal.
    below = indices < edge_rows
    edge_pos = np.arange(nnz) + edge_rows + ~below
    diag = np.arange(n, dtype=np.int64)
    diag_pos = indptr[:-1] + diag + np.bincount(edge_rows[below], minlength=n)
    out_indices = np.empty(nnz + n, dtype=np.int64)
    out_data = np.empty(nnz + n)
    out_indices[edge_pos] = indices
    out_indices[diag_pos] = diag
    out_data[edge_pos] = vals[:nnz]
    out_data[diag_pos] = vals[nnz:]
    out_indptr = np.asarray(indptr, dtype=np.int64) + np.arange(n + 1)
    return sp.csr_matrix((out_data, out_indices, out_indptr), shape=(n, n))


def propagated_features(graph: Graph, hops: int, method: str = "symmetric") -> np.ndarray:
    """Compute ``R = A_n^L X`` — the raw aggregated information of Theorem 1.

    Done with ``hops`` sparse-dense multiplications, i.e.
    ``O(D̄^L |V| d_x)`` as the paper's complexity analysis states.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    a_n = normalized_adjacency(graph.adjacency, method=method)
    r = graph.features
    for _ in range(hops):
        r = a_n @ r
    return np.asarray(r)


def adjacency_from_edge_mask(graph: Graph, keep_mask: np.ndarray) -> sp.csr_matrix:
    """Adjacency containing only the undirected edges where ``keep_mask`` is True.

    ``keep_mask`` indexes :meth:`Graph.edge_array` order.
    """
    edges = graph.edge_array()
    keep_mask = np.asarray(keep_mask, dtype=bool)
    if keep_mask.shape[0] != edges.shape[0]:
        raise ValueError("mask length must equal number of undirected edges")
    kept = edges[keep_mask]
    n = graph.num_nodes
    if kept.size == 0:
        return sp.csr_matrix((n, n))
    rows = np.concatenate([kept[:, 0], kept[:, 1]])
    cols = np.concatenate([kept[:, 1], kept[:, 0]])
    return sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))


def adjacency_from_edges(num_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric binary adjacency from an ``(m, 2)`` undirected edge array."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes))
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(num_nodes, num_nodes))
    adj.data = np.ones_like(adj.data)  # collapse duplicates
    return adj
