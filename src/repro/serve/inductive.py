"""Inductive ego-subgraph inference for single nodes and unseen nodes.

An L-layer GCN's output at node ``v`` depends only on the L-hop ego
subgraph around ``v`` — *provided* the normalization is the parent graph's.
A plain ``ego_subgraph`` + ``embed`` is wrong at the boundary: nodes at
distance L have their degrees truncated by the cut, which perturbs
``D̃^{-1/2}(A+I)D̃^{-1/2}`` and contaminates the center through L hops of
propagation.  The encoder here therefore builds the ego adjacency but
scales it with the *true* parent degrees (degree-corrected normalization),
which reproduces the full-graph normalized entries exactly — the sliced
``A_n`` rows are the same floats the offline path produces, and CSR
relabeling preserves each row's summation order.

Two hot-path optimizations keep per-request cost overhead-dominated (the
regime microbatching amortizes):

* the first layer's feature transform ``H0 = X W_0`` is input-independent,
  so it is computed once for the whole base graph and sliced per request —
  slicing the full-graph product is *more* bit-faithful than re-running
  the gemm on ego rows, since they are literally the offline floats;
* ego extraction and degree-corrected normalization run as vectorized
  gathers over the parent CSR arrays (no per-request scipy slicing or
  diag-sandwich products), emitting COO triplets that one
  ``csr_matrix`` call canonicalizes.

Known nodes encode through :meth:`InductiveEncoder.encode_nodes`: one
union L-hop block around all requested ids and one forward, so repairing
a thousand stale rows after a graph mutation shares their overlapping
neighborhoods instead of re-extracting an ego per row.

Unseen nodes (:class:`EgoQuery`: features + neighbor ids) are spliced
against the cached base graph: the query's L-hop neighborhood is the
(L-1)-hop neighborhood of its declared neighbors, base degrees are bumped
by one for each new edge, and only this delta subgraph is encoded — never
the full graph.

Batched encoding concatenates per-query triplets with block offsets (one
adjacency build, one forward pass for the whole microbatch) and splits the
result with :func:`repro.graphs.batch.split_union_embeddings`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor
from ..core.serialization import EncoderArtifact
from ..graphs import Graph
from ..graphs.batch import split_union_embeddings
from ..obs import span
from ..scale import blocks as _blocks
from .errors import MalformedQueryError, UnknownNodeError

#: (rows, cols, data) of a normalized ego block, its local h0 rows, and the
#: center's local index — everything one batch member contributes.
_EgoBlock = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]


@dataclass
class EgoQuery:
    """An unseen node to splice into the served graph.

    ``features`` is the node's feature vector; ``neighbors`` the parent
    graph ids it attaches to.  A neighborless query is legal — the GCN
    renormalization gives an isolated node a self-loop of weight 1.
    """

    features: np.ndarray
    neighbors: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.neighbors = np.asarray(self.neighbors, dtype=np.int64).ravel()


class InductiveEncoder:
    """Ego-subgraph GCN inference against a fixed base graph."""

    def __init__(self, artifact: EncoderArtifact, graph: Graph):
        if not artifact.inductive:
            raise ValueError(
                f"{artifact.step_class} produced a transductive "
                f"{artifact.kind!r} artifact; inductive serving needs a GCN"
            )
        if graph.num_features != artifact.in_features:
            raise ValueError(
                f"artifact expects {artifact.in_features} features, "
                f"graph {graph.name!r} has {graph.num_features}"
            )
        self.artifact = artifact
        self.graph = graph
        self.radius = int(artifact.num_layers)
        # Parameters are frozen and every scipy/numpy op here is read-only,
        # so concurrent encodes need no lock; only the lazy caches do.
        self._cache_lock = threading.Lock()
        self._degrees: Optional[np.ndarray] = None
        self._h0: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Lazy per-graph caches
    # ------------------------------------------------------------------
    def _true_degrees(self) -> np.ndarray:
        with self._cache_lock:
            if self._degrees is None:
                self._degrees = np.asarray(
                    self.graph.adjacency.sum(axis=1)
                ).ravel()
            return self._degrees

    def _layer0_transform(self) -> np.ndarray:
        """``H0 = X W_0`` for the whole base graph (sliced per request).

        These are the exact floats ``GCNLayer.forward`` feeds its spmm on
        the offline path (``ops.matmul`` is ``a.data @ b.data``), so ego
        slices of this cache keep served embeddings bit-identical.
        """
        with self._cache_lock:
            if self._h0 is None:
                weight = self.artifact.encoder.layers[0].weight.data
                self._h0 = np.ascontiguousarray(self.graph.features @ weight)
            return self._h0

    def _query_transform(self, features: np.ndarray) -> np.ndarray:
        """First-layer transform of one unseen node's feature row."""
        return features @ self.artifact.encoder.layers[0].weight.data

    # ------------------------------------------------------------------
    # Streaming rebind
    # ------------------------------------------------------------------
    def rebind_graph(self, graph: Graph,
                     refreshed_rows: Optional[np.ndarray] = None) -> None:
        """Swap the base graph for a mutated successor.

        Degrees re-derive lazily on next use; the ``H0 = X W_0`` cache is
        patched incrementally instead of recomputed: rows whose features
        did not change carry over (they *are* the old floats, and
        ``(X W)[i]`` depends only on row ``i``), while added nodes and the
        ``refreshed_rows`` whose features a delta batch rewrote get a
        fresh row-wise transform.
        """
        if graph.num_features != self.artifact.in_features:
            raise ValueError(
                f"artifact expects {self.artifact.in_features} features, "
                f"graph {graph.name!r} has {graph.num_features}"
            )
        refreshed = np.asarray(
            [] if refreshed_rows is None else refreshed_rows,
            dtype=np.int64).ravel()
        with self._cache_lock:
            old_h0 = self._h0
            self.graph = graph
            self._degrees = None
            if old_h0 is None:
                return
            weight = self.artifact.encoder.layers[0].weight.data
            n = graph.num_nodes
            keep = min(old_h0.shape[0], n)
            h0 = np.empty((n, old_h0.shape[1]), dtype=old_h0.dtype)
            h0[:keep] = old_h0[:keep]
            if n > keep:
                h0[keep:] = graph.features[keep:] @ weight
            stale = refreshed[refreshed < keep]
            if stale.size:
                h0[stale] = graph.features[stale] @ weight
            self._h0 = np.ascontiguousarray(h0)

    # ------------------------------------------------------------------
    # Vectorized CSR gathers — shared kernels live in repro.scale.blocks
    # (promoted from here in the scale-layer PR); these thin wrappers bind
    # the served graph so the call sites below read as before.
    # ------------------------------------------------------------------
    def _gather_rows(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(local rows, global cols, values) of the parent rows ``nodes``."""
        return _blocks.gather_rows(self.graph.adjacency, nodes)

    def _ego_nodes(self, seeds: np.ndarray, hops: int) -> np.ndarray:
        """Sorted ids within ``hops`` of any seed (vectorized BFS)."""
        return _blocks.grow_ego(self.graph.adjacency, seeds, hops)

    def _sub_triplets(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO triplets of ``A[nodes][:, nodes]`` with the diagonal dropped."""
        return _blocks.sub_triplets(self.graph.adjacency, nodes)

    def _normalized_block(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        true_degrees: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Degree-corrected ``D̃^{-1/2}(A+I)D̃^{-1/2}`` as COO triplets."""
        return _blocks.normalized_block(rows, cols, vals, true_degrees)

    def _forward(self, a_n: sp.csr_matrix, h0: np.ndarray) -> np.ndarray:
        """Drive the frozen layers with a precomputed ``A_n`` and ``H0``.

        Bypasses ``GCN.forward`` deliberately: its internal normalization
        would re-derive degrees from the (truncated) subgraph, and its
        adjacency cache mutates encoder state, which concurrent serving
        must not do.  The first layer starts from the pre-transformed
        ``H0`` rows (see :meth:`_layer0_transform`).
        """
        layers = self.artifact.encoder.layers
        h = layers[0].propagate(a_n, Tensor(h0))
        for layer in layers[1:]:
            h = layer(a_n, h)
        return h.data

    @staticmethod
    def _block_csr(block: _EgoBlock) -> sp.csr_matrix:
        rows, cols, vals, h0, _ = block
        n = h0.shape[0]
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    # ------------------------------------------------------------------
    # Known nodes
    # ------------------------------------------------------------------
    def _out_of_range(self, value: int) -> UnknownNodeError:
        return UnknownNodeError(
            f"node {value} is outside the served graph "
            f"(0..{self.graph.num_nodes - 1})",
            node=value, num_nodes=self.graph.num_nodes,
        )

    def _check_node(self, node) -> int:
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise UnknownNodeError(
                f"node id must be an integer, got {type(node).__name__}",
                node=repr(node),
            )
        value = int(node)
        if not 0 <= value < self.graph.num_nodes:
            raise self._out_of_range(value)
        return value

    def _check_nodes(self, nodes) -> np.ndarray:
        """Every id checked like :meth:`_check_node`, as an int64 vector."""
        ids = np.asarray(nodes).ravel()
        if ids.dtype == bool or not np.issubdtype(ids.dtype, np.integer):
            for node in ids.tolist():
                self._check_node(node)
        ids = ids.astype(np.int64, copy=False)
        bad = ids[(ids < 0) | (ids >= self.graph.num_nodes)]
        if bad.size:
            raise self._out_of_range(int(bad[0]))
        return ids

    def encode_nodes(self, nodes) -> np.ndarray:
        """Embeddings of existing nodes, one row per id in the caller's order.

        All ids share one union L-hop block around the unique seeds (the
        exact-fanout :class:`repro.scale.NeighborSampler` construction):
        every node within L - k hops of a seed has its full parent row in
        the block, so each seed's row equals the full-graph forward while
        overlapping neighborhoods are propagated once, not once per id.
        """
        ids = self._check_nodes(nodes)
        with span("serve.inductive_encode", rows=int(ids.size)):
            if ids.size == 0:
                return np.empty((0, self.artifact.embedding_dim))
            block = self._ego_nodes(ids, self.radius)
            rows, cols, vals = self._sub_triplets(block)
            rows, cols, vals = self._normalized_block(
                rows, cols, vals, self._true_degrees()[block])
            a_n = _blocks.block_csr(rows, cols, vals, block.size)
            out = self._forward(a_n, self._layer0_transform()[block])
            return out[np.searchsorted(block, ids)]

    def encode_node(self, node: int) -> np.ndarray:
        """Embedding of an existing node from its ego subgraph only."""
        return self.encode_nodes([node])[0]

    # ------------------------------------------------------------------
    # Unseen nodes
    # ------------------------------------------------------------------
    def validate_query(self, query: EgoQuery) -> EgoQuery:
        features = query.features
        if features.ndim != 1 or features.shape[0] != self.artifact.in_features:
            raise MalformedQueryError(
                f"query features must have shape "
                f"({self.artifact.in_features},), got {features.shape}",
                expected=self.artifact.in_features,
            )
        if not np.all(np.isfinite(features)):
            raise MalformedQueryError("query features contain NaN/Inf")
        neighbors = query.neighbors
        if neighbors.size != np.unique(neighbors).size:
            raise MalformedQueryError(
                "query neighbor list contains duplicates",
                neighbors=neighbors.tolist(),
            )
        bad = neighbors[(neighbors < 0) | (neighbors >= self.graph.num_nodes)]
        if bad.size:
            raise UnknownNodeError(
                f"query neighbors {bad.tolist()} are outside the served graph "
                f"(0..{self.graph.num_nodes - 1})",
                nodes=bad.tolist(), num_nodes=self.graph.num_nodes,
            )
        return query

    def _splice_block(self, query: EgoQuery) -> _EgoBlock:
        """Normalized triplets + h0 rows + local center for a spliced node.

        The spliced node's L-hop ego is itself plus everything within L-1
        hops of its declared neighbors; splice edges add 1 to each declared
        neighbor's true degree, and the new node's degree is its edge count.
        """
        self.validate_query(query)
        neighbors = np.sort(query.neighbors)
        if neighbors.size:
            base_nodes = self._ego_nodes(neighbors, self.radius - 1)
        else:
            base_nodes = np.empty(0, dtype=np.int64)
        m = base_nodes.shape[0]
        rows, cols, vals = self._sub_triplets(base_nodes)
        attach = np.searchsorted(base_nodes, neighbors)
        # Splice edges: neighbor -> new node (column m) and back.
        rows = np.concatenate([rows, attach, np.full(attach.size, m)])
        cols = np.concatenate([cols, np.full(attach.size, m), attach])
        vals = np.concatenate([vals, np.ones(2 * attach.size)])
        true_deg = np.empty(m + 1)
        true_deg[:m] = self._true_degrees()[base_nodes]
        true_deg[attach] += 1.0
        true_deg[m] = float(neighbors.size)
        rows, cols, vals = self._normalized_block(rows, cols, vals, true_deg)
        h0 = np.vstack([self._layer0_transform()[base_nodes],
                        self._query_transform(query.features)[None, :]])
        return rows, cols, vals, h0, m

    def encode_unseen(self, query: EgoQuery) -> np.ndarray:
        """Embedding the frozen encoder would give the spliced node."""
        with span("serve.splice_encode", neighbors=int(query.neighbors.size)):
            block = self._splice_block(query)
            return self._forward(self._block_csr(block), block[3])[block[4]]

    def spliced_graph(self, query: EgoQuery) -> Tuple[Graph, int]:
        """The full base graph with the query node appended (offline oracle).

        Only for verification — serving never materializes this; returns
        the graph and the new node's id.
        """
        self.validate_query(query)
        n = self.graph.num_nodes
        base = self.graph.adjacency
        link = np.zeros((n, 1))
        link[query.neighbors, 0] = 1.0
        adjacency = sp.bmat(
            [[base, sp.csr_matrix(link)], [sp.csr_matrix(link.T), None]],
            format="csr",
        )
        features = np.vstack([self.graph.features, query.features[None, :]])
        # Label-free: the query node has no ground truth, and embedding the
        # spliced graph never reads labels.
        return Graph(adjacency, features, labels=None,
                     name=f"{self.graph.name}[+1]"), n

    # ------------------------------------------------------------------
    # Microbatched encoding
    # ------------------------------------------------------------------
    def _fused_ego_blocks(
        self, centers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized multi-source ego extraction for a batch of known nodes.

        The kernel (``key = block * N + node`` tagging, one BFS, one row
        gather, one ``searchsorted``) lives in
        :func:`repro.scale.blocks.fused_ego_blocks`; this wrapper slices
        the served ``H0`` cache for the block's global node ids.  Returns
        ``(rows, cols, vals, h0, offsets, centers_local)`` where offsets
        are the block boundaries in the concatenated node order.
        """
        fused = _blocks.fused_ego_blocks(
            self.graph.adjacency, centers, self.radius,
            degrees=self._true_degrees())
        return (fused.rows, fused.cols, fused.vals,
                self._layer0_transform()[fused.nodes],
                fused.offsets, fused.centers)

    def encode_batch(
        self, items: Sequence[Union[int, np.integer, EgoQuery]]
    ) -> List[np.ndarray]:
        """Encode a mixed batch of node ids and splice queries at once.

        Known-node items share one fused extraction (see
        :meth:`_fused_ego_blocks`); splice queries contribute per-item
        blocks.  Everything is stacked block-diagonally into a single
        forward pass — this is the amortization the microbatcher buys.
        Item validation errors raise before any encoding happens; the
        batcher validates per-item first so one bad request cannot poison
        a batch.
        """
        if not items:
            return []
        node_slots: List[int] = []
        centers: List[int] = []
        splices: List[Tuple[int, _EgoBlock]] = []
        for slot, item in enumerate(items):
            if isinstance(item, EgoQuery):
                splices.append((slot, self._splice_block(item)))
            else:
                node_slots.append(slot)
                centers.append(self._check_node(item))
        with span("serve.batch_encode", size=len(items)):
            chunks_rows: List[np.ndarray] = []
            chunks_cols: List[np.ndarray] = []
            chunks_vals: List[np.ndarray] = []
            chunks_h0: List[np.ndarray] = []
            boundaries = [0]
            local_centers: List[int] = []
            if centers:
                rows, cols, vals, h0, offsets, fused_centers = (
                    self._fused_ego_blocks(np.asarray(centers, dtype=np.int64)))
                chunks_rows.append(rows)
                chunks_cols.append(cols)
                chunks_vals.append(vals)
                chunks_h0.append(h0)
                boundaries.extend(int(o) for o in offsets[1:])
                local_centers.extend(int(c) for c in fused_centers)
            for _, block in splices:
                shift = boundaries[-1]
                chunks_rows.append(block[0] + shift)
                chunks_cols.append(block[1] + shift)
                chunks_vals.append(block[2])
                chunks_h0.append(block[3])
                boundaries.append(shift + block[3].shape[0])
                local_centers.append(block[4])
            offsets = np.asarray(boundaries, dtype=np.int64)
            total = int(offsets[-1])
            a_n = sp.csr_matrix(
                (np.concatenate(chunks_vals),
                 (np.concatenate(chunks_rows), np.concatenate(chunks_cols))),
                shape=(total, total))
            stacked = self._forward(a_n, np.vstack(chunks_h0))
            per_block = split_union_embeddings(stacked, offsets)
        results: List[Optional[np.ndarray]] = [None] * len(items)
        ordered_slots = node_slots + [slot for slot, _ in splices]
        for slot, embedding, center in zip(ordered_slots, per_block, local_centers):
            results[slot] = embedding[center]
        return results
