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
  :meth:`repro.nn.GCN.propagate` runs the encoder's one layer loop from
  those rows over the block operator;
* ego extraction and degree-corrected normalization run as the vectorized
  gathers of :mod:`repro.scale.blocks` over the parent CSR arrays (no
  per-request scipy slicing or diag-sandwich products), emitting COO
  triplets that one ``csr_matrix`` call canonicalizes.

The served graph and its ``H0`` travel as one ``(graph, H0)`` binding that
:meth:`InductiveEncoder.rebind_graph` swaps whole; each encode reads it
once, so a concurrent rebind never mixes two graphs into one row.

Known nodes are encoded from one union L-hop block around all requested
ids, built in one place (:meth:`InductiveEncoder._known_block`), so a
microbatch of reads shares their overlapping neighborhoods instead of
extracting an ego per id.  :meth:`InductiveEncoder.encode_nodes` grows
that union one hop at a time and stops once it holds more than
:data:`WHOLE_GRAPH_SHARE` of the graph: repairing most rows after a graph
mutation then runs one forward over the whole graph's ``Graph.a_n`` (the
offline computation itself) and slices the requested rows.

Unseen nodes (:class:`EgoQuery`: features + neighbor ids) are spliced
against the cached base graph: the query's L-hop neighborhood is the
(L-1)-hop neighborhood of its declared neighbors, base degrees are bumped
by one for each new edge, and only this delta subgraph is encoded — never
the full graph.

Batched encoding stacks the known-node union block and one block per
splice query block-diagonally (one adjacency build, one forward pass for
the whole microbatch) and picks each item's row from the stacked output.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..core.serialization import EncoderArtifact
from ..graphs import Graph
from ..obs import span
from ..scale import blocks as _blocks
from .errors import MalformedQueryError, UnknownNodeError

#: Share of the graph past which a known-node union block is abandoned for
#: one whole-graph forward over ``Graph.a_n``.  Measured on the 2,000-node
#: stream graph (2-vCPU host, one BLAS thread): the block path wins only while its union
#: holds fewer than ~55-60% of the nodes, and a 96% block cost 5.5-6.9 ms
#: per repair against ~3.2 ms for the whole graph.
WHOLE_GRAPH_SHARE = 0.5

#: (rows, cols, data) of a normalized block, its local h0 rows, and the
#: local index of each center — everything one batch member contributes.
_EgoBlock = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                  Union[int, np.ndarray]]


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
        self.radius = int(artifact.num_layers)
        # The served graph and its ``H0 = X W_0`` rows are one reference:
        # ``rebind_graph`` swaps the pair whole and every encode reads it
        # once, so no encode mixes two graphs.  Parameters are frozen and
        # every scipy/numpy op is read-only; only filling ``H0`` locks.
        self._lock = threading.Lock()
        self._binding: Tuple[Graph, Optional[np.ndarray]] = (graph, None)

    @property
    def graph(self) -> Graph:
        """The served base graph."""
        return self._binding[0]

    def _bound(self) -> Tuple[Graph, np.ndarray]:
        """The served graph and its ``H0 = X W_0`` rows, read as one pair.

        ``H0`` holds the exact floats ``GCNLayer.forward`` feeds its spmm on
        the offline path (``ops.matmul`` is ``a.data @ b.data``), so ego
        slices of it keep served embeddings bit-identical.  It is computed
        once per graph, on first use.
        """
        binding = self._binding
        if binding[1] is None:
            with self._lock:
                binding = self._binding
                if binding[1] is None:
                    graph = binding[0]
                    weight = self.artifact.encoder.layers[0].weight.data
                    binding = (graph,
                               np.ascontiguousarray(graph.features @ weight))
                    self._binding = binding
        return binding

    def _query_transform(self, features: np.ndarray) -> np.ndarray:
        """First-layer transform of one unseen node's feature row."""
        return features @ self.artifact.encoder.layers[0].weight.data

    # ------------------------------------------------------------------
    # Streaming rebind
    # ------------------------------------------------------------------
    def rebind_graph(self, graph: Graph,
                     refreshed_rows: Optional[np.ndarray] = None) -> None:
        """Swap the base graph for a mutated successor.

        Degrees come from the new graph; the ``H0 = X W_0`` cache is
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
        with self._lock:
            old_h0 = self._binding[1]
            if old_h0 is None:
                self._binding = (graph, None)
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
            self._binding = (graph, np.ascontiguousarray(h0))

    # ------------------------------------------------------------------
    # Known nodes
    # ------------------------------------------------------------------
    # Ids are checked against the graph *before* an encode reads its
    # binding: the served graph only grows, so an id valid then is valid
    # in whatever binding the encode sees.
    def _out_of_range(self, value: int) -> UnknownNodeError:
        return UnknownNodeError(
            f"node {value} is outside the served graph "
            f"(0..{self.graph.num_nodes - 1})",
            node=value, num_nodes=self.graph.num_nodes,
        )

    def _check_node(self, node) -> int:
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise MalformedQueryError(
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

    def _known_block(self, ids: np.ndarray, block: np.ndarray, graph: Graph,
                     h0: np.ndarray) -> _EgoBlock:
        """Normalized triplets + h0 rows + local rows of existing ``ids``.

        All ids share one union L-hop block around the unique seeds (the
        exact-fanout :class:`repro.scale.NeighborSampler` construction):
        ``block`` is ``grow_ego(ids, L)``, so every node within L - k hops
        of a seed has its full parent row in the block, and each seed's row
        equals the full-graph forward while overlapping neighborhoods are
        propagated once, not once per id.  Duplicate ids map to the same
        local row.
        """
        rows, cols, vals = _blocks.sub_triplets(graph.adjacency, block)
        rows, cols, vals = _blocks.normalized_block(
            rows, cols, vals, graph.degrees[block])
        return rows, cols, vals, h0[block], np.searchsorted(block, ids)

    def encode_nodes(self, nodes) -> np.ndarray:
        """Embeddings of existing nodes, one row per id in the caller's order.

        The ids' union L-hop block grows one hop at a time.  Once it holds
        more than :data:`WHOLE_GRAPH_SHARE` of the graph, growth stops and
        one forward over the whole graph's ``a_n`` serves the rows instead:
        the same floats, without building a block nearly the graph's size.
        """
        ids = self._check_nodes(nodes)
        graph, h0 = self._bound()
        if ids.size == 0:
            return np.empty((0, self.artifact.embedding_dim))
        block = _blocks.grow_ego(
            graph.adjacency, ids, self.radius,
            limit=int(graph.num_nodes * WHOLE_GRAPH_SHARE))
        with span("serve.inductive_encode", rows=int(ids.size),
                  whole_graph=block is None):
            if block is None:
                return self.artifact.encoder.propagate(graph.a_n, h0).data[ids]
            rows, cols, vals, block_h0, local = self._known_block(
                ids, block, graph, h0)
            a_n = _blocks.block_csr(rows, cols, vals, block_h0.shape[0])
            return self.artifact.encoder.propagate(a_n, block_h0).data[local]

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

    def _splice_block(self, query: EgoQuery, graph: Graph,
                      h0: np.ndarray) -> _EgoBlock:
        """Normalized triplets + h0 rows + local center for a spliced node.

        ``query`` is already validated and ``(graph, h0)`` is the encode's
        binding.  The spliced node's L-hop ego is itself plus everything
        within L-1 hops of its declared neighbors; splice edges add 1 to
        each declared neighbor's true degree, and the new node's degree is
        its edge count.
        """
        neighbors = np.sort(query.neighbors)
        if neighbors.size:
            base_nodes = _blocks.grow_ego(
                graph.adjacency, neighbors, self.radius - 1)
        else:
            base_nodes = np.empty(0, dtype=np.int64)
        m = base_nodes.shape[0]
        rows, cols, vals = _blocks.sub_triplets(graph.adjacency, base_nodes)
        attach = np.searchsorted(base_nodes, neighbors)
        # Splice edges: neighbor -> new node (column m) and back.
        rows = np.concatenate([rows, attach, np.full(attach.size, m)])
        cols = np.concatenate([cols, np.full(attach.size, m), attach])
        vals = np.concatenate([vals, np.ones(2 * attach.size)])
        true_deg = np.empty(m + 1)
        true_deg[:m] = graph.degrees[base_nodes]
        true_deg[attach] += 1.0
        true_deg[m] = float(neighbors.size)
        rows, cols, vals = _blocks.normalized_block(rows, cols, vals, true_deg)
        block_h0 = np.vstack([h0[base_nodes],
                              self._query_transform(query.features)[None, :]])
        return rows, cols, vals, block_h0, m

    def encode_unseen(self, query: EgoQuery) -> np.ndarray:
        """Embedding the frozen encoder would give the spliced node."""
        with span("serve.splice_encode", neighbors=int(query.neighbors.size)):
            self.validate_query(query)
            rows, cols, vals, h0, center = self._splice_block(
                query, *self._bound())
            a_n = _blocks.block_csr(rows, cols, vals, h0.shape[0])
            return self.artifact.encoder.propagate(a_n, h0).data[center]

    def spliced_graph(self, query: EgoQuery) -> Tuple[Graph, int]:
        """The full base graph with the query node appended (offline oracle).

        Only for verification — serving never materializes this; returns
        the graph and the new node's id.
        """
        self.validate_query(query)
        graph = self.graph
        n = graph.num_nodes
        link = np.zeros((n, 1))
        link[query.neighbors, 0] = 1.0
        adjacency = sp.bmat(
            [[graph.adjacency, sp.csr_matrix(link)],
             [sp.csr_matrix(link.T), None]],
            format="csr",
        )
        features = np.vstack([graph.features, query.features[None, :]])
        # Label-free: the query node has no ground truth, and embedding the
        # spliced graph never reads labels.
        return Graph(adjacency, features, labels=None,
                     name=f"{graph.name}[+1]"), n

    # ------------------------------------------------------------------
    # Microbatched encoding
    # ------------------------------------------------------------------
    def encode_batch(
        self, items: Sequence[Union[int, np.integer, EgoQuery]]
    ) -> List[np.ndarray]:
        """Encode a mixed batch of node ids and splice queries at once.

        Known-node items share one union block (the :meth:`encode_nodes`
        construction; duplicate ids are fine); each splice query keeps its
        own block, so its degree bumps never reach another item.  The
        blocks are stacked block-diagonally into a single forward pass —
        this is the amortization the microbatcher buys.  Item validation
        errors raise before any encoding happens; the batcher validates
        per-item first so one bad request cannot poison a batch.
        """
        if not items:
            return []
        node_slots: List[int] = []
        centers: List[int] = []
        queries: List[Tuple[int, EgoQuery]] = []
        for slot, item in enumerate(items):
            if isinstance(item, EgoQuery):
                queries.append((slot, self.validate_query(item)))
            else:
                node_slots.append(slot)
                centers.append(self._check_node(item))
        graph, h0 = self._bound()
        with span("serve.batch_encode", size=len(items)):
            parts: List[_EgoBlock] = []
            if centers:
                ids = np.asarray(centers, dtype=np.int64)
                parts.append(self._known_block(
                    ids, _blocks.grow_ego(graph.adjacency, ids, self.radius),
                    graph, h0))
            parts.extend(self._splice_block(query, graph, h0)
                         for _, query in queries)
            chunks_rows: List[np.ndarray] = []
            chunks_cols: List[np.ndarray] = []
            chunks_vals: List[np.ndarray] = []
            chunks_h0: List[np.ndarray] = []
            picks = []
            shift = 0
            for rows, cols, vals, block_h0, local in parts:
                chunks_rows.append(rows + shift)
                chunks_cols.append(cols + shift)
                chunks_vals.append(vals)
                chunks_h0.append(block_h0)
                picks.append(local + shift)
                shift += block_h0.shape[0]
            a_n = _blocks.block_csr(
                np.concatenate(chunks_rows), np.concatenate(chunks_cols),
                np.concatenate(chunks_vals), shift)
            stacked = self.artifact.encoder.propagate(
                a_n, np.vstack(chunks_h0)).data
            picked = stacked[np.hstack(picks)]
        results: List[Optional[np.ndarray]] = [None] * len(items)
        ordered_slots = node_slots + [slot for slot, _ in queries]
        for slot, embedding in zip(ordered_slots, picked):
            results[slot] = embedding
        return results
