"""The :class:`Graph` container used throughout the reproduction.

A graph is ``G(V, A, X)`` exactly as in the paper's Sec. II: a node set
(implicit, ``0..n-1``), a symmetric binary adjacency matrix ``A`` stored as
scipy CSR, and a dense feature matrix ``X``.  Node labels ``y`` are carried
along for the *downstream* evaluation only — none of the contrastive
pre-training code reads them.

The class is deliberately immutable-ish: augmentation operators return new
``Graph`` objects rather than mutating in place, which keeps the view
generator honest (the original graph survives every experiment).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp


class GraphConstructionError(ValueError):
    """Structured rejection of an invalid edge list.

    Carries the offending pairs so callers (delta replay, validation
    tooling) can report or skip them precisely instead of parsing the
    message.  ``self_loops`` holds ``(u, u)`` pairs, ``duplicates`` holds
    canonicalized ``(u, v)`` pairs (``u < v``) that appeared more than once
    — including a reversed ``(v, u)`` restatement of an earlier edge, which
    would otherwise be silently collapsed by symmetrization while a
    *doubled* entry would poison degree normalization on mutated graphs.
    """

    def __init__(
        self,
        message: str,
        *,
        self_loops: Sequence[Tuple[int, int]] = (),
        duplicates: Sequence[Tuple[int, int]] = (),
    ) -> None:
        super().__init__(message)
        self.self_loops = [tuple(int(x) for x in e) for e in self_loops]
        self.duplicates = [tuple(int(x) for x in e) for e in duplicates]


class Graph:
    """An undirected attributed graph.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` scipy sparse matrix.  It is symmetrized, binarized, and
        stripped of self-loops on construction so every algorithm can rely
        on those invariants.
    features:
        ``(n, d)`` dense feature matrix.
    labels:
        Optional ``(n,)`` integer class labels (downstream tasks only).
    name:
        Human-readable dataset name for logs and benchmark tables.
    """

    def __init__(
        self,
        adjacency: sp.spmatrix,
        features: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        adjacency = sp.csr_matrix(adjacency)
        if adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError(f"adjacency must be square; got {adjacency.shape}")
        n = adjacency.shape[0]
        if adjacency.nnz and not np.isfinite(adjacency.data).all():
            raise ValueError(
                f"adjacency of {name!r} contains non-finite entries"
            )
        try:
            features = np.asarray(features, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"features of {name!r} must be numeric "
                f"(got dtype {np.asarray(features).dtype}): {exc}"
            ) from exc
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError(
                f"features must be (n={n}, d); got {features.shape}"
            )
        if not np.isfinite(features).all():
            bad = int(features.shape[0] - np.isfinite(features).all(axis=1).sum())
            raise ValueError(
                f"features of {name!r} contain NaN/Inf in {bad} row(s); "
                "propagation would silently poison every embedding — clean "
                "or impute the features first"
            )
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise ValueError(f"labels must be ({n},); got {labels.shape}")
            if not np.issubdtype(labels.dtype, np.integer):
                raise ValueError(
                    f"labels of {name!r} must be integers; got dtype "
                    f"{labels.dtype}"
                )
            if labels.size and int(labels.min()) < 0:
                raise ValueError(
                    f"labels of {name!r} contain negative class indices "
                    f"(min {int(labels.min())})"
                )

        # Enforce invariants: symmetric, binary, no self-loops.
        adjacency = adjacency.maximum(adjacency.T)
        adjacency.setdiag(0)
        adjacency.eliminate_zeros()
        adjacency.data = np.ones_like(adjacency.data)

        self.adjacency: sp.csr_matrix = adjacency.tocsr()
        self.features = features
        self.labels = labels
        self.name = name
        self._degrees: Optional[np.ndarray] = None
        self._a_n: Optional[sp.csr_matrix] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from (u, v) pairs; features default to identity rows.

        Self-loops and duplicate edges (including ``(v, u)`` restatements of
        an earlier ``(u, v)``) are rejected with a structured
        :class:`GraphConstructionError` — the constructor would silently
        canonicalize them away, hiding bugs in the edge source.
        """
        edges = np.asarray(list(edges), dtype=np.int64)
        if edges.size == 0:
            adjacency = sp.csr_matrix((num_nodes, num_nodes))
        else:
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise ValueError("edge endpoint out of range")
            loops = edges[edges[:, 0] == edges[:, 1]]
            if loops.size:
                raise GraphConstructionError(
                    f"edge list of {name!r} contains {loops.shape[0]} "
                    f"self-loop(s), e.g. {tuple(loops[0])}",
                    self_loops=loops[:8].tolist(),
                )
            canon = np.sort(edges, axis=1)
            uniq, counts = np.unique(canon, axis=0, return_counts=True)
            if (counts > 1).any():
                dups = uniq[counts > 1]
                raise GraphConstructionError(
                    f"edge list of {name!r} contains {dups.shape[0]} "
                    f"duplicate undirected edge(s), e.g. {tuple(dups[0])}",
                    duplicates=dups[:8].tolist(),
                )
            rows = np.concatenate([edges[:, 0], edges[:, 1]])
            cols = np.concatenate([edges[:, 1], edges[:, 0]])
            data = np.ones(rows.shape[0])
            adjacency = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
        if features is None:
            features = np.eye(num_nodes)
        return cls(adjacency, features, labels=labels, name=name)

    @classmethod
    def from_canonical_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        features: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
        validate: bool = False,
    ) -> "Graph":
        """Wrap already-canonical CSR arrays without re-canonicalizing.

        The caller guarantees the arrays describe a symmetric binary
        adjacency with no self-loops and sorted indices per row (the
        invariants ``__init__`` enforces).  This is the fast path for
        incremental mutation (``repro.stream.MutableGraph``), where the
        arrays are maintained canonical by construction and a
        ``maximum(A, A.T)`` round-trip per apply would dominate.  Pass
        ``validate=True`` to pay for a full invariant check.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n = indptr.shape[0] - 1
        adjacency = sp.csr_matrix(
            (np.ones(indices.shape[0], dtype=np.float64), indices, indptr),
            shape=(n, n),
        )
        adjacency.has_sorted_indices = True
        graph = cls.__new__(cls)
        graph.adjacency = adjacency
        graph.features = np.asarray(features, dtype=np.float64)
        if graph.features.ndim != 2 or graph.features.shape[0] != n:
            raise ValueError(
                f"features must be (n={n}, d); got {graph.features.shape}"
            )
        graph.labels = None if labels is None else np.asarray(labels)
        graph.name = name
        graph._degrees = None
        graph._a_n = None
        if validate:
            graph.validate()
        return graph

    def copy(self) -> "Graph":
        """Deep copy (fresh adjacency, features, labels)."""
        return Graph(self.adjacency.copy(), self.features.copy(),
                     None if self.labels is None else self.labels.copy(), self.name)

    def with_adjacency(self, adjacency: sp.spmatrix) -> "Graph":
        """New graph sharing features/labels but with a different structure."""
        return Graph(adjacency, self.features, self.labels, self.name)

    def with_features(self, features: np.ndarray) -> "Graph":
        """New graph sharing structure/labels but with different features.

        The structure is unchanged, so the successor shares whatever degrees
        and normalized adjacency this graph has already derived.
        """
        graph = Graph(self.adjacency, features, self.labels, self.name)
        graph._degrees, graph._a_n = self._degrees, self._a_n
        return graph

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.adjacency.nnz // 2)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError(f"graph {self.name!r} has no labels")
        return int(self.labels.max()) + 1

    @property
    def degrees(self) -> np.ndarray:
        """Node degrees as a float array (cached)."""
        if self._degrees is None:
            self._degrees = np.asarray(self.adjacency.sum(axis=1)).ravel()
        return self._degrees

    @property
    def a_n(self) -> sp.csr_matrix:
        """``Â = D̃^{-1/2}(A+I)D̃^{-1/2}``, the GCN operator of Eq. (1) (cached).

        Derived once per graph object, so every encoder forward over this
        graph (or over a :meth:`with_features` successor) reads one matrix.
        """
        if self._a_n is None:
            from .adjacency import normalized_csr

            self._a_n = normalized_csr(self.adjacency, self.degrees)
        return self._a_n

    @property
    def average_degree(self) -> float:
        return float(self.degrees.mean()) if self.num_nodes else 0.0

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """1-hop neighbors of ``node`` (sorted, CSR order)."""
        start, stop = self.adjacency.indptr[node], self.adjacency.indptr[node + 1]
        return self.adjacency.indices[start:stop]

    def two_hop_neighbors(self, node: int) -> np.ndarray:
        """Nodes at distance exactly 1 or 2 from ``node`` (excluding itself).

        This is the candidate set ``N_u^1 ∪ N_u^2`` of Alg. 3.
        """
        one_hop = self.neighbors(node)
        if one_hop.size == 0:
            return one_hop
        seen = set(one_hop.tolist())
        seen.add(node)
        result = list(one_hop)
        for u in one_hop:
            for w in self.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    result.append(w)
        return np.asarray(sorted(result), dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge (u, v) exists."""
        return bool(self.adjacency[u, v])

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an ``(m, 2)`` array with ``u < v`` per row."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        return np.stack([coo.row, coo.col], axis=1)

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Sequence[int], name: Optional[str] = None) -> Tuple["Graph", np.ndarray]:
        """Subgraph induced on ``nodes``; returns (graph, original-id map).

        The returned mapping array gives, for each new node index, its id in
        the parent graph.
        """
        nodes = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
        sub_adj = self.adjacency[nodes][:, nodes]
        sub_x = self.features[nodes]
        sub_y = None if self.labels is None else self.labels[nodes]
        sub = Graph(sub_adj, sub_x, sub_y, name or f"{self.name}[sub]")
        return sub, nodes

    def ego_nodes(self, center: int, hops: int) -> np.ndarray:
        """All nodes within ``hops`` of ``center`` (including ``center``)."""
        frontier = {int(center)}
        seen = {int(center)}
        for _ in range(hops):
            next_frontier = set()
            for v in frontier:
                for u in self.neighbors(v):
                    if int(u) not in seen:
                        seen.add(int(u))
                        next_frontier.add(int(u))
            frontier = next_frontier
            if not frontier:
                break
        return np.asarray(sorted(seen), dtype=np.int64)

    def ego_subgraph(self, center: int, hops: int) -> Tuple["Graph", int]:
        """``L``-hop local subgraph ``G_v`` and the center's index inside it."""
        nodes = self.ego_nodes(center, hops)
        sub, mapping = self.induced_subgraph(nodes, name=f"{self.name}[ego:{center}]")
        local_center = int(np.searchsorted(mapping, center))
        return sub, local_center

    # ------------------------------------------------------------------
    # Interop / debugging
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a networkx graph (features/labels as node attributes)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(map(tuple, self.edge_array()))
        return g

    def validate(self) -> None:
        """Raise if any structural invariant is violated (used in tests)."""
        adj = self.adjacency
        if (adj != adj.T).nnz != 0:
            raise AssertionError("adjacency is not symmetric")
        if adj.diagonal().sum() != 0:
            raise AssertionError("adjacency has self loops")
        if adj.nnz and not np.all(adj.data == 1.0):
            raise AssertionError("adjacency is not binary")
        for row in range(self.num_nodes):
            seg = adj.indices[adj.indptr[row]:adj.indptr[row + 1]]
            if seg.size > 1 and np.any(np.diff(seg) <= 0):
                raise AssertionError(f"row {row} indices not strictly sorted")
        if self.features.shape[0] != self.num_nodes:
            raise AssertionError("feature row count mismatch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, features={self.num_features})"
        )
