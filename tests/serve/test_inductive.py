"""InductiveEncoder: degree-corrected ego inference and unseen-node splices.

The exactness claims matter: a plain ``ego_subgraph`` + ``embed`` would be
wrong at the boundary (truncated degrees), so these tests compare against
the *full-graph* offline embeddings, not against a subgraph oracle.
"""

import numpy as np
import pytest

from repro.core.serialization import EncoderArtifact
from repro.nn import GCN
from repro.serve import (
    EgoQuery,
    InductiveEncoder,
    MalformedQueryError,
    UnknownNodeError,
)
from repro.stream import Delta, MutableGraph


@pytest.fixture
def encoder(registry, tiny_cora):
    return InductiveEncoder(registry.get().artifact, tiny_cora)


class TestKnownNodes:
    def test_matches_full_graph_embedding(self, encoder, offline_embeddings):
        for node in [0, 7, offline_embeddings.shape[0] - 1]:
            np.testing.assert_allclose(
                encoder.encode_node(node), offline_embeddings[node],
                rtol=0, atol=1e-12)

    def test_every_node_matches(self, encoder, offline_embeddings, tiny_cora):
        served = np.stack([encoder.encode_node(v)
                           for v in range(tiny_cora.num_nodes)])
        np.testing.assert_allclose(served, offline_embeddings,
                                   rtol=0, atol=1e-12)

    def test_isolated_node(self, isolated_node_graph):
        """A 0-degree query node must encode without dividing by zero."""
        artifact = EncoderArtifact.from_encoder(GCN(3, 4, 2, seed=0))
        enc = InductiveEncoder(artifact, isolated_node_graph)
        offline = artifact.embed(isolated_node_graph)
        np.testing.assert_allclose(enc.encode_node(3), offline[3],
                                   rtol=0, atol=1e-12)

    def test_radius_larger_than_component(self, path_graph):
        """Ego radius exceeding the component must clamp, not wrap or fail."""
        artifact = EncoderArtifact.from_encoder(
            GCN(5, 4, 2, num_layers=6, seed=0))
        enc = InductiveEncoder(artifact, path_graph)
        assert enc.radius == 6
        offline = artifact.embed(path_graph)
        np.testing.assert_allclose(enc.encode_node(2), offline[2],
                                   rtol=0, atol=1e-12)

    def test_unknown_node_rejected(self, encoder, tiny_cora):
        with pytest.raises(UnknownNodeError):
            encoder.encode_node(tiny_cora.num_nodes)
        with pytest.raises(UnknownNodeError):
            encoder.encode_node(-3)
        with pytest.raises(MalformedQueryError):
            encoder.encode_node(True)

    def test_transductive_artifact_rejected(self, tiny_cora):
        table = EncoderArtifact(
            kind="table", step_class="DeepWalk", fingerprint="x",
            table=np.zeros((tiny_cora.num_nodes, 4)),
            fitted_nodes=tiny_cora.num_nodes)
        with pytest.raises(ValueError, match="transductive"):
            InductiveEncoder(table, tiny_cora)


class TestUnionBlockEncoding:
    """``encode_nodes``: one union L-hop block for many ids, rows in the
    caller's order, each equal to the full-graph forward."""

    def test_unsorted_and_duplicated_ids(self, encoder, offline_embeddings):
        ids = np.array([17, 3, 17, 0, offline_embeddings.shape[0] - 1, 3])
        rows = encoder.encode_nodes(ids)
        assert rows.shape == (ids.size, offline_embeddings.shape[1])
        np.testing.assert_allclose(rows, offline_embeddings[ids],
                                   rtol=0, atol=1e-12)
        for node, row in zip(ids.tolist(), rows):
            assert np.array_equal(row, encoder.encode_node(node))

    def test_added_node_after_rebind(self, registry, tiny_cora):
        artifact = registry.get().artifact
        encoder = InductiveEncoder(artifact, tiny_cora)
        encoder.encode_nodes([0])  # warm the H0 cache the rebind patches
        n = tiny_cora.num_nodes
        mutable = MutableGraph(tiny_cora)
        mutable.apply([
            Delta(op="add_node", node=n,
                  features=[0.25] * tiny_cora.num_features, seq=0),
            Delta(op="add_edge", u=5, v=n, seq=1),
            Delta(op="add_edge", u=n, v=40, seq=2),
        ])
        mutated = mutable.as_graph()
        encoder.rebind_graph(mutated)
        oracle = artifact.embed(mutated)
        ids = np.array([n, 40, 5, n, 2])
        rows = encoder.encode_nodes(ids)
        np.testing.assert_allclose(rows, oracle[ids], rtol=0, atol=1e-12)
        for node, row in zip(ids.tolist(), rows):
            assert np.array_equal(row, encoder.encode_node(node))

    def test_empty_request(self, encoder, offline_embeddings):
        rows = encoder.encode_nodes(np.empty(0, dtype=np.int64))
        assert rows.shape == (0, offline_embeddings.shape[1])

    @pytest.mark.parametrize("bad", [[0, 10_000], [-1], [2, 7.5], ["3"],
                                     [True]])
    def test_invalid_ids_rejected(self, encoder, bad):
        """Out-of-range ids are unknown nodes; ids of another type are
        malformed."""
        typed = all(isinstance(v, int) and not isinstance(v, bool)
                    for v in bad)
        with pytest.raises(UnknownNodeError if typed else MalformedQueryError):
            encoder.encode_nodes(bad)


class TestWholeGraphCut:
    """Past ``WHOLE_GRAPH_SHARE`` of the graph, ``encode_nodes`` (the
    store's repair path) runs one forward over ``graph.a_n`` instead of a
    union block.  Rows on both sides of the cut are the offline floats,
    before and after a delta."""

    #: Union 2-hop blocks of 33 and 173 of the 175 ``tiny_cora`` nodes.
    SMALL = [17, 0, 7, 0]
    LARGE = list(range(0, 175, 3))

    @pytest.fixture
    def block_calls(self, monkeypatch):
        from repro.scale import blocks

        calls = []
        for name in ("sub_triplets", "block_csr"):
            def spy(*args, _original=getattr(blocks, name), _name=name,
                    **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(blocks, name, spy)
        return calls

    @pytest.mark.parametrize("ids,whole_graph",
                             [(SMALL, False), (LARGE, True)])
    def test_rows_equal_offline_before_and_after_a_delta(
            self, registry, tiny_cora, block_calls, ids, whole_graph):
        artifact = registry.get().artifact
        encoder = InductiveEncoder(artifact, tiny_cora)
        ids = np.asarray(ids)
        assert np.array_equal(encoder.encode_nodes(ids),
                              artifact.embed(tiny_cora)[ids])

        # Structural deltas only: a refreshed feature row's ``H0`` comes
        # from a one-row product, which need not match the full one's bits.
        far = next(w for w in range(1, tiny_cora.num_nodes)
                   if not tiny_cora.has_edge(0, w))
        mutable = MutableGraph(tiny_cora)
        mutable.apply([
            Delta(op="add_edge", u=0, v=far, seq=0),
            Delta(op="remove_edge", u=7, v=int(tiny_cora.neighbors(7)[0]),
                  seq=1),
        ])
        mutated = mutable.as_graph()
        encoder.rebind_graph(mutated)
        assert np.array_equal(encoder.encode_nodes(ids),
                              artifact.embed(mutated)[ids])
        # Only the small union builds a block.
        assert (not block_calls) is whole_graph


class TestRebindRace:
    """An encode reads the served ``(graph, H0)`` binding once, so a rebind
    landing between block extraction and the forward cannot tear a row."""

    @pytest.mark.parametrize("entry", ["encode_nodes", "encode_batch"])
    def test_rebind_mid_encode_serves_one_graph(
            self, registry, tiny_cora, monkeypatch, entry):
        from repro.scale import blocks

        artifact = registry.get().artifact
        encoder = InductiveEncoder(artifact, tiny_cora)
        encoder.encode_nodes([0])  # warm the H0 cache the rebind patches
        neighbor = int(tiny_cora.neighbors(0)[0])
        far = next(w for w in range(1, tiny_cora.num_nodes)
                   if w != neighbor and not tiny_cora.has_edge(neighbor, w))
        mutable = MutableGraph(tiny_cora)
        mutable.apply([
            Delta(op="add_edge", u=neighbor, v=far, seq=0),
            Delta(op="update_features", node=neighbor,
                  features=[0.5] * tiny_cora.num_features, seq=1),
        ])
        mutated = mutable.as_graph()
        old = artifact.embed(tiny_cora)[0]
        new = artifact.embed(mutated)[0]
        assert np.abs(old - new).max() > 1e-6  # the deltas reach node 0

        original = blocks.sub_triplets
        fired = []

        def racing(*args, **kwargs):
            if not fired:
                fired.append(True)
                encoder.rebind_graph(mutated, refreshed_rows=[neighbor])
            return original(*args, **kwargs)

        monkeypatch.setattr(blocks, "sub_triplets", racing)
        row = getattr(encoder, entry)([0])[0]
        assert fired
        assert encoder.graph is mutated
        assert any(np.allclose(row, ref, rtol=0, atol=1e-12)
                   for ref in (old, new))


class TestUnseenNodes:
    def _query(self, graph, neighbors, seed=0):
        rng = np.random.default_rng(seed)
        return EgoQuery(features=rng.normal(size=graph.num_features),
                        neighbors=neighbors)

    def test_matches_spliced_graph_oracle(self, encoder, registry, tiny_cora):
        query = self._query(tiny_cora, [3, 9, 14])
        served = encoder.encode_unseen(query)
        spliced, new_id = encoder.spliced_graph(query)
        oracle = registry.get().artifact.embed(spliced)[new_id]
        np.testing.assert_allclose(served, oracle, rtol=0, atol=1e-10)

    def test_neighborless_query_is_legal(self, encoder, registry):
        query = EgoQuery(
            features=np.ones(encoder.artifact.in_features), neighbors=[])
        served = encoder.encode_unseen(query)
        spliced, new_id = encoder.spliced_graph(query)
        oracle = registry.get().artifact.embed(spliced)[new_id]
        np.testing.assert_allclose(served, oracle, rtol=0, atol=1e-10)

    def test_splice_does_not_mutate_base_graph(self, encoder, tiny_cora):
        nnz_before = tiny_cora.adjacency.nnz
        encoder.encode_unseen(self._query(tiny_cora, [0, 1]))
        assert tiny_cora.adjacency.nnz == nnz_before

    def test_bad_feature_shape(self, encoder):
        with pytest.raises(MalformedQueryError):
            encoder.encode_unseen(EgoQuery(features=np.ones(3), neighbors=[0]))

    def test_non_finite_features(self, encoder):
        features = np.ones(encoder.artifact.in_features)
        features[0] = np.nan
        with pytest.raises(MalformedQueryError):
            encoder.encode_unseen(EgoQuery(features=features, neighbors=[0]))

    def test_duplicate_neighbors(self, encoder):
        with pytest.raises(MalformedQueryError):
            encoder.encode_unseen(EgoQuery(
                features=np.ones(encoder.artifact.in_features),
                neighbors=[1, 1]))

    def test_out_of_range_neighbors(self, encoder, tiny_cora):
        with pytest.raises(UnknownNodeError):
            encoder.encode_unseen(EgoQuery(
                features=np.ones(encoder.artifact.in_features),
                neighbors=[tiny_cora.num_nodes]))


class TestBatchedEncoding:
    def test_mixed_batch_matches_singles(self, encoder, tiny_cora):
        rng = np.random.default_rng(3)
        query = EgoQuery(features=rng.normal(size=tiny_cora.num_features),
                         neighbors=[2, 5])
        batch = encoder.encode_batch([0, query, 11])
        np.testing.assert_allclose(batch[0], encoder.encode_node(0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch[1], encoder.encode_unseen(query),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch[2], encoder.encode_node(11),
                                   rtol=0, atol=1e-12)

    def test_duplicate_known_ids_beside_a_splice(self, encoder, tiny_cora):
        """Known ids share one union block stacked beside the splice's own
        block; neither perturbs the other by a single bit."""
        rng = np.random.default_rng(5)
        query = EgoQuery(features=rng.normal(size=tiny_cora.num_features),
                         neighbors=[3, 9, 14])
        ids = [17, 3, 17, 0, 3]
        batch = encoder.encode_batch(ids[:2] + [query] + ids[2:])
        known = batch[:2] + batch[3:]
        assert np.array_equal(np.stack(known), encoder.encode_nodes(ids))
        assert np.array_equal(batch[2], encoder.encode_unseen(query))

    def test_empty_batch(self, encoder):
        assert encoder.encode_batch([]) == []

    def test_batch_validates_before_encoding(self, encoder, tiny_cora):
        with pytest.raises(UnknownNodeError):
            encoder.encode_batch([0, tiny_cora.num_nodes + 5])
