"""Model checkpointing."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import E2GCL, E2GCLConfig, load_model


def _write_v1(model, path):
    """Write a fitted E2GCL in the legacy v1 ``.npz`` layout.

    Nothing in the library writes v1 any more; published files have
    ``param/<name>`` encoder arrays, ``meta/config`` (the config as JSON
    bytes), ``meta/version`` = [1], ``meta/in_features`` and, when a coreset
    was selected, ``coreset/{selected,weights,assignment}``.
    """
    encoder = model.result.encoder
    payload = {f"param/{name}": array
               for name, array in encoder.state_dict().items()}
    payload["meta/config"] = np.frombuffer(
        json.dumps(dataclasses.asdict(model.config)).encode(), dtype=np.uint8)
    payload["meta/version"] = np.array([1])
    payload["meta/in_features"] = np.array([encoder.layers[0].weight.shape[0]])
    coreset = model.result.coreset
    if coreset is not None:
        payload["coreset/selected"] = coreset.selected
        payload["coreset/weights"] = coreset.weights
        payload["coreset/assignment"] = coreset.assignment
    np.savez(path, **payload)
    return path


def _load_v1(path):
    with pytest.warns(DeprecationWarning):
        return load_model(path)


@pytest.fixture(scope="module")
def fitted(request, tmp_path_factory):
    import repro.graphs as graphs

    graph = graphs.load_dataset("cora", seed=4, scale=0.25)
    model = E2GCL(E2GCLConfig(epochs=4, num_clusters=8, sample_size=20,
                              node_ratio=0.3, hidden_dim=16, embedding_dim=8))
    model.fit(graph)
    return graph, model


@pytest.fixture(scope="module")
def v1_file(fitted, tmp_path_factory):
    return _write_v1(fitted[1], tmp_path_factory.mktemp("v1") / "ckpt.npz")


class TestSaveLoad:
    """``load_model`` reading the legacy v1 layout."""

    def test_roundtrip_embeddings_identical(self, fitted, v1_file):
        graph, model = fitted
        restored = _load_v1(v1_file)
        np.testing.assert_allclose(model.embed(graph), restored.embed(graph))

    def test_coreset_preserved(self, fitted, v1_file):
        graph, model = fitted
        restored = _load_v1(v1_file)
        np.testing.assert_array_equal(restored.coreset.selected, model.coreset.selected)
        np.testing.assert_array_equal(restored.coreset.weights, model.coreset.weights)

    def test_config_preserved(self, fitted, v1_file):
        graph, model = fitted
        restored = _load_v1(v1_file)
        assert restored.config == model.config

    def test_loaded_model_requires_explicit_graph(self, v1_file):
        restored = _load_v1(v1_file)
        with pytest.raises(ValueError, match="pass one"):
            restored.embed()

    def test_embed_on_new_graph(self, v1_file):
        """A checkpointed encoder transfers to any graph with matching
        feature dimension (the transfer-learning promise of GCL)."""
        import repro.graphs as graphs

        other = graphs.load_dataset("cora", seed=99, scale=0.2)
        restored = _load_v1(v1_file)
        h = restored.embed(other)
        assert h.shape == (other.num_nodes, 8)


class TestExportEncoder:
    """Method-agnostic frozen-artifact extraction (the serving surface)."""

    def _checkpoint(self, method_name, graph, path, epochs=2):
        from repro.baselines import get_method
        from repro.engine import PeriodicCheckpoint

        method = get_method(method_name, epochs=epochs, seed=0)
        method.fit(graph, hooks=[PeriodicCheckpoint(str(path), every=1)])
        return method

    @pytest.mark.parametrize("method_name", ["grace", "dgi", "e2gcl"])
    def test_gcn_methods_bit_identical(self, method_name, tiny_cora, tmp_path):
        from repro.core.serialization import export_encoder

        path = tmp_path / f"{method_name}.npz"
        method = self._checkpoint(method_name, tiny_cora, path)
        artifact = export_encoder(path)
        assert artifact.kind == "gcn"
        assert artifact.inductive
        np.testing.assert_array_equal(artifact.embed(tiny_cora),
                                      method.embed(tiny_cora))

    def test_walk_method_exports_table(self, tiny_cora, tmp_path):
        from repro.core.serialization import export_encoder

        path = tmp_path / "node2vec.npz"
        method = self._checkpoint("node2vec", tiny_cora, path, epochs=1)
        artifact = export_encoder(path)
        assert artifact.kind == "table"
        assert not artifact.inductive
        np.testing.assert_array_equal(artifact.embed(tiny_cora),
                                      method.embed(tiny_cora))

    def test_table_artifact_rejects_other_graph(self, tiny_cora, tmp_path):
        import repro.graphs as graphs
        from repro.core.serialization import export_encoder

        path = tmp_path / "deepwalk.npz"
        self._checkpoint("deepwalk", tiny_cora, path, epochs=1)
        artifact = export_encoder(path)
        other = graphs.load_dataset("cora", seed=9, scale=0.1)
        with pytest.raises(ValueError, match="transductive"):
            artifact.embed(other)

    def test_gcn_artifact_rejects_feature_mismatch(self, tiny_cora, tmp_path):
        from repro.core.serialization import export_encoder
        from repro.graphs import Graph

        path = tmp_path / "grace.npz"
        self._checkpoint("grace", tiny_cora, path)
        artifact = export_encoder(path)
        bad = Graph.from_edge_list(3, [(0, 1)], features=np.ones((3, 2)))
        with pytest.raises(ValueError, match="features"):
            artifact.embed(bad)

    def test_reads_legacy_v1_files(self, fitted, v1_file):
        """export_encoder must keep serving pre-engine E2GCL model files."""
        from repro.core.serialization import export_encoder

        graph, model = fitted
        artifact = export_encoder(v1_file)
        assert artifact.kind == "gcn"
        assert artifact.step_class == "E2GCLTrainer"
        np.testing.assert_allclose(artifact.embed(graph), model.embed(graph))

    def test_corrupt_checkpoint_raises(self, tiny_cora, tmp_path):
        from repro.core.serialization import export_encoder
        from repro.engine import CheckpointCorruptError
        from repro.resilience import FaultPlan

        path = tmp_path / "grace.npz"
        self._checkpoint("grace", tiny_cora, path)
        FaultPlan(seed=0).flip_bytes(path, count=16)
        with pytest.raises(CheckpointCorruptError):
            export_encoder(path)


class TestArtifactRoundTrip:
    """save_artifact/load_artifact: the frozen-artifact persistence lock."""

    def test_gcn_round_trip_bit_identical(self, tiny_cora, tmp_path):
        from repro.core.serialization import (
            EncoderArtifact, load_artifact, save_artifact,
        )
        from repro.nn import GCN

        artifact = EncoderArtifact.from_encoder(
            GCN(tiny_cora.num_features, 16, 8, seed=3))
        path = save_artifact(artifact, tmp_path / "artifact.npz")
        restored = load_artifact(path)
        assert restored.kind == "gcn"
        assert restored.fingerprint == artifact.fingerprint
        np.testing.assert_array_equal(restored.embed(tiny_cora),
                                      artifact.embed(tiny_cora))

    def test_table_round_trip(self, tmp_path):
        from repro.core.serialization import (
            EncoderArtifact, load_artifact, save_artifact,
        )
        from repro.engine import payload_digest

        table = np.random.default_rng(0).normal(size=(9, 5))
        artifact = EncoderArtifact(
            kind="table", step_class="DeepWalk",
            fingerprint=payload_digest({"embeddings": table}),
            table=table, fitted_nodes=9)
        restored = load_artifact(save_artifact(artifact, tmp_path / "t.npz"))
        assert restored.kind == "table"
        assert restored.fitted_nodes == 9
        np.testing.assert_array_equal(restored.table, table)

    def test_corrupt_artifact_rejected(self, tmp_path):
        from repro.core.serialization import (
            EncoderArtifact, load_artifact, save_artifact,
        )
        from repro.engine import CheckpointCorruptError
        from repro.nn import GCN
        from repro.resilience import FaultPlan

        path = save_artifact(EncoderArtifact.from_encoder(GCN(4, 8, 2, seed=0)),
                             tmp_path / "artifact.npz")
        FaultPlan(seed=5).flip_bytes(path, count=8)
        with pytest.raises(CheckpointCorruptError):
            load_artifact(path)

    def test_truncated_artifact_rejected(self, tmp_path):
        from repro.core.serialization import (
            EncoderArtifact, load_artifact, save_artifact,
        )
        from repro.engine import CheckpointCorruptError
        from repro.nn import GCN
        from repro.resilience import FaultPlan

        path = save_artifact(EncoderArtifact.from_encoder(GCN(4, 8, 2, seed=0)),
                             tmp_path / "artifact.npz")
        FaultPlan(seed=5).truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CheckpointCorruptError):
            load_artifact(path)


class TestDeprecatedV1Shim:
    def test_load_model_warns(self, v1_file):
        with pytest.warns(DeprecationWarning, match="export_encoder"):
            load_model(v1_file)
