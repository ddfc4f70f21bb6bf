"""Blue/green rollout: shadow gating, atomic promote, fail-closed rollback."""

import copy
import shutil

import numpy as np
import pytest

from repro.baselines import get_method
from repro.engine import PeriodicCheckpoint
from repro.resilience import FaultPlan
from repro.serve import EmbeddingServer, InProcessClient, RolloutError
from repro.serve.rollout import PROMOTED, ROLLED_BACK, SHADOWING


@pytest.fixture
def server(registry, tiny_cora):
    with EmbeddingServer(registry, tiny_cora) as srv:
        yield srv


@pytest.fixture
def client(server):
    with InProcessClient(server) as cli:
        yield cli


@pytest.fixture(scope="module")
def alt_checkpoint(tiny_cora, tmp_path_factory):
    """A second GRACE run (different seed) — genuinely different weights."""
    path = tmp_path_factory.mktemp("rollout-ckpt") / "grace-alt.npz"
    method = get_method("grace", epochs=2, seed=1)
    method.fit(tiny_cora, hooks=[PeriodicCheckpoint(str(path), every=1)])
    return path


def _register_twin(server, version_id="candidate-twin"):
    """Register a bit-identical copy of the active model as a candidate."""
    artifact = server.registry.get().artifact
    server.registry.register_artifact(artifact, version_id=version_id,
                                      activate=False)
    return version_id


class TestPromotion:
    def test_identical_candidate_promotes_atomically(self, server, client):
        active_id = server.registry.get().version_id
        twin = _register_twin(server)
        rollout = server.start_rollout(twin, shadow_fraction=1.0, min_shadow=4)
        assert rollout.state == SHADOWING
        # Candidate is registered but NOT default: unpinned queries still
        # answer from the active version while shadowing.
        assert client.request({"op": "embed", "node": 0})["version"] == active_id
        for node in range(1, 4):
            client.request({"op": "embed", "node": node})
        assert rollout.state == PROMOTED
        assert server.registry.get().version_id == twin
        assert client.request({"op": "embed", "node": 5})["version"] == twin

    def test_rollout_ops_report_lifecycle(self, server, client):
        assert client.request({"op": "rollout_status"})["rollout"] is None
        twin = _register_twin(server)
        started = client.request({"op": "rollout", "candidate": twin,
                                  "shadow_fraction": 1.0, "min_shadow": 2})
        assert started["ok"] and started["rollout"]["state"] == SHADOWING
        client.request({"op": "embed", "node": 0})
        client.request({"op": "embed", "node": 1})
        status = client.request({"op": "rollout_status"})["rollout"]
        assert status["state"] == PROMOTED
        assert status["shadow_count"] == 2
        assert status["min_cosine"] == pytest.approx(1.0)

    def test_rollback_after_promote_is_rejected(self, server, client):
        twin = _register_twin(server)
        server.start_rollout(twin, shadow_fraction=1.0, min_shadow=1)
        client.request({"op": "embed", "node": 0})
        response = client.request({"op": "rollback"})
        assert not response["ok"]
        assert response["error"]["code"] == "rollout_failed"


class TestRollback:
    def test_divergent_candidate_rolls_back_leaving_active_bit_identical(
            self, server, client, alt_checkpoint, offline_embeddings):
        active_id = server.registry.get().version_id
        rollout = server.start_rollout(str(alt_checkpoint),
                                       shadow_fraction=1.0, min_shadow=50)
        reads = [client.request({"op": "embed", "node": n})
                 for n in range(8)]
        assert rollout.state == ROLLED_BACK
        assert "divergence" in rollout.reason
        # Candidate evicted; the registry is back to the active model only.
        assert server.registry.versions() == [active_id]
        # Every read during the failed rollout, and every read after it,
        # came bit-identical from the untouched active version.
        for node, response in enumerate(reads):
            assert response["version"] == active_id
            assert np.array_equal(np.array(response["embedding"]),
                                  offline_embeddings[node])
        after = client.request({"op": "embed", "node": 3})
        assert np.array_equal(np.array(after["embedding"]),
                              offline_embeddings[3])

    def test_manual_rollback_op(self, server, client):
        twin = _register_twin(server)
        server.start_rollout(twin, shadow_fraction=1.0, min_shadow=1000)
        response = client.request({"op": "rollback"})
        assert response["ok"]
        assert response["rollout"]["state"] == ROLLED_BACK
        assert twin not in server.registry.versions()
        # Idempotent: a second rollback reports the same terminal state.
        again = client.request({"op": "rollback"})
        assert again["ok"] and again["rollout"]["state"] == ROLLED_BACK

    @pytest.mark.parametrize("knob", [
        {"shadow_fraction": "abc"}, {"seed": "x"}, {"seed": -1},
        {"cosine_threshold": "hi"}, {"min_shadow": "3"},
    ], ids=["fraction-str", "seed-str", "seed-negative", "threshold-str",
            "min-shadow-str"])
    def test_malformed_knob_is_a_malformed_query(self, server, client,
                                                 alt_checkpoint, knob):
        active_id = server.registry.get().version_id
        response = client.request({"op": "rollout",
                                   "candidate": str(alt_checkpoint), **knob})
        assert not response["ok"]
        assert response["error"]["code"] == "malformed_query"
        assert server.registry.versions() == [active_id]
        assert client.request({"op": "rollout_status"})["rollout"] is None

    def test_rollback_without_rollout_is_structured(self, client):
        response = client.request({"op": "rollback"})
        assert not response["ok"]
        assert response["error"]["code"] == "rollout_failed"

    def test_snapshot_health_gate_fails_closed(self, server):
        broken = copy.copy(server.registry.get().artifact)

        def _boom(graph):
            raise RuntimeError("candidate cannot embed")

        broken.embed = _boom
        server.registry.register_artifact(broken, version_id="cand-broken",
                                          activate=False)
        with pytest.raises(RolloutError, match="health gate"):
            server.start_rollout("cand-broken")
        assert "cand-broken" not in server.registry.versions()
        assert server.metrics.snapshot_failures >= 1
        assert server.rollout is None or server.rollout.state != SHADOWING


class TestGuards:
    def test_candidate_equal_to_active_rejected(self, server):
        active_id = server.registry.get().version_id
        with pytest.raises(RolloutError, match="already the active"):
            server.start_rollout(active_id)

    def test_corrupt_candidate_checkpoint_rejected(
            self, server, grace_checkpoint, tmp_path):
        rotted = tmp_path / "rotted.npz"
        shutil.copy(grace_checkpoint, rotted)
        FaultPlan(seed=3).digest_mismatch(rotted)
        before = server.registry.versions()
        with pytest.raises(RolloutError, match="cannot be loaded"):
            server.start_rollout(str(rotted))
        assert server.registry.versions() == before

    def test_concurrent_rollout_rejected(self, server):
        twin = _register_twin(server)
        server.start_rollout(twin, min_shadow=1000)
        other = _register_twin(server, version_id="candidate-twin-2")
        with pytest.raises(RolloutError, match="already"):
            server.start_rollout(other)

    def test_parameter_validation(self, server):
        twin = _register_twin(server)
        for knobs in ({"shadow_fraction": 0.0}, {"shadow_fraction": 1.5},
                      {"min_shadow": 0}, {"max_error_rate": 1.0}):
            with pytest.raises(RolloutError):
                server.start_rollout(twin, **knobs)
