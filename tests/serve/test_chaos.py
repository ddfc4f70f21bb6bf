"""Chaos tier for the serving stack (seeded fault injection, live server).

Four incidents, four invariants:

* sustained overload → requests are *shed* with structured ``overloaded``
  envelopes and the server keeps answering (no queue collapse);
* expired deadlines → dropped at dequeue/pre-encode, provably never
  encoded (perf counters, not timing assertions);
* a corrupt blue/green candidate → fails closed, active version stays
  bit-identical throughout;
* a killed worker / killed server → restart serves bit-identical
  embeddings from recovered (or recomputed) snapshots.
"""

import numpy as np
import pytest

from repro.resilience import FaultPlan
from repro.serve import (
    EmbeddingServer,
    InProcessClient,
    RetryPolicy,
)


def _embed_all(client, nodes):
    futures = [client.submit({"op": "embed", "node": n}) for n in nodes]
    return [f.result(timeout=30) for f in futures]


class TestOverloadSheds:
    def test_overload_sheds_structured_and_server_survives(
            self, registry, tiny_cora):
        """Offered load far beyond the inflight watermark: the excess is
        shed with ``overloaded`` envelopes, everything admitted completes,
        and the server is immediately healthy for the next request."""
        with EmbeddingServer(registry, tiny_cora, use_cache=False,
                             max_inflight=2, retry_after_ms=5.0) as server:
            FaultPlan(seed=0).slow_encode(server, delay_ms=15.0)
            server.warmup()
            with InProcessClient(server, pool_size=16) as client:
                responses = _embed_all(client, list(range(16)) * 3)
            accepted = [r for r in responses if r["ok"]]
            shed = [r for r in responses if not r["ok"]]
            assert accepted, "overload must not starve every request"
            assert shed, "3x-inflight offered load must shed something"
            for response in shed:
                assert response["error"]["code"] == "overloaded"
                assert response["error"]["details"]["retry_after_ms"] > 0
                assert response["status"] == 503
            metrics = server.metrics
            assert metrics.shed == len(shed)
            assert metrics.admitted == len(accepted)
            # No queue collapse: the watermark held, nothing leaked a slot.
            assert server.admission.inflight == 0
            # And the server still answers, instantly, after the storm.
            with InProcessClient(server) as client:
                assert client.request({"op": "embed", "node": 0})["ok"]
                assert client.request({"op": "health"})["ok"]

    def test_retrying_client_rides_out_the_overload(self, registry, tiny_cora):
        """With backoff honoring ``retry_after_ms``, every idempotent
        request eventually lands despite aggressive shedding."""
        with EmbeddingServer(registry, tiny_cora, use_cache=False,
                             max_inflight=2, retry_after_ms=2.0) as server:
            FaultPlan(seed=0).slow_encode(server, delay_ms=5.0)
            server.warmup()
            retry = RetryPolicy(max_retries=20, base_ms=2.0, cap_ms=40.0,
                                seed=0)
            with InProcessClient(server, pool_size=8, retry=retry) as client:
                responses = _embed_all(client, list(range(8)) * 2)
            assert all(r["ok"] for r in responses)
            assert server.metrics.shed > 0  # the retries were real


class TestDeadlinesNeverEncode:
    def test_expired_work_is_dropped_before_the_encoder(
            self, registry, tiny_cora):
        """Counter-level proof: with the encoder slowed to a crawl, every
        tight-deadline request dies at dequeue/pre-encode and the encoder
        forward-pass counter only ever tallies the unbounded request."""
        with EmbeddingServer(registry, tiny_cora, use_cache=False) as server:
            FaultPlan(seed=0).slow_encode(server, delay_ms=40.0)
            server.warmup()
            with InProcessClient(server, pool_size=8) as client:
                blocker = client.submit({"op": "embed", "node": 0})
                doomed = [client.submit({"op": "embed", "node": n,
                                         "deadline_ms": 1.0})
                          for n in range(1, 6)]
                blocked_response = blocker.result(timeout=30)
                doomed_responses = [f.result(timeout=30) for f in doomed]
            assert blocked_response["ok"]
            metrics = server.metrics
            for response in doomed_responses:
                assert not response["ok"]
                assert response["error"]["code"] == "deadline_exceeded"
                assert response["status"] == 504
                assert response["error"]["details"]["stage"] in (
                    "admission", "dequeue", "pre_encode")
            # The invariant: expired work NEVER reached a forward pass.
            assert metrics.encoded_requests == 1
            assert metrics.deadline_expired_total == len(doomed_responses)

    def test_cached_path_honors_deadlines_too(self, registry, tiny_cora):
        with EmbeddingServer(registry, tiny_cora) as server:
            server.warmup()
            with InProcessClient(server) as client:
                response = client.request({"op": "embed", "node": 0,
                                           "deadline_ms": 0.0})
            assert response["error"]["code"] == "deadline_exceeded"
            assert server.metrics.deadline_expired_total == 1


class TestRolloutFailsClosed:
    def test_corrupt_candidate_never_disturbs_active(
            self, registry, tiny_cora, grace_checkpoint,
            offline_embeddings, tmp_path):
        import shutil

        rotted = tmp_path / "candidate.npz"
        shutil.copy(grace_checkpoint, rotted)
        FaultPlan(seed=5).digest_mismatch(rotted)
        with EmbeddingServer(registry, tiny_cora) as server:
            server.warmup()
            active_id = server.registry.get().version_id
            with InProcessClient(server) as client:
                before = _embed_all(client, range(6))
                response = client.request({"op": "rollout",
                                           "candidate": str(rotted)})
                assert not response["ok"]
                assert response["error"]["code"] == "rollout_failed"
                after = _embed_all(client, range(6))
            assert server.registry.versions() == [active_id]
            for node, (a, b) in enumerate(zip(before, after)):
                assert a["version"] == b["version"] == active_id
                assert np.array_equal(np.array(a["embedding"]),
                                      np.array(b["embedding"]))
                assert np.array_equal(np.array(b["embedding"]),
                                      offline_embeddings[node])


class TestKillAndRestart:
    def test_killed_worker_does_not_interrupt_service(self, registry,
                                                      tiny_cora):
        with EmbeddingServer(registry, tiny_cora, use_cache=False) as server:
            server.warmup()
            with InProcessClient(server) as client:
                first = client.request({"op": "embed", "node": 1})
                FaultPlan(seed=0).kill_batcher_worker(server._batcher)
                # Submissions after the kill still answer (restarted worker).
                second = client.request({"op": "embed", "node": 1})
            assert first["ok"] and second["ok"]
            assert first["embedding"] == second["embedding"]
            assert server.metrics.worker_restarts >= 1

    def test_restarted_server_serves_identical_from_recovered_snapshots(
            self, registry, tiny_cora, offline_embeddings, tmp_path):
        snapshot_dir = tmp_path / "snaps"
        with EmbeddingServer(registry, tiny_cora,
                             snapshot_dir=snapshot_dir) as server:
            server.warmup()
            with InProcessClient(server) as client:
                first_run = _embed_all(client, range(8))
            # __exit__ drains: stops admitting, flushes, persists snapshots.
        assert list(snapshot_dir.glob("emb-*.npz"))

        reborn = EmbeddingServer(registry, tiny_cora,
                                 snapshot_dir=snapshot_dir)
        with reborn, InProcessClient(reborn) as client:
            second_run = _embed_all(client, range(8))
            assert reborn.metrics.snapshot_failures == 0  # loaded, not rebuilt
        for a, b in zip(first_run, second_run):
            assert np.array_equal(np.array(a["embedding"]),
                                  np.array(b["embedding"]))

    def test_restart_over_rotted_snapshot_recomputes_identically(
            self, registry, tiny_cora, offline_embeddings, tmp_path):
        snapshot_dir = tmp_path / "snaps"
        with EmbeddingServer(registry, tiny_cora,
                             snapshot_dir=snapshot_dir) as server:
            server.warmup()
        plan = FaultPlan(seed=9)
        with EmbeddingServer(registry, tiny_cora,
                             snapshot_dir=snapshot_dir) as victim:
            plan.corrupt_snapshot(victim.store)  # rot it under the server
            victim.store.evict_snapshot(registry.get().version_id)
            with InProcessClient(victim) as client:
                responses = _embed_all(client, range(8))
            assert victim.metrics.snapshot_failures == 1  # structured reject
            for node, response in enumerate(responses):
                assert response["ok"]
                assert np.array_equal(np.array(response["embedding"]),
                                      offline_embeddings[node])

    def test_drain_rejects_new_work_but_stays_observable(self, registry,
                                                         tiny_cora):
        server = EmbeddingServer(registry, tiny_cora)
        server.warmup()
        with InProcessClient(server) as client:
            assert client.request({"op": "embed", "node": 0})["ok"]
            server.drain()
            rejected = client.request({"op": "embed", "node": 0})
            assert rejected["error"]["code"] == "not_ready"
            health = client.request({"op": "health"})
            assert health["ok"] and health["health"]["state"] == "draining"
            ready = client.request({"op": "ready"})
            assert ready["ok"] and ready["ready"] is False
        server.close()
