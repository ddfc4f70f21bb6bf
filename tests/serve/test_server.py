"""EmbeddingServer: protocol, transports, resilience, latency smoke."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    EmbeddingServer,
    HttpClient,
    InProcessClient,
    build_http_server,
)


@pytest.fixture
def server(registry, tiny_cora, tmp_path):
    with EmbeddingServer(registry, tiny_cora, snapshot_dir=tmp_path / "snaps", probe_epochs=60) as srv:
        yield srv


@pytest.fixture
def client(server):
    with InProcessClient(server) as cli:
        yield cli


class TestProtocol:
    def test_embed_known_node_bit_identical(self, client, offline_embeddings):
        response = client.request({"op": "embed", "node": 5})
        assert response["ok"]
        assert np.array_equal(np.array(response["embedding"]),
                              offline_embeddings[5])

    def test_embed_pinned_version(self, client, registry):
        version_id = registry.get().version_id
        response = client.request({"op": "embed", "node": 0,
                                   "version": version_id})
        assert response["version"] == version_id

    def test_classify_known_node(self, client, tiny_cora):
        response = client.request({"op": "classify", "node": 3})
        assert response["ok"]
        assert 0 <= response["label"] < tiny_cora.num_classes
        assert len(response["proba"]) == tiny_cora.num_classes
        assert sum(response["proba"]) == pytest.approx(1.0)

    def test_neighbors(self, client, tiny_cora):
        response = client.request({"op": "neighbors", "node": 3})
        assert response["neighbors"] == tiny_cora.neighbors(3).tolist()

    def test_models_and_stats(self, client):
        models = client.request({"op": "models"})["models"]
        assert len(models) == 1 and models[0]["method"] == "grace"
        stats = client.request({"op": "stats"})["stats"]
        assert "latency" in stats and "cache" in stats

    def test_ready_derives_state_once(self, client, server, monkeypatch):
        server.health.mark_ready()
        calls = []

        def flapping():
            calls.append(None)
            return ["flapping"] if len(calls) % 2 else []

        monkeypatch.setattr(server.health, "_degraded_reasons", flapping)
        response = client.request({"op": "ready"})
        assert response["ok"] and response["ready"] is True
        assert response["state"] == "degraded"
        assert len(calls) == 1

    def test_embed_unseen_node(self, client, tiny_cora):
        response = client.request({
            "op": "embed",
            "features": tiny_cora.features[3].tolist(),
            "neighbors": [3, 9],
        })
        assert response["ok"]
        assert len(response["embedding"]) == 32


class TestUnseenNodeAcceptance:
    def test_served_classification_matches_offline_spliced(
            self, server, client, registry, tiny_cora):
        """The tentpole acceptance check: an unseen node's served inductive
        embedding and probe classification must match the offline path —
        embed the *spliced* full graph, apply the same frozen probe — to
        1e-6."""
        from repro.serve import EgoQuery, InductiveEncoder

        rng = np.random.default_rng(11)
        features = (tiny_cora.features[5] * 0.7
                    + rng.normal(0, 0.05, tiny_cora.num_features))
        neighbors = [5, 12, 20]
        response = client.request({"op": "classify",
                                   "features": features.tolist(),
                                   "neighbors": neighbors})
        assert response["ok"]

        version = registry.get()
        encoder = InductiveEncoder(version.artifact, tiny_cora)
        spliced, new_id = encoder.spliced_graph(
            EgoQuery(features=features, neighbors=neighbors))
        offline_embedding = version.artifact.embed(spliced)[new_id]
        probe = server._probe(version)
        offline_proba = probe.predict_proba(offline_embedding[None, :])[0]

        np.testing.assert_allclose(np.array(response["proba"]),
                                   offline_proba, atol=1e-6)
        assert response["label"] == int(np.argmax(offline_proba))

        served_embedding = np.array(client.request({
            "op": "embed", "features": features.tolist(),
            "neighbors": neighbors})["embedding"])
        np.testing.assert_allclose(served_embedding, offline_embedding,
                                   atol=1e-6)


class TestStructuredErrors:
    @pytest.mark.parametrize("request_payload,code,status", [
        ({"op": "embed", "node": 10 ** 9}, "unknown_node", 404),
        ({"op": "embed", "node": -1}, "unknown_node", 404),
        ({"op": "embed"}, "malformed_query", 400),
        ({"op": "embed", "node": 1, "features": [1.0]}, "malformed_query", 400),
        ({"op": "classify", "features": [1.0, 2.0]}, "malformed_query", 400),
        ({"op": "warmup"}, "unknown_op", 400),
        ({"op": "embed", "node": 1, "version": "gone-000000"},
         "stale_version", 409),
        ({"node": 1}, "malformed_query", 400),
        ("embed 5", "malformed_query", 400),
        (None, "malformed_query", 400),
        ({"op": "embed", "node": 1, "version": 7}, "malformed_query", 400),
        ({"op": "embed", "node": "abc"}, "malformed_query", 400),
        ({"op": "embed", "node": 1.5}, "malformed_query", 400),
        ({"op": "embed", "node": True}, "malformed_query", 400),
        ({"op": "neighbors", "node": "abc"}, "malformed_query", 400),
        ({"op": "neighbors", "node": 1.5}, "malformed_query", 400),
        ({"op": "neighbors", "node": True}, "malformed_query", 400),
        ({"op": "classify", "node": "abc"}, "malformed_query", 400),
        ({"op": "classify", "node": 1.5}, "malformed_query", 400),
        ({"op": "classify", "node": True}, "malformed_query", 400),
        ({"op": "neighbors", "node": 10 ** 9}, "unknown_node", 404),
        ({"op": "classify", "node": -1}, "unknown_node", 404),
    ])
    def test_error_envelope(self, client, request_payload, code, status):
        response = client.request(request_payload)
        assert response["ok"] is False
        assert response["error"]["code"] == code
        assert response["status"] == status

    def test_errors_counted_not_fatal(self, client, server):
        client.request({"op": "embed", "node": 10 ** 9})
        assert server.metrics.errors.get("unknown_node", 0) >= 1
        # The server must keep answering after an error.
        assert client.request({"op": "embed", "node": 0})["ok"]

    @pytest.mark.parametrize("neighbors", [[[0]], [1.5], [True], ["3"],
                                           [2 ** 70], 3])
    def test_splice_neighbors_must_be_a_flat_int_list(self, client, tiny_cora,
                                                      neighbors):
        response = client.request({
            "op": "embed", "features": tiny_cora.features[0].tolist(),
            "neighbors": neighbors})
        assert response["error"]["code"] == "malformed_query"

    def test_duplicate_splice_neighbors_rejected(self, client, tiny_cora):
        response = client.request({
            "op": "embed", "features": tiny_cora.features[0].tolist(),
            "neighbors": [1, 1]})
        assert response["error"]["code"] == "malformed_query"


class TestConcurrency:
    def test_concurrent_mixed_load(self, server, client, offline_embeddings,
                                   tiny_cora):
        futures = []
        for i in range(48):
            if i % 3 == 2:
                futures.append(client.submit({
                    "op": "embed",
                    "features": tiny_cora.features[i % tiny_cora.num_nodes].tolist(),
                    "neighbors": [i % tiny_cora.num_nodes]}))
            else:
                futures.append(client.submit(
                    {"op": "embed", "node": i % tiny_cora.num_nodes}))
        for i, future in enumerate(futures):
            response = future.result(timeout=30)
            assert response["ok"], response
            if i % 3 != 2:
                node = i % tiny_cora.num_nodes
                assert np.array_equal(np.array(response["embedding"]),
                                      offline_embeddings[node])

    def test_unbatched_server_equivalent(self, registry, tiny_cora,
                                         offline_embeddings):
        with EmbeddingServer(registry, tiny_cora, use_batching=False,
                             use_cache=False) as raw:
            response = raw.handle({"op": "embed", "node": 5})
            np.testing.assert_allclose(np.array(response["embedding"]),
                                       offline_embeddings[5], atol=1e-12)


    def test_batcher_waits_only_at_the_inflight_watermark(
            self, registry, tiny_cora):
        """The batch linger follows admission control: none while the
        server has inflight headroom, a bounded one once it is full."""
        with EmbeddingServer(registry, tiny_cora, use_cache=False,
                             max_inflight=2) as server:
            timeouts = []
            real_get = server._batcher._queue.get

            def spy_get(block=True, timeout=None):
                if timeout is not None:
                    timeouts.append(timeout)
                return real_get(block, timeout)

            server._batcher._queue.get = spy_get
            assert server.handle({"op": "embed", "node": 0})["ok"]
            assert timeouts == []
            in_transit = server.admission.admit("embed")  # fills the watermark
            try:
                assert server.handle({"op": "embed", "node": 1})["ok"]
            finally:
                in_transit.release()
            assert timeouts


class TestLatencySmoke:
    def test_warm_serving_under_two_seconds(self, server, client):
        """Tier-1 regression: 64 warm-cache queries through the full
        in-process stack (dispatch + store + metrics) must stay interactive."""
        client.request({"op": "embed", "node": 0})  # warm snapshot
        start = time.perf_counter()
        for i in range(64):
            assert client.request({"op": "embed", "node": i % 16})["ok"]
        assert time.perf_counter() - start < 2.0
        assert server.metrics.latency("embed").count >= 65


class TestHttpTransport:
    def test_http_round_trip_and_errors(self, server, offline_embeddings):
        httpd = build_http_server(server)
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            def post(payload):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/query",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request) as reply:
                    return json.loads(reply.read())

            response = post({"op": "embed", "node": 5})
            assert np.array_equal(np.array(response["embedding"]),
                                  offline_embeddings[5])

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post({"op": "embed", "node": 10 ** 9})
            assert excinfo.value.code == 404
            body = json.loads(excinfo.value.read())
            assert body["error"]["code"] == "unknown_node"

            health = json.loads(urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz").read())
            assert health["ok"] and len(health["models"]) == 1

            ready = json.loads(urllib.request.urlopen(
                f"http://127.0.0.1:{port}/readyz").read())
            assert ready["ready"] is True
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_http_client_envelopes_match_in_process(self, server):
        """HttpClient must hand back the exact envelope InProcessClient
        would — including ``status``, which the transport moves into the
        HTTP status line and the client must restore."""
        httpd = build_http_server(server)
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            http = HttpClient(f"http://127.0.0.1:{port}")
            for payload in ({"op": "embed", "node": 10 ** 9},
                            {"op": "explode"},
                            {"op": "rollback"},
                            {"op": "embed", "node": 3}):
                assert http.request(payload) == server.handle(payload)
        finally:
            httpd.shutdown()
            httpd.server_close()
