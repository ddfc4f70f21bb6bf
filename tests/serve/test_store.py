"""EmbeddingStore: bit-identity, LRU behavior, snapshot crash recovery."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.obs import Tracer
from repro.resilience import FaultPlan
from repro.serve import (
    EmbeddingStore,
    MalformedQueryError,
    ServeMetrics,
    ServerHealth,
    SnapshotError,
    UnknownNodeError,
)


@pytest.fixture
def store(registry, tiny_cora):
    return EmbeddingStore(registry, tiny_cora, cache_size=8)


class TestServedEmbeddings:
    def test_snapshot_bit_identical_to_offline(self, store, offline_embeddings):
        assert np.array_equal(store.snapshot(), offline_embeddings)

    def test_node_reads_bit_identical(self, store, offline_embeddings):
        for node in [0, 3, offline_embeddings.shape[0] - 1]:
            assert np.array_equal(store.embedding(node), offline_embeddings[node])

    def test_node_out_of_range(self, store, tiny_cora):
        with pytest.raises(UnknownNodeError):
            store.embedding(tiny_cora.num_nodes)
        with pytest.raises(UnknownNodeError):
            store.embedding(-1)

    def test_non_integer_node_rejected(self, store):
        with pytest.raises(MalformedQueryError):
            store.embedding("7")
        with pytest.raises(MalformedQueryError):
            store.embedding(True)


class TestLru:
    def test_hit_miss_accounting(self, registry, tiny_cora):
        metrics = ServeMetrics()
        store = EmbeddingStore(registry, tiny_cora, cache_size=8, metrics=metrics)
        store.embedding(1)
        store.embedding(1)
        store.embedding(2)
        assert metrics.cache_hits == 1
        assert metrics.cache_misses == 2
        assert metrics.cache_hit_rate == pytest.approx(1 / 3)

    def test_capacity_evicts_oldest(self, registry, tiny_cora):
        store = EmbeddingStore(registry, tiny_cora, cache_size=2)
        store.embedding(0)
        store.embedding(1)
        store.embedding(2)  # evicts node 0
        assert store.cached_nodes == 2
        hits_before = store.metrics.cache_hits
        store.embedding(0)  # must be a miss again
        assert store.metrics.cache_hits == hits_before

    def test_cache_keyed_by_version(self, registry, tiny_cora):
        from repro.core.serialization import EncoderArtifact
        from repro.nn import GCN

        other = registry.register_artifact(EncoderArtifact.from_encoder(
            GCN(tiny_cora.num_features, 8, 5, seed=9)))
        store = EmbeddingStore(registry, tiny_cora, cache_size=8)
        a = store.embedding(0, registry.versions()[0])
        b = store.embedding(0, other.version_id)
        assert a.shape != b.shape or not np.array_equal(a, b)

    def test_rejects_zero_capacity(self, registry, tiny_cora):
        with pytest.raises(ValueError):
            EmbeddingStore(registry, tiny_cora, cache_size=0)


class TestSnapshotPersistence:
    def test_snapshot_persisted_and_reloaded(self, registry, tiny_cora,
                                             offline_embeddings, tmp_path):
        first = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        first.snapshot()
        files = list(tmp_path.glob("emb-*.npz"))
        assert len(files) == 1
        # A fresh store must load the persisted matrix, not recompute:
        # corrupting nothing, the loaded array equals offline bit-for-bit.
        second = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        assert np.array_equal(second.snapshot(), offline_embeddings)

    def test_killed_mid_snapshot_recovers(self, registry, tiny_cora,
                                          offline_embeddings, tmp_path):
        """A torn snapshot write must be skipped and recomputed."""
        store = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        store.snapshot()
        (snapshot_file,) = tmp_path.glob("emb-*.npz")
        FaultPlan(seed=1).truncate_file(snapshot_file, keep_fraction=0.4)
        reloaded = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        assert not reloaded.verify_snapshot_file(snapshot_file)
        assert np.array_equal(reloaded.snapshot(), offline_embeddings)
        # Recomputation rewrote a digest-valid file in place.
        assert reloaded.verify_snapshot_file(snapshot_file)

    def test_bit_rot_rejected(self, registry, tiny_cora,
                              offline_embeddings, tmp_path):
        store = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        store.snapshot()
        (snapshot_file,) = tmp_path.glob("emb-*.npz")
        FaultPlan(seed=2).flip_bytes(snapshot_file, count=8)
        reloaded = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        assert np.array_equal(reloaded.snapshot(), offline_embeddings)

    def test_evicted_snapshot_recovers_from_disk(self, registry, tiny_cora,
                                                 offline_embeddings, tmp_path):
        store = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        version_id = registry.get().version_id
        store.snapshot()
        store.evict_snapshot(version_id)
        assert np.array_equal(store.embedding(4), offline_embeddings[4])

    def test_persist_all_writes_missing_and_skips_valid(self, registry,
                                                        tiny_cora, tmp_path):
        store = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        store.snapshot()
        (snapshot_file,) = tmp_path.glob("emb-*.npz")
        assert store.persist_all() == 0  # already digest-valid on disk
        snapshot_file.unlink()
        assert store.persist_all() == 1  # resident matrix rewritten
        assert store.verify_snapshot_file(snapshot_file)
        assert store.persist_all() == 0

    def test_persist_all_without_dir_is_noop(self, registry, tiny_cora):
        store = EmbeddingStore(registry, tiny_cora)
        store.snapshot()
        assert store.persist_all() == 0


class TestConcurrentCorruptReads:
    def test_corrupt_mid_read_yields_structured_recovery(
            self, registry, tiny_cora, offline_embeddings, tmp_path):
        """Many readers racing a snapshot that rots under them: every read
        must come back correct (recomputed), never a raw zip/zlib error."""
        metrics = ServeMetrics()
        health = ServerHealth(metrics)
        health.mark_ready()
        seed_store = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path)
        seed_store.snapshot()
        (snapshot_file,) = tmp_path.glob("emb-*.npz")
        FaultPlan(seed=11).flip_bytes(snapshot_file, count=16)

        # Fresh store (nothing resident) pointed at the rotted file.
        store = EmbeddingStore(registry, tiny_cora, snapshot_dir=tmp_path,
                               metrics=metrics, health=health)
        nodes = list(range(12)) * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(store.embedding, nodes))
        for node, row in zip(nodes, rows):
            assert np.array_equal(row, offline_embeddings[node])
        # The rot was observed as a structured rejection, exactly once
        # (one materializer per version), and degraded health.
        assert metrics.snapshot_failures == 1
        assert health.state == "degraded"

    def test_recompute_failure_is_a_serve_error(self, registry, tiny_cora):
        """A model that cannot embed must fail as SnapshotError (mapped to
        a 500 envelope by the server), not leak its raw exception."""
        store = EmbeddingStore(registry, tiny_cora)
        version = registry.get()

        def _boom(graph):
            raise RuntimeError("synthetic encoder failure")

        version.artifact.embed = _boom
        with pytest.raises(SnapshotError, match="cannot materialize"):
            store.snapshot()
        assert store.metrics.snapshot_failures == 1


class TestInvalidation:
    """The repro.stream-facing surface: ``invalidate`` marks rows stale and
    reports exact counts; reads heal lazily through the same
    single-materializer path every other read uses."""

    def test_counts_and_stale_listing(self, store, registry):
        version_id = registry.get().version_id
        store.snapshot()
        counts = store.invalidate(version_id, [3, 1, 3, 7])
        assert counts == {"invalidated": 3, "preserved":
                          store.graph.num_nodes - 3, "stale": 3}
        assert store.stale_rows(version_id) == [1, 3, 7]

    def test_out_of_range_nodes_clipped(self, store, registry, tiny_cora):
        version_id = registry.get().version_id
        counts = store.invalidate(version_id,
                                  [-5, 0, tiny_cora.num_nodes + 9])
        assert counts["invalidated"] == 1
        assert store.stale_rows(version_id) == [0]

    def test_invalidate_is_idempotent(self, store, registry):
        version_id = registry.get().version_id
        store.invalidate(version_id, [2, 4])
        counts = store.invalidate(version_id, [4, 6])
        assert counts["stale"] == 3  # union, not double-count
        assert store.stale_rows(version_id) == [2, 4, 6]

    def test_invalidated_lru_entries_are_dropped(self, store, registry):
        version_id = registry.get().version_id
        store.embedding(5)
        hits_before = store.metrics.cache_hits
        store.invalidate(version_id, [5])
        store.embedding(5)  # must recompute, not serve the dead cache row
        assert store.metrics.cache_hits == hits_before

    def test_metrics_expose_invalidated_vs_preserved(self, registry,
                                                     tiny_cora):
        metrics = ServeMetrics()
        store = EmbeddingStore(registry, tiny_cora, metrics=metrics)
        store.snapshot()
        store.invalidate(registry.get().version_id, [0, 1, 2])
        stats = metrics.snapshot()["streaming"]
        assert stats["invalidations"] == 1
        assert stats["invalidated_rows"] == 3
        assert stats["preserved_rows"] == tiny_cora.num_nodes - 3

    def test_stale_reads_heal_without_row_computer(self, store, registry,
                                                   offline_embeddings):
        """Without a registered row computer the fallback is a full
        rematerialization — still bit-identical to offline."""
        version_id = registry.get().version_id
        store.snapshot()
        store.invalidate(version_id, [4])
        assert np.array_equal(store.embedding(4), offline_embeddings[4])
        assert store.stale_rows(version_id) == []

    def test_concurrent_reads_race_single_materializer(
            self, registry, tiny_cora, offline_embeddings):
        """Readers racing invalidation all funnel through the per-version
        compute lock: every row comes back offline-identical and the stale
        set drains to empty — no torn or half-healed matrix."""
        metrics = ServeMetrics()
        store = EmbeddingStore(registry, tiny_cora, cache_size=8,
                               metrics=metrics)
        version_id = registry.get().version_id
        store.snapshot()

        def read(node):
            return node, store.embedding(node)

        def invalidate(chunk):
            return store.invalidate(version_id, chunk)

        nodes = list(range(tiny_cora.num_nodes)) * 3
        chunks = [[n, n + 1] for n in range(0, 10, 2)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(invalidate, c) for c in chunks]
            reads = list(pool.map(read, nodes))
            for future in futures:
                assert future.result()["invalidated"] == 2
        for node, row in reads:
            assert np.array_equal(row, offline_embeddings[node])
        healed = store.snapshot()
        assert store.stale_rows(version_id) == []
        assert np.array_equal(healed, offline_embeddings)


def recording_computer(offline):
    """A row computer serving offline rows that logs every id vector."""
    calls = []

    def compute(version_id, nodes):
        calls.append(np.array(nodes))
        return offline[nodes]

    return calls, compute


class TestBatchedRepair:
    """Stale rows heal through one row-computer call per repair, while the
    refresh metric keeps counting rows."""

    STALE = [0, 5, 9, 42, 100]

    def test_full_snapshot_repairs_every_stale_row_in_one_call(
            self, registry, tiny_cora, offline_embeddings):
        metrics = ServeMetrics()
        store = EmbeddingStore(registry, tiny_cora, metrics=metrics)
        version_id = registry.get().version_id
        store.snapshot()
        store.invalidate(version_id, self.STALE)
        calls, compute = recording_computer(offline_embeddings)
        store.set_row_computer(compute)
        healed = store.snapshot()
        assert [c.tolist() for c in calls] == [self.STALE]
        assert calls[0].dtype == np.int64
        assert np.array_equal(healed, offline_embeddings)
        assert store.stale_rows(version_id) == []
        stats = metrics.snapshot()["streaming"]
        assert stats["stale_refreshes"] == len(self.STALE)

    def test_stale_single_row_read_passes_one_id(
            self, registry, tiny_cora, offline_embeddings):
        metrics = ServeMetrics()
        store = EmbeddingStore(registry, tiny_cora, metrics=metrics)
        version_id = registry.get().version_id
        store.snapshot()
        store.invalidate(version_id, [3, 7])
        calls, compute = recording_computer(offline_embeddings)
        store.set_row_computer(compute)
        assert np.array_equal(store.embedding(7), offline_embeddings[7])
        assert [c.tolist() for c in calls] == [[7]]
        assert store.stale_rows(version_id) == [3]
        assert metrics.snapshot()["streaming"]["stale_refreshes"] == 1

    def test_traced_repair_emits_one_span(self, store, registry,
                                          offline_embeddings):
        version_id = registry.get().version_id
        store.snapshot()
        store.invalidate(version_id, self.STALE)
        store.set_row_computer(recording_computer(offline_embeddings)[1])
        with Tracer() as tracer:
            store.snapshot()
        repairs = [e for e in tracer.events
                   if e.get("name") == "serve.stale_repair"]
        assert len(repairs) == 1
        assert repairs[0]["rows"] == len(self.STALE)


class TestStaleRaces:
    """Deterministic reproductions of writers racing a repair: a row that
    is invalidated while the row computer runs was computed against
    superseded state, so it must stay stale."""

    def invalidating_computer(self, store, offline, nodes, offset=0.0):
        """Row computer whose first call re-invalidates ``nodes`` (and
        returns rows shifted by ``offset``, i.e. superseded values)."""
        calls = []

        def compute(version_id, ids):
            first = not calls
            calls.append(ids)
            if first:
                store.invalidate(version_id, nodes)
                return offline[ids] + offset
            return offline[ids]

        return compute

    def test_snapshot_keeps_rows_invalidated_mid_repair(
            self, store, registry, offline_embeddings):
        version_id = registry.get().version_id
        store.snapshot()
        store.invalidate(version_id, [1, 2, 3])
        store.set_row_computer(self.invalidating_computer(
            store, offline_embeddings, [2, 50]))
        store.snapshot()
        assert store.stale_rows(version_id) == [2, 50]
        assert np.array_equal(store.snapshot(), offline_embeddings)
        assert store.stale_rows(version_id) == []

    def test_single_row_read_keeps_row_invalidated_mid_refresh(
            self, store, registry, offline_embeddings):
        version_id = registry.get().version_id
        store.snapshot()
        store.invalidate(version_id, [4])
        store.set_row_computer(self.invalidating_computer(
            store, offline_embeddings, [4]))
        store.embedding(4)
        assert store.stale_rows(version_id) == [4]

    def test_superseded_row_never_reaches_the_lru(
            self, store, registry, offline_embeddings):
        """The read that raced the invalidation may return its row, but
        must not cache it: after the repair the LRU would serve it."""
        version_id = registry.get().version_id
        store.snapshot()
        store.invalidate(version_id, [4])
        store.set_row_computer(self.invalidating_computer(
            store, offline_embeddings, [4], offset=1.0))
        store.embedding(4)
        store.snapshot()
        assert store.stale_rows(version_id) == []
        assert np.array_equal(store.embedding(4), offline_embeddings[4])

    def test_stress_writers_racing_batched_repairs(
            self, registry, tiny_cora, offline_embeddings):
        """Writers "mutate" rows (bump a per-row version, then invalidate)
        while readers and full-snapshot repairs race them.  The row
        computer serves ``offline + version``, so once the writers stop,
        one snapshot must leave every row — resident and LRU — at its
        latest version: a lost stale mark or a superseded LRU entry would
        leave an older one."""
        store = EmbeddingStore(registry, tiny_cora, cache_size=64)
        version_id = registry.get().version_id
        store.snapshot()
        n = tiny_cora.num_nodes
        versions = np.zeros(n)
        guard = threading.Lock()

        def compute(_, nodes):
            with guard:
                bumped = versions[nodes].copy()
            time.sleep(0.001)  # a real forward takes time writers can use
            return offline_embeddings[nodes] + bumped[..., None]

        store.set_row_computer(compute)

        def write(k):
            nodes = [(7 * k) % n, (7 * k + 3) % n]
            with guard:
                versions[nodes] = k + 1
            store.invalidate(version_id, nodes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = []
                for k in range(60):
                    futures.append(pool.submit(write, k))
                    futures.append(pool.submit(store.embedding, (5 * k) % n))
                    if k % 5 == 0:
                        futures.append(pool.submit(store.snapshot))
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        expected = offline_embeddings + versions[:, None]
        assert np.array_equal(store.snapshot(), expected)
        assert store.stale_rows(version_id) == []
        for node in range(n):
            assert np.array_equal(store.embedding(node), expected[node])
