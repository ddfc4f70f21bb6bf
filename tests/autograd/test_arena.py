"""Gradient buffer arena: reuse, aliasing safety, leak plateau, numerics."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd import arena
from repro.autograd.arena import GradArena, active_arena


def _train_graph(w1, w2, x_data):
    """A small two-parameter graph exercising matmul/relu/mul/sum backwards."""
    x = Tensor(x_data)
    h = ops.relu(ops.matmul(x, w1))
    out = ops.matmul(h, w2)
    return ops.sum(ops.mul(out, out))


def _fresh_problem(seed=0):
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    x = rng.normal(size=(8, 6))
    return w1, w2, x


class TestGradArena:
    def test_acquire_miss_then_release_then_hit(self):
        pool = GradArena()
        a = pool.acquire((3, 4), np.float64)
        assert a.shape == (3, 4) and a.dtype == np.float64
        assert pool.misses == 1 and pool.hits == 0
        pool.release(a)
        b = pool.acquire((3, 4), np.float64)
        assert b is a, "released buffer must be reused, not reallocated"
        assert pool.hits == 1

    def test_acquire_zero_clears_recycled_buffer(self):
        pool = GradArena()
        a = pool.acquire((2, 2), np.float64)
        a.fill(7.0)
        pool.release(a)
        b = pool.acquire((2, 2), np.float64, zero=True)
        assert b is a
        assert np.all(b == 0.0)

    def test_release_ignores_views_and_none(self):
        pool = GradArena()
        base = np.zeros((4, 4))
        pool.release(base[:2])  # view: not poolable
        pool.release(None)
        assert pool.pooled_buffers() == 0

    def test_pool_bounded_per_key(self):
        pool = GradArena(max_per_key=2)
        buffers = [np.zeros((3,)) for _ in range(5)]
        for b in buffers:
            pool.release(b)
        assert pool.pooled_buffers() == 2
        assert pool.dropped == 3

    def test_keys_separate_shapes_and_dtypes(self):
        pool = GradArena()
        pool.release(np.zeros((2, 2), dtype=np.float64))
        got = pool.acquire((2, 2), np.float32)
        assert got.dtype == np.float32
        assert pool.misses == 1, "float64 buffer must not satisfy a float32 acquire"

    def test_invalid_max_per_key(self):
        with pytest.raises(ValueError):
            GradArena(max_per_key=0)


class TestBackwardIntegration:
    def test_buffers_stable_across_steps(self):
        """After a warm-up step the pool satisfies every later step: no new
        allocations (stable buffer population, misses plateau)."""
        w1, w2, x = _fresh_problem()
        with active_arena() as pool:
            _train_graph(w1, w2, x).backward()
            w1.zero_grad(), w2.zero_grad()
            warm_misses = pool.misses
            warm_ids = {id(b) for stack in pool._pool.values() for b in stack}
            assert warm_ids, "warm-up step must leave buffers in the pool"
            for _ in range(5):
                _train_graph(w1, w2, x).backward()
                w1.zero_grad(), w2.zero_grad()
            assert pool.misses == warm_misses, "steady state must not allocate"
            assert pool.hits > 0
            steady_ids = {id(b) for stack in pool._pool.values() for b in stack}
            assert steady_ids <= warm_ids, "steady state must recycle warm-up buffers"

    def test_leaf_grads_do_not_alias_pool(self):
        """Live leaf gradients must never share memory with pooled buffers
        (the optimizer reads leaf grads after backward returns)."""
        w1, w2, x = _fresh_problem()
        with active_arena() as pool:
            _train_graph(w1, w2, x).backward()
            assert w1.grad is not None and w2.grad is not None
            assert not np.shares_memory(w1.grad, w2.grad)
            for stack in pool._pool.values():
                for buffer in stack:
                    assert not np.shares_memory(buffer, w1.grad)
                    assert not np.shares_memory(buffer, w2.grad)

    def test_leaf_grads_survive_two_backwards(self):
        """Accumulating a second backward into live leaf grads must add, not
        clobber through a recycled buffer."""
        w1, w2, x = _fresh_problem()
        with active_arena():
            _train_graph(w1, w2, x).backward()
            once = w1.grad.copy()
            _train_graph(w1, w2, x).backward()
            np.testing.assert_array_equal(w1.grad, 2.0 * once)

    def test_pool_plateaus_over_100_steps(self):
        """The pool's footprint must flatline, not grow with step count."""
        w1, w2, x = _fresh_problem()
        sizes = []
        with active_arena() as pool:
            for step in range(100):
                _train_graph(w1, w2, x).backward()
                w1.zero_grad(), w2.zero_grad()
                sizes.append(pool.pooled_buffers())
        assert sizes[-1] == sizes[10], "pool grew after warm-up: leak"
        assert max(sizes[10:]) == min(sizes[10:])
        assert pool.pooled_bytes() < 10 * (8 * 6 * 8 * 8)  # few small buffers only

    def test_numerics_bit_identical_with_arena(self):
        w1a, w2a, x = _fresh_problem(3)
        loss_plain = _train_graph(w1a, w2a, x)
        loss_plain.backward()

        w1b, w2b, _ = _fresh_problem(3)
        with active_arena():
            loss_pooled = _train_graph(w1b, w2b, x)
            loss_pooled.backward()

        np.testing.assert_array_equal(loss_plain.data, loss_pooled.data)
        np.testing.assert_array_equal(w1a.grad, w1b.grad)
        np.testing.assert_array_equal(w2a.grad, w2b.grad)

    def test_intermediate_grads_returned_to_pool(self):
        """Backward must release non-leaf gradients (they are cleared and
        their buffers pooled) while the root keeps its grad."""
        w1, w2, x = _fresh_problem()
        with active_arena() as pool:
            loss = _train_graph(w1, w2, x)
            loss.backward()
            assert loss.grad is not None, "root keeps its gradient"
            assert pool.pooled_buffers() > 0


class TestActivation:
    def test_active_arena_restores_previous(self):
        assert arena.current() is None
        outer = GradArena()
        with active_arena(arena=outer):
            assert arena.current() is outer
            with active_arena() as inner:
                assert arena.current() is inner and inner is not outer
            assert arena.current() is outer
        assert arena.current() is None

    def test_enable_disable(self):
        try:
            pool = arena.enable()
            assert arena.is_enabled() and arena.current() is pool
        finally:
            arena.disable()
        assert not arena.is_enabled()

    def test_engine_run_emits_arena_stats(self, tiny_cora):
        """A run's pool counters go out as one ``engine.arena`` event."""
        from repro.baselines import get_method
        from repro.obs import Tracer

        with Tracer() as tracer:
            get_method("grace", epochs=2, embedding_dim=8, hidden_dim=16,
                       seed=0).fit(tiny_cora)
        (event,) = [e for e in tracer.events if e["name"] == "engine.arena"]
        assert event["scope"] == "method.grace"
        assert set(GradArena().stats()) <= set(event)
        assert event["hits"] > 0
