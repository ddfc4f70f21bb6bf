"""The Def. 1 objective: incremental evaluator vs direct evaluation.

The central invariant: ``RepresentativityObjective`` (the incremental
per-node covering costs used by Alg. 2) must produce *exactly* the same
costs as the direct O(n·k) evaluation of Eq. 14 — for any selection
sequence.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RepresentativityObjective,
    build_cluster_model,
    representativity_cost,
)
from repro.core import representativity
from repro.core.kmeans import KMeansResult


def model_from(seed, n=40, d=4, clusters=5):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(n, d))
    return build_cluster_model(r, clusters, rng=rng)


class TestClusterModel:
    def test_members_partition_nodes(self):
        model = model_from(0)
        all_members = np.sort(np.concatenate(model.members))
        np.testing.assert_array_equal(all_members, np.arange(40))

    def test_d_max_is_max_member_distance(self):
        model = model_from(1)
        for i, mem in enumerate(model.members):
            if mem.size:
                dists = np.linalg.norm(model.r[mem] - model.centers[i], axis=1)
                assert model.d_max[i] == pytest.approx(dists.max())

    def test_center_distances_shape_and_values(self):
        model = model_from(2)
        manual = np.linalg.norm(model.r[:, None, :] - model.centers[None, :, :], axis=2)
        np.testing.assert_allclose(model.center_distances, manual, atol=1e-9)


class TestIncrementalEqualsDirect:
    def test_cost_matches_after_each_addition(self):
        model = model_from(3)
        objective = RepresentativityObjective(model)
        rng = np.random.default_rng(0)
        selection = rng.choice(40, size=10, replace=False)
        for v in selection:
            objective.add(int(v))
            direct = representativity_cost(model, objective.selected)
            assert objective.cost() == pytest.approx(direct, rel=1e-9)

    def test_marginal_gain_matches_cost_difference(self):
        model = model_from(4)
        objective = RepresentativityObjective(model)
        rng = np.random.default_rng(1)
        for v in rng.choice(40, size=8, replace=False):
            predicted_gain = objective.marginal_gain(int(v))
            realized = objective.add(int(v))
            assert predicted_gain == pytest.approx(realized, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500), st.integers(1, 8))
    def test_property_incremental_equals_direct(self, seed, num_adds):
        model = model_from(seed, n=25, clusters=4)
        objective = RepresentativityObjective(model)
        rng = np.random.default_rng(seed + 1)
        for v in rng.choice(25, size=num_adds, replace=False):
            objective.add(int(v))
        direct = representativity_cost(model, objective.selected)
        assert objective.cost() == pytest.approx(direct, rel=1e-9)


class TestObjectiveProperties:
    def test_gains_are_nonnegative(self):
        model = model_from(5)
        objective = RepresentativityObjective(model)
        for v in range(15):
            assert objective.marginal_gain(v) >= -1e-9

    def test_cost_monotonically_decreases(self):
        model = model_from(6)
        objective = RepresentativityObjective(model)
        previous = objective.cost()
        for v in np.random.default_rng(2).choice(40, size=12, replace=False):
            objective.add(int(v))
            current = objective.cost()
            assert current <= previous + 1e-9
            previous = current

    def test_selecting_all_nodes_gives_zero_intra_distance(self):
        model = model_from(7, n=15, clusters=3)
        objective = RepresentativityObjective(model)
        for v in range(15):
            objective.add(v)
        # Every node is selected, so each covers itself at distance 0.
        assert objective.eff.max() == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_add_gains_nothing(self):
        model = model_from(8)
        objective = RepresentativityObjective(model)
        objective.add(3)
        assert objective.marginal_gain(3) == pytest.approx(0.0, abs=1e-9)

    def test_empty_selection_cost_is_cap_times_n(self):
        model = model_from(9)
        objective = RepresentativityObjective(model)
        assert objective.cost() == pytest.approx(40 * objective.unrepresented_cost)

    def test_same_cluster_node_reduces_own_cluster(self):
        """Adding a node must cover its cluster-mates via exact distances."""
        model = model_from(10)
        objective = RepresentativityObjective(model)
        candidate = int(model.members[0][0])
        objective.add(candidate)
        mates = model.members[0]
        assert objective.eff[mates].max() < objective.unrepresented_cost


class TestEmptyClusters:
    def test_gains_match_cost_difference_with_an_empty_cluster(self):
        """``np.add.reduceat`` returns ``a[i]`` rather than 0 for an empty
        segment, so an empty cluster must get no segment in the cross term."""
        rng = np.random.default_rng(12)
        r = rng.normal(size=(30, 3))
        assignments = np.arange(30) % 4
        assignments[assignments == 2] = 0          # cluster 2 ends up empty
        centers = np.stack([
            r[assignments == i].mean(axis=0) if (assignments == i).any()
            else np.full(3, 5.0)
            for i in range(4)
        ])
        model = build_cluster_model(
            r, 4, clustering=KMeansResult(assignments, centers, 0.0, 0))
        assert model.members[2].size == 0
        objective = RepresentativityObjective(model)
        for added in (None, 0, 13):               # cluster 3 stays uncovered
            if added is not None:
                objective.add(added)
            candidates = np.setdiff1d(np.arange(30), objective.selected)
            gains = objective.marginal_gains(candidates)
            before = representativity_cost(model, objective.selected)
            for v, gain in zip(candidates, gains):
                after = representativity_cost(model, objective.selected + [int(v)])
                assert gain == pytest.approx(before - after, rel=1e-7, abs=1e-7)


class TestChunkedGains:
    """``marginal_gains`` must be exact however the module's memory ceiling
    slices the candidate batch (up to summation-order float noise), and the
    incremental ``add`` path it feeds must keep agreeing with the direct
    Eq. 14 evaluation.  Chunking is forced by lowering the ceiling."""

    def test_tiny_budget_matches_default(self, monkeypatch):
        model = model_from(7)
        candidates = np.arange(40)
        unchunked = RepresentativityObjective(model).marginal_gains(candidates)
        monkeypatch.setattr(representativity, "_GAIN_CEILING_BYTES", 1)
        one_at_a_time = RepresentativityObjective(model).marginal_gains(candidates)
        np.testing.assert_allclose(one_at_a_time, unchunked, rtol=1e-7, atol=1e-9)

    def test_chunked_gains_match_scalar_after_adds(self, monkeypatch):
        monkeypatch.setattr(representativity, "_GAIN_CEILING_BYTES", 2048)
        model = model_from(8)
        objective = RepresentativityObjective(model)
        for v in (3, 17, 29):
            objective.add(v)
        gains = objective.marginal_gains(np.arange(40))
        for v in range(40):
            assert gains[v] == pytest.approx(objective.marginal_gain(v), rel=1e-7, abs=1e-9)

    def test_incremental_add_matches_direct_cost_under_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(representativity, "_GAIN_CEILING_BYTES", 1)
        model = model_from(9)
        objective = RepresentativityObjective(model)
        rng = np.random.default_rng(5)
        for v in rng.choice(40, size=12, replace=False):
            gains = objective.marginal_gains(np.arange(40))
            best = int(np.argmax(gains))
            realized = objective.add(best)
            assert realized == pytest.approx(gains[best], rel=1e-9, abs=1e-9)
            assert objective.cost() == pytest.approx(
                representativity_cost(model, objective.selected), rel=1e-9
            )

    def test_transient_stays_under_ceiling(self, monkeypatch):
        """The ceiling bounds the ``(chunk, n)`` cross-term slab; everything
        else a slice allocates is ``O(n + chunk · n_c)``, far below the
        ``8 n²`` bytes an unsliced all-node batch would take."""
        n = 2000
        model = model_from(13, n=n, clusters=20)
        objective = RepresentativityObjective(model)
        candidates = np.arange(n)
        unchunked = objective.marginal_gains(candidates)
        ceiling = 8 * n * 100                      # 100 candidates per slice
        monkeypatch.setattr(representativity, "_GAIN_CEILING_BYTES", ceiling)
        tracemalloc.start()
        try:
            chunked = objective.marginal_gains(candidates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ceiling + 16 * 8 * n         # slab + 16 length-n vectors
        assert peak < 8 * n * n // 10
        np.testing.assert_allclose(chunked, unchunked, rtol=1e-7, atol=1e-9)

    def test_empty_candidate_batch(self):
        objective = RepresentativityObjective(model_from(10))
        assert objective.marginal_gains(np.empty(0, dtype=np.int64)).shape == (0,)
