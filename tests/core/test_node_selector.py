"""Alg. 2 — greedy coreset selection."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    E2GCLConfig,
    RepresentativityObjective,
    build_cluster_model,
    recommended_sample_size,
    representativity_cost,
    select_coreset,
)
from repro.core import representativity
from repro.core.kmeans import KMeansResult
from repro.core.node_selector import _lazy_round, _nearest_selected
from repro.graphs import load_dataset, propagated_features
from repro.obs import Tracer


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", seed=11, scale=0.3)


class TestSelection:
    def test_budget_respected(self, graph):
        result = select_coreset(graph, budget=25, num_clusters=10, sample_size=40,
                                rng=np.random.default_rng(0))
        assert result.budget == 25
        assert len(set(result.selected.tolist())) == 25

    def test_selected_indices_valid(self, graph):
        result = select_coreset(graph, budget=15, num_clusters=8, sample_size=30,
                                rng=np.random.default_rng(1))
        assert result.selected.min() >= 0
        assert result.selected.max() < graph.num_nodes

    def test_weights_sum_to_num_nodes(self, graph):
        result = select_coreset(graph, budget=20, num_clusters=10, sample_size=40,
                                rng=np.random.default_rng(2))
        assert result.weights.sum() == graph.num_nodes
        assert (result.weights >= 0).all()

    def test_assignment_consistent_with_weights(self, graph):
        result = select_coreset(graph, budget=20, num_clusters=10, sample_size=40,
                                rng=np.random.default_rng(3))
        counts = np.bincount(result.assignment, minlength=result.budget)
        np.testing.assert_array_equal(counts, result.weights.astype(int))

    def test_selected_node_represents_itself(self, graph):
        result = select_coreset(graph, budget=20, num_clusters=10, sample_size=40,
                                rng=np.random.default_rng(4))
        for pos, node in enumerate(result.selected):
            assert result.assignment[node] == pos

    def test_budget_exceeding_nodes_clamps(self, graph):
        result = select_coreset(graph, budget=10 ** 6, num_clusters=10, sample_size=40,
                                rng=np.random.default_rng(5))
        assert result.budget == graph.num_nodes

    def test_invalid_budget_rejected(self, graph):
        with pytest.raises(ValueError):
            select_coreset(graph, budget=0)

    def test_selection_time_recorded(self, graph):
        result = select_coreset(graph, budget=10, num_clusters=8, sample_size=20,
                                rng=np.random.default_rng(6))
        assert result.selection_seconds > 0

    def test_deterministic_given_rng(self, graph):
        r1 = select_coreset(graph, budget=15, num_clusters=10, sample_size=30,
                            rng=np.random.default_rng(7))
        r2 = select_coreset(graph, budget=15, num_clusters=10, sample_size=30,
                            rng=np.random.default_rng(7))
        np.testing.assert_array_equal(r1.selected, r2.selected)
        np.testing.assert_array_equal(r1.weights, r2.weights)


class TestQuality:
    def test_beats_random_selection_on_objective(self, graph):
        """Greedy RS must be better (lower) than random RS — the point of Alg. 2."""
        rng = np.random.default_rng(8)
        r = propagated_features(graph, 2)
        model = build_cluster_model(r, 10, rng=np.random.default_rng(8))
        greedy = select_coreset(graph, budget=15, num_clusters=10, sample_size=50,
                                rng=np.random.default_rng(9), r=r, cluster_model=model)
        random_costs = []
        for trial in range(5):
            random_sel = np.random.default_rng(trial).choice(graph.num_nodes, size=15, replace=False)
            random_costs.append(representativity_cost(model, random_sel))
        assert greedy.representativity < np.mean(random_costs)

    def test_gains_trend_downward(self, graph):
        """Submodularity: early additions gain more than late ones (on average)."""
        result = select_coreset(graph, budget=30, num_clusters=10, sample_size=60,
                                rng=np.random.default_rng(10))
        first_half = np.mean(result.gains[:10])
        second_half = np.mean(result.gains[-10:])
        assert first_half > second_half

    def test_larger_budget_lower_cost(self, graph):
        small = select_coreset(graph, budget=5, num_clusters=10, sample_size=40,
                               rng=np.random.default_rng(11))
        large = select_coreset(graph, budget=40, num_clusters=10, sample_size=40,
                               rng=np.random.default_rng(11))
        assert large.representativity < small.representativity


def _digest(array, dtype):
    """First 16 hex digits of the sha256 of ``array``'s little-endian bytes."""
    raw = np.ascontiguousarray(np.asarray(array, dtype=dtype)).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


class TestGoldenSelection:
    """Bit-exact pins of Alg. 2's output at the paper's selection settings.

    Any change to the gain kernel's arithmetic that flips a greedy argmax,
    or to ``add``'s bookkeeping that moves a realized gain by one ulp,
    shows up here.  The digests cover the full ``selected`` / ``weights``
    / ``gains`` arrays; the readable prefixes make a failure easier to read.
    """

    # seed: (selected[:5], selected, weights, gains, gains[0], representativity)
    GOLDEN = {
        0: ([116, 74, 141, 37, 68], "b883bef15c5092b6", "e5e787af5f8815fc",
            "e410525792428c24", "0x1.40c0a1f89affdp+9", "0x1.3ebe084cc64d0p+6"),
        1: ([116, 3, 37, 74, 10], "c25b34576c8acd5b", "a3e2fa5bfdac1ccf",
            "fb01871008020e13", "0x1.52dcb50a380cfp+9", "0x1.391b3afc5b1a1p+6"),
        2: ([116, 3, 37, 150, 74], "263167afeef4744a", "ae8fb8b0f0d07e54",
            "c0c964cb3c28ad0a", "0x1.604c9d11b587bp+9", "0x1.36ee2572d6f40p+6"),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_default_config_selection_is_pinned(self, graph, seed):
        cfg = E2GCLConfig()
        result = select_coreset(
            graph, budget=cfg.budget_for(graph.num_nodes),
            num_clusters=cfg.num_clusters, sample_size=cfg.sample_size,
            hops=cfg.num_layers, rng=np.random.default_rng(seed),
        )
        head, selected, weights, gains, first_gain, cost = self.GOLDEN[seed]
        assert result.selected[:5].tolist() == head
        assert _digest(result.selected, "<i8") == selected
        assert _digest(result.weights, "<f8") == weights
        assert _digest(result.gains, "<f8") == gains
        assert float(result.gains[0]).hex() == first_gain
        assert float(result.representativity).hex() == cost

    def test_exact_tie_takes_lowest_index(self, graph):
        """Node 0 is given node 116's ``R`` row (116 wins round one on the
        unmodified graph).  Their gains tie bit for bit, and the greedy
        argmax keeps the first candidate of the tie, so node 0 is picked."""
        r = propagated_features(graph, 2).copy()
        r[0] = r[116]
        model = build_cluster_model(r, 60, rng=np.random.default_rng(0))
        gains = RepresentativityObjective(model).marginal_gains(
            np.arange(graph.num_nodes))
        assert gains[0] == gains[116] == gains.max()
        result = select_coreset(graph, budget=20, num_clusters=60,
                                sample_size=300, rng=np.random.default_rng(0),
                                r=r, cluster_model=model)
        assert result.selected[0] == 0
        assert 116 not in result.selected

    def test_duplicate_rows_tie_every_round(self):
        """Every node has a twin with the same ``R`` row; twins' gains stay
        bit-equal in every round and the lower index always wins."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            half = rng.normal(size=(13, 4))
            model = build_cluster_model(np.vstack([half, half]), 4, rng=rng)
            objective = RepresentativityObjective(model)
            for _ in range(8):
                pool = np.setdiff1d(np.arange(26), objective.selected)
                gains = np.full(26, np.nan)
                gains[pool] = objective.marginal_gains(pool)
                both = np.isin(np.arange(13), pool) & np.isin(np.arange(13, 26), pool)
                np.testing.assert_array_equal(gains[:13][both], gains[13:][both])
                best = int(pool[np.argmax(gains[pool])])
                assert best < 13
                objective.add(best)


def eager_select(graph, budget, sample_size, seed, model):
    """Alg. 2 with eager rounds: every round evaluates the whole sample in
    one ``marginal_gains`` call.  The lazy selector must reproduce it bit
    for bit.  Also returns the largest rise of a candidate's batched gain
    over its previous batched gain, which the lazy stop must tolerate."""
    rng = np.random.default_rng(seed)
    objective = RepresentativityObjective(model)
    unselected = np.ones(graph.num_nodes, dtype=bool)
    last = np.full(graph.num_nodes, np.inf)
    gains, rise, tail_rounds = [], -np.inf, 0
    while len(objective.selected) < budget:
        pool = np.flatnonzero(unselected)
        if pool.size > sample_size:
            candidates = rng.choice(pool, size=sample_size, replace=False)
        else:
            candidates = pool
            tail_rounds += 1
        batch = objective.marginal_gains(candidates)
        rise = max(rise, float((batch - last[candidates]).max()))
        last[candidates] = batch
        best = int(candidates[int(batch.argmax())])
        gains.append(objective.add(best))
        unselected[best] = False
    selected = np.asarray(objective.selected, dtype=np.int64)
    weights = np.bincount(_nearest_selected(model.r, selected),
                          minlength=selected.size).astype(np.float64)
    return {"selected": selected, "weights": weights, "gains": np.array(gains),
            "rise": rise, "slack": objective.gain_slack,
            "tail_rounds": tail_rounds}


def selection_case(case):
    """``(graph, model, budget, sample_size, seed, ceiling)`` for a case id.

    ``cora-s``: the Cora analogue at x0.3 (seed s); ``citeseer-s``: its
    Citeseer analogue; ``twins-s``: every node has a twin with the same
    ``R`` row, so gains tie exactly every round; ``empty-s``: a partition
    with an empty cluster; ``chunked-c``: the gain ceiling lowered to ``c``
    bytes; ``tail-s``: a budget that drains the pool below ``n_s``."""
    kind, arg = case.rsplit("-", 1)
    seed, ceiling = int(arg), None
    dataset = "citeseer" if kind == "citeseer" else "cora"
    graph = load_dataset(dataset, seed=11, scale=0.3)
    r = propagated_features(graph, 2)
    budget = E2GCLConfig().budget_for(graph.num_nodes)
    if kind == "twins":
        r = r.copy()
        half = graph.num_nodes // 2
        r[half:2 * half] = r[:half]
    if kind == "chunked":
        seed, ceiling = 0, int(arg)
    if kind == "tail":
        budget = graph.num_nodes - 20
    model = build_cluster_model(r, 20, rng=np.random.default_rng(seed))
    if kind == "empty":
        assignments = model.assignments.copy()
        assignments[assignments == 3] = 4
        model = build_cluster_model(
            r, 20, clustering=KMeansResult(assignments, model.centers, 0.0, 0))
        assert model.members[3].size == 0
    return graph, model, budget, 60, seed, ceiling


LAZY_CASES = ([f"cora-{s}" for s in range(10)]
              + [f"citeseer-{s}" for s in range(3)]
              + [f"twins-{s}" for s in range(3)]
              + [f"empty-{s}" for s in range(2)]
              + ["chunked-1", "chunked-4096", "tail-0"])

_RUNS = {}


def lazy_and_eager(case):
    """Both selections for ``case`` (cached: several tests read them)."""
    if case not in _RUNS:
        graph, model, budget, sample_size, seed, ceiling = selection_case(case)
        with pytest.MonkeyPatch.context() as patch:
            if ceiling is not None:
                patch.setattr(representativity, "_GAIN_CEILING_BYTES", ceiling)
            lazy = select_coreset(graph, budget=budget, sample_size=sample_size,
                                  rng=np.random.default_rng(seed),
                                  r=model.r, cluster_model=model)
            eager = eager_select(graph, budget, sample_size, seed, model)
        _RUNS[case] = lazy, eager
    return _RUNS[case]


class TestLazyEqualsEager:
    """Lazy rounds pick the node an eager round over the whole sample picks,
    so selection, weights and realized gains are bit-identical."""

    @pytest.mark.parametrize("case", LAZY_CASES)
    def test_matches_eager_oracle(self, case):
        lazy, eager = lazy_and_eager(case)
        np.testing.assert_array_equal(lazy.selected, eager["selected"])
        np.testing.assert_array_equal(lazy.weights, eager["weights"])
        np.testing.assert_array_equal(np.array(lazy.gains), eager["gains"])

    def test_tail_case_reaches_tail_rounds(self):
        _, eager = lazy_and_eager("tail-0")
        assert eager["tail_rounds"] > 0

    @pytest.mark.parametrize("case", LAZY_CASES)
    def test_gain_rise_within_slack(self, case):
        """A fresh batched gain may exceed the candidate's stale bound only
        by float noise, and ``gain_slack`` must cover it."""
        _, eager = lazy_and_eager(case)
        assert eager["rise"] <= eager["slack"]


class _StubObjective:
    """Prescribed gains per node; records each ``marginal_gains`` batch."""

    def __init__(self, gains, slack):
        self.gains = np.asarray(gains, dtype=np.float64)
        self.gain_slack = slack
        self.calls = []

    def marginal_gains(self, candidates):
        self.calls.append(candidates.tolist())
        return self.gains[candidates]


class TestLazyRound:
    # Sample positions 0..3 hold nodes 0..3; nodes 1 and 3 form the cluster-0
    # group (stale bound 7), nodes 0 and 2 the cluster-1 group.
    CANDIDATES = np.arange(4)
    CLUSTERS = np.array([1, 0, 1, 0])

    def run(self, fresh, stale_bound, slack):
        objective = _StubObjective(fresh, slack)
        bound = np.array([stale_bound, 7.0, 1.0, 7.0])
        exact, done, groups = _lazy_round(objective, self.CANDIDATES,
                                          self.CLUSTERS, bound)
        return objective, exact, done, groups, bound

    def test_group_whose_bound_equals_best_is_evaluated(self):
        """Best exact gain so far (5, position 3) equals the next group's
        bound: that group is evaluated and the tie goes to position 0."""
        objective, exact, done, groups, bound = self.run(
            [5.0, 4.0, 1.0, 5.0], stale_bound=5.0, slack=0.0)
        assert objective.calls == [[1, 3], [0, 2]]
        assert groups == 2 and done.all()
        assert int(exact.argmax()) == 0
        np.testing.assert_array_equal(bound, [5.0, 4.0, 1.0, 5.0])

    def test_rise_within_slack_still_wins(self):
        objective, exact, _, _, _ = self.run(
            [5.1, 4.0, 1.0, 5.0], stale_bound=4.8, slack=0.5)
        assert objective.calls == [[1, 3], [0, 2]]
        assert int(exact.argmax()) == 0

    def test_group_below_best_minus_slack_is_skipped(self):
        objective, exact, done, groups, bound = self.run(
            [5.0, 4.0, 1.0, 5.0], stale_bound=4.4, slack=0.5)
        assert objective.calls == [[1, 3]]
        assert groups == 1
        np.testing.assert_array_equal(done, [False, True, False, True])
        assert exact[0] == exact[2] == -np.inf
        assert int(exact.argmax()) == 3
        assert bound[0] == 4.4                       # stale bound kept

    def test_unevaluated_group_goes_first(self):
        objective, _, done, groups, _ = self.run(
            [5.0, 4.0, 1.0, 5.0], stale_bound=np.inf, slack=0.0)
        assert done.all() and groups == 2
        assert objective.calls == [[0, 2], [1, 3]]   # +inf bound goes first

    def test_unevaluated_groups_share_one_call(self):
        objective = _StubObjective([5.0, 4.0, 1.0, 5.0], 0.0)
        bound = np.full(4, np.inf)
        exact, done, groups = _lazy_round(objective, self.CANDIDATES,
                                          self.CLUSTERS, bound)
        assert objective.calls == [[1, 3, 0, 2]]
        assert groups == 2 and done.all()
        assert int(exact.argmax()) == 0


class TestLazyObservability:
    def events(self, graph, budget):
        with Tracer() as tracer:
            select_coreset(graph, budget=budget, num_clusters=20,
                           sample_size=60, rng=np.random.default_rng(0))
        (event,) = [e for e in tracer.events if e["name"] == "selector.lazy"]
        return event

    def test_round_one_evaluates_every_candidate(self, graph):
        event = self.events(graph, budget=1)
        assert event["sampled"] == event["evaluated"] == 60
        assert 1 <= event["groups_evaluated"] <= 20

    def test_later_rounds_evaluate_fewer(self, graph):
        event = self.events(graph, budget=84)
        assert event["sampled"] == 84 * 60
        assert event["evaluated"] < event["sampled"]


class TestDegradation:
    """The degree fallback keeps Alg. 2's output contract when the
    representativity objective carries no signal."""

    def constant_graph(self):
        from repro.resilience import degenerate_graph

        return degenerate_graph("constant_features", num_nodes=16,
                                num_features=4)

    def test_constant_features_fall_back_to_degree(self):
        graph = self.constant_graph()
        with pytest.warns(RuntimeWarning, match="degree-based"):
            result = select_coreset(graph, budget=4, num_clusters=3,
                                    sample_size=8,
                                    rng=np.random.default_rng(0))
        assert result.budget == 4
        assert result.weights.sum() == graph.num_nodes
        assert result.gains == []
        assert np.isfinite(result.representativity)

    def test_nonfinite_propagated_features_fall_back(self, graph):
        r = propagated_features(graph, 2).copy()
        r[0, 0] = np.nan
        with pytest.warns(RuntimeWarning, match="non-finite"):
            result = select_coreset(graph, budget=5, num_clusters=4,
                                    sample_size=10,
                                    rng=np.random.default_rng(1), r=r)
        assert result.budget == 5
        assert result.weights.sum() == graph.num_nodes
        # Highest-degree nodes win under the fallback.
        top = np.sort(np.argsort(-graph.degrees, kind="stable")[:5])
        np.testing.assert_array_equal(result.selected, top)

    def test_fallback_is_deterministic(self):
        graph = self.constant_graph()
        results = []
        with pytest.warns(RuntimeWarning):
            for _ in range(2):
                results.append(select_coreset(
                    graph, budget=4, num_clusters=3, sample_size=8,
                    rng=np.random.default_rng(2)))
        np.testing.assert_array_equal(results[0].selected,
                                      results[1].selected)


class TestSampleSize:
    def test_recommended_formula(self):
        # n_s = (n/k) log(1/eps)
        assert recommended_sample_size(1000, 100, epsilon=np.exp(-1)) == 10

    def test_at_least_one(self):
        assert recommended_sample_size(10, 10, epsilon=0.99) >= 1

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            recommended_sample_size(100, 0)

    def test_default_used_when_none(self, graph):
        result = select_coreset(graph, budget=10, num_clusters=8, sample_size=None,
                                rng=np.random.default_rng(12))
        assert result.budget == 10
