"""TimedCurve / CurvePoint semantics (the Fig. 3 series container) and
the :class:`TimedEvalHook` that fills it on the engine's clock.

``TimedCurve.time_to_reach`` feeds the "time to reach X% accuracy"
comparisons, so its edge semantics — first crossing, exact threshold,
empty/non-monotone curves — are pinned here.
"""

import math
import time

import numpy as np

from repro.baselines import get_method
from repro.engine import TimedEvalHook
from repro.eval import CurvePoint, TimedCurve
from repro.obs import Tracer


def make_curve(pairs, label="e2gcl"):
    return TimedCurve(label=label, points=[
        CurvePoint(epoch=i * 5, seconds=s, accuracy=a)
        for i, (s, a) in enumerate(pairs)
    ])


class TestTimeToReach:
    def test_first_crossing_wins(self):
        curve = make_curve([(1.0, 0.50), (2.0, 0.70), (3.0, 0.72)])
        assert curve.time_to_reach(0.60) == 2.0

    def test_exact_threshold_counts(self):
        curve = make_curve([(1.0, 0.50), (2.0, 0.70)])
        assert curve.time_to_reach(0.70) == 2.0

    def test_unreached_is_none(self):
        curve = make_curve([(1.0, 0.50), (2.0, 0.70)])
        assert curve.time_to_reach(0.71) is None

    def test_empty_curve_is_none(self):
        assert make_curve([]).time_to_reach(0.1) is None

    def test_first_point_can_cross(self):
        curve = make_curve([(0.5, 0.90), (1.0, 0.95)])
        assert curve.time_to_reach(0.80) == 0.5

    def test_non_monotone_curve_uses_first_touch(self):
        """Accuracy dipping below the threshold later must not matter."""
        curve = make_curve([(1.0, 0.40), (2.0, 0.75), (3.0, 0.60), (4.0, 0.80)])
        assert curve.time_to_reach(0.70) == 2.0

    def test_zero_threshold_returns_first_point(self):
        curve = make_curve([(1.5, 0.10), (2.5, 0.90)])
        assert curve.time_to_reach(0.0) == 1.5


class TestCurveSummaries:
    def test_best_and_final(self):
        curve = make_curve([(1.0, 0.60), (2.0, 0.80), (3.0, 0.75)])
        assert curve.best_accuracy() == 0.80
        assert curve.final_accuracy() == 0.75

    def test_empty_curve_summaries_are_nan(self):
        curve = make_curve([])
        assert math.isnan(curve.best_accuracy())
        assert math.isnan(curve.final_accuracy())

    def test_single_point(self):
        curve = make_curve([(1.0, 0.42)])
        assert curve.best_accuracy() == 0.42
        assert curve.final_accuracy() == 0.42
        assert curve.time_to_reach(0.42) == 1.0


FAST = dict(epochs=4, embedding_dim=8, hidden_dim=16, seed=0)


def fit_timed(graph, every, embed_delay=0.0):
    """A small GRACE fit with a :class:`TimedEvalHook`; ``embed_delay``
    makes every probe cost at least that many seconds."""
    method = get_method("grace", **FAST)

    def embed():
        time.sleep(embed_delay)
        return method.embed(graph)

    hook = TimedEvalHook(graph, embed, label="grace", every=every,
                         eval_trials=1, decoder_epochs=5)
    method.fit(graph, hooks=[hook])
    return method.last_loop, hook


class TestTimedEvalHook:
    def test_records_on_interval_only(self, tiny_cora):
        _, hook = fit_timed(tiny_cora, every=2)
        assert [p.epoch for p in hook.curve.points] == [0, 2]
        assert all(np.isfinite(p.accuracy) for p in hook.curve.points)

    def test_eval_overhead_excluded_from_clock(self, tiny_cora):
        """Each probe's cost is deducted from the run's clock, so the
        recorded total trails the fit's wall time by at least the probes'
        (sleep-padded) cost."""
        delay = 0.05
        start = time.perf_counter()
        loop, hook = fit_timed(tiny_cora, every=1, embed_delay=delay)
        wall = time.perf_counter() - start
        assert len(hook.curve.points) == FAST["epochs"]
        assert loop.history.total_seconds <= wall - FAST["epochs"] * delay

    def test_points_read_the_loop_clock(self, tiny_cora):
        """Points carry the engine's per-epoch elapsed time, whose origin
        precedes setup, so setup is on the curve with no separate offset."""
        with Tracer() as tracer:
            loop, hook = fit_timed(tiny_cora, every=1)
        seconds = [p.seconds for p in hook.curve.points]
        assert seconds == [r.elapsed_seconds for r in loop.history.records]
        (setup,) = [e for e in tracer.events
                    if e["type"] == "span" and e["name"] == "method.grace.setup"]
        assert seconds[0] >= setup["seconds"]
        assert all(b > a for a, b in zip(seconds, seconds[1:]))
