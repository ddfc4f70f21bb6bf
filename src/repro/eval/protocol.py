"""The accuracy-vs-time series behind Fig. 3.

During pre-training, :class:`repro.engine.TimedEvalHook` linear-evaluates
the encoder at fixed epoch intervals on the engine's canonical clock;
each evaluation appends one (cumulative wall-clock seconds, accuracy)
:class:`CurvePoint` to a :class:`TimedCurve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class CurvePoint:
    """One point of an accuracy-vs-time curve."""

    epoch: int
    seconds: float
    accuracy: float


@dataclass
class TimedCurve:
    """A labeled accuracy-vs-time series (one line of Fig. 3)."""

    label: str
    points: List[CurvePoint]

    def best_accuracy(self) -> float:
        return max(p.accuracy for p in self.points) if self.points else float("nan")

    def final_accuracy(self) -> float:
        return self.points[-1].accuracy if self.points else float("nan")

    def time_to_reach(self, accuracy: float) -> Optional[float]:
        """Seconds until the curve first reaches ``accuracy`` (None = never)."""
        for point in self.points:
            if point.accuracy >= accuracy:
                return point.seconds
        return None
