"""Shared pieces of the benchmark: statistics, set-up timing, the set-up
child.

Nothing here imports ``repro`` itself; ``run.py`` puts the checkout's
``src`` on the import path before any workload module loads.
"""

from __future__ import annotations

import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent

#: Percentiles the tail metric may report; the highest one that leaves at
#: least ``TAIL_MIN_BEYOND`` samples above it is used.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Linear-eval protocol (Sec. V-A2) with a fixed split seed, so ``quality``
#: depends on the workload seed only through the trained model.
EVAL_SEED = 0
EVAL_TRIALS = 10


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            best = q
    return best


def calm_quartile(values: Sequence[float], better: str = "lower") -> float:
    """The quartile of per-slice ``values`` on the better side: the lower
    quartile of times, the upper quartile of rates.

    On a shared host, interference comes in stretches of one second to
    several minutes that slow every layer by up to half (a fixed kernel
    timed every few ms ran at 6 ms in calm stretches and 9-10 ms in busy
    ones).  A run's median lands on whichever speed held most of the run;
    the calm quartile over short slices of the run reports the program's
    own speed whenever at least a quarter of the run was calm.  A run that
    was busy throughout still reads slow.
    """
    return float(np.percentile(values, 25 if better == "lower" else 75))


def slices(values: Sequence[float], window: int) -> List[np.ndarray]:
    """Consecutive slices of at least ``window`` values (0: one slice)."""
    values = np.asarray(values, dtype=np.float64)
    return np.array_split(values, max(1, values.size // window)) \
        if window else [values]


def latency_summary(samples: Sequence[float], window: int = 0,
                    tail_window: Optional[int] = None) -> dict:
    """p50 and tail of latency samples given in seconds, in milliseconds.

    The samples are cut into consecutive slices of ``window`` samples for
    the p50 and of ``tail_window`` (default ``window``) for the tail; each
    slice takes its own median or tail and the calm quartile over the
    slices is reported (with one slice, that slice's value).  The tail is
    the highest ladder percentile that leaves at least ten samples beyond
    it in every tail slice.  The summary records the percentile, the
    sample count and the slice counts.
    """
    ms = np.asarray(samples, dtype=np.float64) * 1e3
    p50_parts = slices(ms, window)
    tail_parts = slices(ms, window if tail_window is None else tail_window)
    q = tail_percentile(min(part.size for part in tail_parts))
    return {
        "p50_ms": calm_quartile([np.percentile(p, 50) for p in p50_parts]),
        "tail_ms": calm_quartile([np.percentile(p, q) for p in tail_parts]),
        "tail_percentile": q,
        "samples": int(ms.size),
        "slices": len(p50_parts),
        "tail_slices": len(tail_parts),
    }


def unit_count(seconds: float, unit_s: float, minimum: int) -> int:
    """Units that fill about ``seconds`` at the reference speed.

    The count depends on ``--seconds`` only, never on measured speed, so
    two runs with the same arguments do identical work."""
    return max(minimum, round(seconds / unit_s))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build: Callable[[], object],
                 close: Callable[[object], None],
                 repeats: int = SETUP_REPEATS) -> Tuple[object, float]:
    """Run ``build`` ``repeats`` times; keep the last, report the median."""
    durations: List[float] = []
    built = None
    for _ in range(repeats):
        if built is not None:
            close(built)
        start = time.perf_counter()
        built = build()
        durations.append(time.perf_counter() - start)
    return built, statistics.median(durations)


def prepare(dataset: str, workdir: Path, epochs: int = 0
            ) -> Tuple[object, Optional[Path], float]:
    """Run ``prepare.py`` in a child process and load its graph.

    Returns the graph, the checkpoint path (with ``epochs``) and the
    child's wall-clock: interpreter start, imports, dataset and fit.
    """
    graph_path = workdir / f"{dataset}.pkl"
    checkpoint = workdir / f"{dataset}.npz" if epochs else None
    command = [sys.executable, str(HERE / "prepare.py"), "--dataset", dataset,
               "--graph-out", str(graph_path)]
    if epochs:
        command += ["--epochs", str(epochs), "--checkpoint", str(checkpoint)]
    start = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=150, check=False)
    child_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    with graph_path.open("rb") as source:
        graph = pickle.load(source)
    return graph, checkpoint, child_s


def host_reference_ms(repeats: int = 5) -> float:
    """Median wall-clock of a fixed pure-Python and BLAS kernel, in ms.

    Not a metric of the program: it records how fast the host ran around
    a run, so that a shift in the timings on a shared host can be told
    apart from a change in the program."""
    matrix = np.random.default_rng(0).random((200, 200))
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        for _ in range(10):
            matrix @ matrix
        durations.append(time.perf_counter() - start)
    return statistics.median(durations) * 1e3


def environment() -> Dict[str, object]:
    """Machine and library facts that move the numbers."""
    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
