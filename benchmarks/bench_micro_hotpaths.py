"""Micro-benchmarks for the three CSR hot paths (score build / sampling /
selection) — the perf trajectory every PR is measured against.

Times, at three graph scales:

* ``score_table`` — ``compute_edge_scores`` + ``compute_feature_scores``
  (the once-per-graph pre-computation of Sec. IV-C);
* ``global_view_pair`` — one ``generate_global_view_pair`` call (the
  per-epoch cost of Alg. 3), plus the seed per-node-loop sampler on the
  same table so the vectorized speedup is tracked release over release;
* ``coreset_selection`` — ``select_coreset`` (Alg. 2, Tab. V's ST column).

Writes ``BENCH_hotpaths.json`` at the repo root and
``benchmarks/results/hotpaths.txt`` (the rendered table
``benchmarks/collect_results.py`` injects into EXPERIMENTS.md).  Run with::

    PYTHONPATH=src python benchmarks/bench_micro_hotpaths.py

``REPRO_BENCH_TRIALS`` controls repetitions (best-of, default 3).
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned to one thread before numpy loads, as in
# perfbench/run.py: on a small host a second BLAS thread competes with the
# timed kernel and the rows wander from run to run.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, List, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from repro.bench import bench_trials, render_table  # noqa: E402
from repro.core import (  # noqa: E402
    compute_edge_scores,
    compute_feature_scores,
    generate_global_view_pair,
    select_coreset,
)
from repro.core.view_generator import _sample_count  # noqa: E402
from repro.graphs import load_dataset  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_hotpaths.json"
TXT_PATH = ROOT / "benchmarks" / "results" / "hotpaths.txt"

# (label, dataset, scale) — small / medium / large.  The medium tier is the
# dense-2-hop stress case (arxiv's degree tail gives ~300 candidates/node,
# the worst regime for segmented kernels); the large tier is the paper's
# canonical sparse regime scaled up, where per-node Python overhead is what
# kills the seed implementation.
SCALES: List[Tuple[str, str, float]] = [
    ("small", "cora", 0.5),      # ~350 nodes, sparse
    ("medium", "arxiv", 0.5),    # ~2000 nodes, heavy degree tail (dense 2-hop)
    ("large", "cora", 10.0),     # ~7000 nodes, sparse
]


def _best_of(fn: Callable[[], None], trials: int) -> float:
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _seed_loop_sample(edge_table, tau: float, rng: np.random.Generator):
    """The seed implementation of ``_batched_weighted_sample`` (per-node
    Python loop over ``argpartition``), kept verbatim as the speedup
    baseline for the vectorized sampler."""
    n = edge_table.num_nodes
    sizes = np.fromiter((c.size for c in edge_table.candidates), dtype=np.int64, count=n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    flat_candidates = np.concatenate([c for c in edge_table.candidates if c.size])
    flat_probs = np.concatenate([p for p in edge_table.probabilities if p.size])
    keys = rng.exponential(size=total) / np.maximum(flat_probs, 1e-300)
    sources, targets = [], []
    for u in range(n):
        count = _sample_count(tau, float(edge_table.base_degree[u]), int(sizes[u]))
        if count == 0:
            continue
        start, stop = offsets[u], offsets[u + 1]
        segment = keys[start:stop]
        if count >= segment.size:
            picked = flat_candidates[start:stop]
        else:
            idx = np.argpartition(segment, count - 1)[:count]
            picked = flat_candidates[start + idx]
        sources.append(np.full(picked.size, u, dtype=np.int64))
        targets.append(picked)
    if not sources:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(sources), np.concatenate(targets)


def run_hotpaths() -> dict:
    from repro.core.view_generator import _batched_weighted_sample

    trials = bench_trials(default=3)
    results = {
        "benchmark": "hotpaths",
        "trials": trials,
        "python": platform.python_version(),
        "scales": [],
    }
    for label, dataset, scale in SCALES:
        graph = load_dataset(dataset, seed=0, scale=scale)
        rng = np.random.default_rng(0)

        score_seconds = _best_of(
            lambda: (
                compute_edge_scores(graph, rng=np.random.default_rng(1)),
                compute_feature_scores(graph),
            ),
            trials,
        )
        edge_table = compute_edge_scores(graph, rng=np.random.default_rng(1))
        feature_table = compute_feature_scores(graph)

        pair_seconds = _best_of(
            lambda: generate_global_view_pair(graph, edge_table, feature_table, rng),
            trials,
        )
        sampler_seconds = _best_of(
            lambda: _batched_weighted_sample(edge_table, 1.0, np.random.default_rng(2)),
            trials,
        )
        seed_sampler_seconds = _best_of(
            lambda: _seed_loop_sample(edge_table, 1.0, np.random.default_rng(2)),
            trials,
        )

        budget = max(10, graph.num_nodes // 20)
        selection_seconds = _best_of(
            lambda: select_coreset(
                graph, budget=budget, num_clusters=min(60, graph.num_nodes // 10),
                rng=np.random.default_rng(3),
            ),
            trials,
        )

        results["scales"].append({
            "label": label,
            "dataset": dataset,
            "scale": scale,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "candidate_entries": int(edge_table.num_entries),
            "score_table_seconds": score_seconds,
            "global_view_pair_seconds": pair_seconds,
            "sampler_vectorized_seconds": sampler_seconds,
            "sampler_seed_loop_seconds": seed_sampler_seconds,
            "sampler_speedup": seed_sampler_seconds / max(sampler_seconds, 1e-12),
            "coreset_selection_seconds": selection_seconds,
            "selection_budget": budget,
        })
    return results


def render_hotpaths(results: dict) -> str:
    scales = results["scales"]
    columns = [f"{s['label']} ({s['dataset']}, n={s['num_nodes']})" for s in scales]
    rows = {
        "score table (s)": [f"{s['score_table_seconds']:.4f}" for s in scales],
        "view pair (s)": [f"{s['global_view_pair_seconds']:.4f}" for s in scales],
        "sampler vectorized (s)": [f"{s['sampler_vectorized_seconds']:.4f}" for s in scales],
        "sampler seed loop (s)": [f"{s['sampler_seed_loop_seconds']:.4f}" for s in scales],
        "sampler speedup": [f"{s['sampler_speedup']:.1f}x" for s in scales],
        "selection (s)": [f"{s['coreset_selection_seconds']:.4f}" for s in scales],
    }
    return render_table("Hot-path micro-benchmarks (best of %d)" % results["trials"],
                        columns, rows)


def main() -> int:
    results = run_hotpaths()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    text = render_hotpaths(results)
    TXT_PATH.parent.mkdir(exist_ok=True)
    TXT_PATH.write_text(text + "\n")
    print(text)
    print(f"wrote {JSON_PATH.relative_to(ROOT)} and {TXT_PATH.relative_to(ROOT)}")
    largest = results["scales"][-1]
    ok = largest["sampler_speedup"] >= 3.0
    print(("[OK ] " if ok else "[MISS] ")
          + f"vectorized sampler {largest['sampler_speedup']:.1f}x vs seed loop on {largest['label']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
