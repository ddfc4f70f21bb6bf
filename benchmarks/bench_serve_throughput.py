"""Serving benchmarks: microbatching throughput, cache latency, consistency.

Measures the three acceptance properties of the ``repro.serve`` stack on a
freshly trained GRACE checkpoint:

* **throughput** — closed-loop embed queries at concurrency 32 on the cold
  inductive path (no snapshot cache), batched vs unbatched servers; the
  microbatcher must coalesce concurrent requests into shared forwards for
  a >= 3x request-rate win, plus an open-loop burst drain for occupancy;
* **latency** — warm-cache embed p99 (LRU + snapshot front) vs the cold
  per-request inductive-encode p99; the cache must be >= 10x lower;
* **consistency** — embeddings answered by the server must be
  *bit-identical* to the offline ``artifact.embed(graph)`` rows;
* **overload** — open-loop offered load at ~2x measured capacity against
  an admission-controlled server: the excess must be *shed* with
  structured ``overloaded`` envelopes while goodput (successful req/s)
  stays within 20% of the goodput the same harness measures at
  saturation (1x capacity) — load shedding, not queue collapse.

Writes ``BENCH_serve.json`` at the repo root and
``benchmarks/results/serve.txt`` (the table
``benchmarks/collect_results.py`` injects into EXPERIMENTS.md).  Run with::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py

``REPRO_BENCH_TRIALS`` controls repetitions (best-of, default 3).
"""

from __future__ import annotations

import json
import platform
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.baselines import get_method
from repro.bench import bench_trials, render_table
from repro.engine import PeriodicCheckpoint
from repro.graphs import load_dataset
from repro.serve import EmbeddingServer, InProcessClient, ModelRegistry

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_serve.json"
TXT_PATH = ROOT / "benchmarks" / "results" / "serve.txt"

DATASET, SCALE, SEED = "cora", 0.5, 0
TRAIN_EPOCHS = 8
CONCURRENCY = 32
PER_WORKER = 4          # closed-loop requests per worker thread
OPEN_LOOP_BURST = 256   # one-shot submit count for the occupancy probe
WARM_QUERIES = 256
OVERLOAD_FACTOR = 2.0   # offered load as a multiple of measured capacity
OVERLOAD_SECONDS = 2.0  # paced-arrival window per open-loop run
OVERLOAD_SCALE = 1.0    # overload graph: forwards must dominate shed cost


def build_registry(graph) -> ModelRegistry:
    """Train GRACE briefly and register its checkpoint (the serve entry path)."""
    registry = ModelRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grace.npz"
        method = get_method("grace", epochs=TRAIN_EPOCHS, seed=SEED)
        method.fit(graph, hooks=[PeriodicCheckpoint(path, every=TRAIN_EPOCHS)])
        registry.load(path)
    return registry


def closed_loop(server: EmbeddingServer, num_nodes: int) -> Tuple[float, List[float]]:
    """Drive CONCURRENCY synchronous workers; return (req/s, latencies)."""
    latencies: List[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(CONCURRENCY + 1)

    def worker(worker_id: int, client: InProcessClient) -> None:
        barrier.wait()
        mine = []
        for i in range(PER_WORKER):
            node = (worker_id * PER_WORKER + i) % num_nodes
            start = time.perf_counter()
            response = client.request({"op": "embed", "node": node})
            mine.append(time.perf_counter() - start)
            assert response["ok"], response
        with lock:
            latencies.extend(mine)

    with InProcessClient(server) as client:
        threads = [threading.Thread(target=worker, args=(w, client))
                   for w in range(CONCURRENCY)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    return (CONCURRENCY * PER_WORKER) / elapsed, latencies


def open_loop_burst(server: EmbeddingServer, num_nodes: int) -> float:
    """Submit OPEN_LOOP_BURST requests at once; return drain req/s."""
    with InProcessClient(server) as client:
        start = time.perf_counter()
        futures = [client.submit({"op": "embed", "node": i % num_nodes})
                   for i in range(OPEN_LOOP_BURST)]
        for future in futures:
            assert future.result(timeout=120)["ok"]
        return OPEN_LOOP_BURST / (time.perf_counter() - start)


def overload_open_loop(server: EmbeddingServer, num_nodes: int,
                       offered_rps: float) -> dict:
    """Pace arrivals at ``offered_rps`` (open loop) for OVERLOAD_SECONDS.

    Arrivals do not wait for responses — a pool far wider than the
    server's inflight watermark fires them on a fixed clock, so when the
    server saturates the excess hits admission control instead of piling
    into an unbounded queue.  Returns shed/goodput/latency tallies.
    """
    interval = 1.0 / offered_rps

    def call(client: InProcessClient, node: int) -> Tuple[dict, float]:
        start = time.perf_counter()
        response = client.request({"op": "embed", "node": node})
        return response, time.perf_counter() - start

    with InProcessClient(server) as client, \
            ThreadPoolExecutor(max_workers=2 * CONCURRENCY) as pool:
        futures = []
        start = time.perf_counter()
        target = start
        while time.perf_counter() - start < OVERLOAD_SECONDS:
            now = time.perf_counter()
            if now < target:
                time.sleep(target - now)
            futures.append(pool.submit(call, client, len(futures) % num_nodes))
            target += interval
        window = time.perf_counter() - start
        outcomes = [future.result(timeout=120) for future in futures]
        elapsed = time.perf_counter() - start  # includes the drain tail

    accepted = [latency for response, latency in outcomes if response["ok"]]
    shed = sum(1 for response, _ in outcomes
               if not response["ok"]
               and response["error"]["code"] == "overloaded")
    other = len(outcomes) - len(accepted) - shed
    return {
        "requests_offered": len(outcomes),
        "offered_actual_rps": len(outcomes) / window,
        "accepted": len(accepted),
        "shed": shed,
        "other_errors": other,
        "shed_rate": shed / max(len(outcomes), 1),
        "goodput_rps": len(accepted) / elapsed,
        "p99_ms_under_overload": (
            float(np.percentile(np.asarray(accepted) * 1e3, 99))
            if accepted else float("nan")),
    }


def percentiles_ms(latencies: List[float]) -> dict:
    array = np.asarray(latencies) * 1e3
    return {
        "p50_ms": float(np.percentile(array, 50)),
        "p95_ms": float(np.percentile(array, 95)),
        "p99_ms": float(np.percentile(array, 99)),
    }


def run_serve_bench() -> dict:
    trials = bench_trials(default=3)
    graph = load_dataset(DATASET, seed=SEED, scale=SCALE)
    registry = build_registry(graph)
    version = registry.get()
    offline = version.artifact.embed(graph)
    num_nodes = graph.num_nodes

    # Throughput: cold inductive path (no cache) so every query costs a
    # forward — exactly the regime microbatching exists for.
    batched_rps, unbatched_rps = 0.0, 0.0
    cold_latencies: List[float] = []
    occupancy = 0.0
    open_loop_rps = 0.0
    for _ in range(trials):
        with EmbeddingServer(registry, graph, use_cache=False,
                             use_batching=True,
                             max_batch=CONCURRENCY) as batched:
            rps, _ = closed_loop(batched, num_nodes)
            batched_rps = max(batched_rps, rps)
            open_loop_rps = max(open_loop_rps, open_loop_burst(batched, num_nodes))
            occupancy = max(occupancy, batched.metrics.mean_batch_occupancy)
        with EmbeddingServer(registry, graph, use_cache=False,
                             use_batching=False) as unbatched:
            rps, lats = closed_loop(unbatched, num_nodes)
            unbatched_rps = max(unbatched_rps, rps)
            if len(lats) > len(cold_latencies):
                cold_latencies = lats

    # Overload: open-loop arrivals against an admission-controlled server
    # (inflight watermark = concurrency), once at 1x measured capacity
    # (saturation baseline) and once at OVERLOAD_FACTOR x.  Comparing the
    # two goodputs *within the same harness* isolates what overload costs
    # from what the harness costs.  Runs on its own OVERLOAD_SCALE graph:
    # retention is about admission control only when the per-request
    # forward dominates the cost of minting an ``overloaded`` envelope
    # (on the tiny x0.5 graph the two are comparable and shed churn, not
    # queueing, sets the number).
    overload_graph = load_dataset(DATASET, seed=SEED, scale=OVERLOAD_SCALE)
    overload_registry = build_registry(overload_graph)

    def guarded_server() -> EmbeddingServer:
        return EmbeddingServer(overload_registry, overload_graph,
                               use_cache=False, use_batching=True,
                               max_batch=CONCURRENCY,
                               max_inflight=CONCURRENCY, retry_after_ms=5.0)

    capacity_rps = 0.0
    for _ in range(trials):
        with guarded_server() as guarded:
            capacity_rps = max(
                capacity_rps, closed_loop(guarded, overload_graph.num_nodes)[0])
    best = {"saturated": None, "overloaded": None}
    for _ in range(trials):
        for slot, factor in (("saturated", 1.0),
                             ("overloaded", OVERLOAD_FACTOR)):
            with guarded_server() as guarded:
                guarded.warmup()
                run = overload_open_loop(guarded, overload_graph.num_nodes,
                                         factor * capacity_rps)
            if (best[slot] is None
                    or run["goodput_rps"] > best[slot]["goodput_rps"]):
                best[slot] = run
    overload = {
        "dataset": {"name": DATASET, "scale": OVERLOAD_SCALE,
                    "num_nodes": overload_graph.num_nodes},
        "max_inflight": CONCURRENCY,
        "duration_s": OVERLOAD_SECONDS,
        "overload_factor": OVERLOAD_FACTOR,
        "capacity_rps": capacity_rps,
        "saturated": best["saturated"],
        "overloaded": best["overloaded"],
        "goodput_over_saturated": (
            best["overloaded"]["goodput_rps"]
            / max(best["saturated"]["goodput_rps"], 1e-12)),
    }

    # Latency: warm LRU-fronted snapshot reads, single-threaded so the
    # numbers are pure per-request cost (no queueing).
    warm_latencies: List[float] = []
    with EmbeddingServer(registry, graph, use_batching=False) as warm:
        with InProcessClient(warm) as client:
            for i in range(64):  # prime snapshot + LRU
                client.request({"op": "embed", "node": i % num_nodes})
            for i in range(WARM_QUERIES):
                start = time.perf_counter()
                response = client.request({"op": "embed", "node": i % 64})
                warm_latencies.append(time.perf_counter() - start)
            # Consistency: served rows vs the offline matrix, bit for bit.
            checked = range(0, num_nodes, max(1, num_nodes // 32))
            identical = all(
                np.array_equal(
                    np.array(client.request({"op": "embed", "node": n})["embedding"]),
                    offline[n])
                for n in checked)

    warm = percentiles_ms(warm_latencies)
    cold = percentiles_ms(cold_latencies)
    return {
        "benchmark": "serve",
        "trials": trials,
        "python": platform.python_version(),
        "dataset": {"name": DATASET, "scale": SCALE, "num_nodes": num_nodes,
                    "num_edges": graph.num_edges},
        "model": {"version": version.version_id, "method": version.method,
                  "train_epochs": TRAIN_EPOCHS},
        "throughput": {
            "concurrency": CONCURRENCY,
            "requests_per_run": CONCURRENCY * PER_WORKER,
            "batched_rps": batched_rps,
            "unbatched_rps": unbatched_rps,
            "batching_speedup": batched_rps / max(unbatched_rps, 1e-12),
            "mean_batch_occupancy": occupancy,
            "open_loop_burst": OPEN_LOOP_BURST,
            "open_loop_rps": open_loop_rps,
        },
        "latency": {
            "warm": warm,
            "cold_inductive": cold,
            "warm_cold_p99_ratio": cold["p99_ms"] / max(warm["p99_ms"], 1e-12),
        },
        "consistency": {
            "bit_identical": bool(identical),
            "nodes_checked": len(list(checked)),
        },
        "overload": overload,
    }


def render_serve(results: dict) -> str:
    throughput = results["throughput"]
    latency = results["latency"]
    overload = results["overload"]
    rows = {
        "batched (req/s)": [f"{throughput['batched_rps']:.0f}"],
        "unbatched (req/s)": [f"{throughput['unbatched_rps']:.0f}"],
        "batching speedup": [f"{throughput['batching_speedup']:.1f}x"],
        "batch occupancy": [f"{throughput['mean_batch_occupancy']:.1f}"],
        "open-loop burst (req/s)": [f"{throughput['open_loop_rps']:.0f}"],
        "warm p50/p99 (ms)": [f"{latency['warm']['p50_ms']:.3f} / "
                              f"{latency['warm']['p99_ms']:.3f}"],
        "cold p50/p99 (ms)": [f"{latency['cold_inductive']['p50_ms']:.3f} / "
                              f"{latency['cold_inductive']['p99_ms']:.3f}"],
        "cold/warm p99 ratio": [f"{latency['warm_cold_p99_ratio']:.0f}x"],
        "served == offline": ["bit-identical" if results["consistency"]["bit_identical"]
                              else "MISMATCH"],
        "overload graph": [
            f"{overload['dataset']['name']} x{overload['dataset']['scale']} "
            f"(n={overload['dataset']['num_nodes']})"],
        "saturated goodput (req/s)": [
            f"{overload['saturated']['goodput_rps']:.0f}"],
        "overload offered (req/s)": [
            f"{overload['overloaded']['offered_actual_rps']:.0f}"],
        "overload goodput (req/s)": [
            f"{overload['overloaded']['goodput_rps']:.0f}"],
        "overload shed rate": [
            f"{100 * overload['overloaded']['shed_rate']:.0f}%"],
        "overload p99 (ms)": [
            f"{overload['overloaded']['p99_ms_under_overload']:.1f}"],
        "goodput retained": [f"{100 * overload['goodput_over_saturated']:.0f}%"],
    }
    dataset = results["dataset"]
    column = (f"{dataset['name']} x{dataset['scale']} "
              f"(n={dataset['num_nodes']}, conc={throughput['concurrency']})")
    return render_table("Serving benchmarks (best of %d)" % results["trials"],
                        [column], rows)


def main() -> int:
    results = run_serve_bench()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    text = render_serve(results)
    TXT_PATH.parent.mkdir(exist_ok=True)
    TXT_PATH.write_text(text + "\n")
    print(text)
    print(f"wrote {JSON_PATH.relative_to(ROOT)} and {TXT_PATH.relative_to(ROOT)}")

    speedup = results["throughput"]["batching_speedup"]
    ratio = results["latency"]["warm_cold_p99_ratio"]
    identical = results["consistency"]["bit_identical"]
    overloaded = results["overload"]["overloaded"]
    retained = results["overload"]["goodput_over_saturated"]
    checks = [
        (speedup >= 3.0,
         f"microbatching {speedup:.1f}x vs unbatched at concurrency {CONCURRENCY} (need >= 3x)"),
        (ratio >= 10.0,
         f"warm-cache p99 {ratio:.0f}x below cold inductive p99 (need >= 10x)"),
        (identical,
         f"served embeddings bit-identical to offline "
         f"({results['consistency']['nodes_checked']} nodes)"),
        (overloaded["shed"] > 0 and overloaded["other_errors"] == 0,
         f"{OVERLOAD_FACTOR:.0f}x-capacity load shed {overloaded['shed']} of "
         f"{overloaded['requests_offered']} requests with structured "
         f"'overloaded' envelopes (and nothing else failed)"),
        (retained >= 0.8,
         f"goodput under {OVERLOAD_FACTOR:.0f}x overload "
         f"{100 * retained:.0f}% of goodput at saturation (need >= 80%)"),
    ]
    for ok, message in checks:
        print(("[OK ] " if ok else "[MISS] ") + message)
    return 0 if all(ok for ok, _ in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
