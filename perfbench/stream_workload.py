"""``stream-replay``: ``replay_log`` over seeded delta logs, live server.

Set-up builds the 2000-node dynamic-SBM analogue, fits a 6-epoch GRACE
checkpoint on it (in a child process), writes one 600-delta log per unit
with the seeded ``DeltaGenerator`` and warms an ``EmbeddingServer``.  One
unit replays its log in batches of 50 with 16 probe reads per batch; every
unit starts from a freshly warmed server on the original graph.

Latency is taken per probe read, from the time it was due: a batch's
probes all fall due when the batch has been applied, and the replay sends
them one after another, so a probe that meets a repair of the stale rows
delays every probe after it.

Why this workload: it drives the store with writes beside reads
(invalidate → repair), while ``serve-mixed`` only reads it, so a store
change that helps one use and hurts the other shows on one of the two.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

from harness import (
    EVAL_SEED,
    EVAL_TRIALS,
    calm_quartile,
    latency_summary,
    metric,
    peak_rss_mb,
    prepare,
    timed_setups,
    unit_count,
)
from repro.eval.node_classification import evaluate_embeddings
from repro.serve import EmbeddingServer, ModelRegistry
from repro.stream import DeltaGenerator, DeltaLog, replay_log
from tracing import SpanRecorder, coverage, instrument, layer_table, per_layer_metrics

DELTAS = 600
BATCH = 50
#: Probe reads after each batch.  A probe that lands on a row that is not
#: stale makes the store repair every stale row; with about 70% of rows
#: stale after a batch, 4 probes left that repair to chance (a quarter of
#: batches had none) and replay throughput swung up to 5x between logs.
#: With 16, almost every batch repairs once.
PROBES = 16
CHECKPOINT_EPOCHS = 6
#: Reference wall-clock of one replay; ``--seconds`` / UNIT_S replays run.
UNIT_S = 8.0
MIN_UNITS = 1
UNIT_SEED_STRIDE = 1000
#: Served rows compared against an offline embed of the mutated graph.
CHECK_ROWS = 64
ROW_TOLERANCE = 1e-6
#: Probe reads per tail slice (four batches; each slice's p75 leaves 16
#: beyond it).  The p50 is taken per batch, whose probes share a due time.
TAIL_SLICE = 4 * PROBES
ROOT_SPAN = "bench.replay"


def _setup(seed: int, units: int, workdir):
    fit_s = []

    def build():
        graph, path, child_s = prepare("stream-sbm", workdir,
                                       CHECKPOINT_EPOCHS)
        fit_s.append(child_s)
        registry = ModelRegistry()
        registry.load(path)
        logs = []
        for k in range(units):
            log_path = workdir / f"deltas-{k}.jsonl"
            log_path.unlink(missing_ok=True)
            with DeltaLog(log_path) as log:
                log.extend(DeltaGenerator(
                    graph, seed=seed * UNIT_SEED_STRIDE + k).generate(DELTAS))
            logs.append(log_path)
        server = EmbeddingServer(registry, graph)
        server.warmup()
        return graph, registry, logs, server

    (graph, registry, logs, server), setup_s = timed_setups(
        build, lambda built: built[3].close())
    return graph, registry, logs, server, setup_s, calm_quartile(fit_s)


def replay(server, log_path, seed: int, recorder=None) -> dict:
    """One timed replay; per-probe latencies and per-batch rates ride
    along in the summary.

    ``replay_log`` sends each batch's PROBES probes through
    ``server.handle`` right after applying the batch, so every PROBES-th
    call opens a batch's probes and its start is when they all fell due.
    A batch's rate is its deltas applied over the time from the end of the
    previous batch's probes (the replay's start, for the first batch) to
    the end of its own.
    """
    starts, ends = [], []
    handle = server.handle

    def timed_handle(request):
        starts.append(time.perf_counter())
        response = handle(request)
        ends.append(time.perf_counter())
        return response

    server.handle = timed_handle
    scope = recorder.span(ROOT_SPAN) if recorder else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            summary = replay_log(server, log_path, batch_size=BATCH,
                                 probes_per_batch=PROBES, seed=seed)
    finally:
        del server.handle
    summary["wall_s"] = time.perf_counter() - start
    due = np.repeat(starts[::PROBES], PROBES)
    summary["probe_s"] = np.asarray(ends) - due
    batch_ends = np.concatenate([[start], ends[PROBES - 1::PROBES]])
    applied = [batch["applied"] for batch in summary["batches"]]
    summary["batch_rates"] = np.asarray(applied) / np.diff(batch_ends)
    return summary


def check(server, registry, summary: dict, seed: int) -> dict:
    """Deltas applied, probes answered, served rows equal an offline embed."""
    offline = registry.get().artifact.embed(server.graph)
    rng = np.random.default_rng(seed)
    nodes = rng.choice(server.graph.num_nodes, size=CHECK_ROWS, replace=False)
    mismatched = 0
    for node in nodes:
        response = server.handle({"op": "embed", "node": int(node)})
        if not response.get("ok") or np.max(np.abs(
                np.asarray(response["embedding"]) - offline[node])) \
                > ROW_TOLERANCE:
            mismatched += 1
    probes = summary["num_batches"] * PROBES
    attempted = summary["deltas_read"] + probes + CHECK_ROWS
    failed = (summary["deltas_read"] - summary["deltas_applied"]
              + summary["probe_failures"] + mismatched)
    return {"attempted": attempted, "failed": failed}


def served_quality(server, graph) -> float:
    """Linear-eval accuracy of the final served rows of the original nodes."""
    served = np.array(server.store.snapshot()[:graph.num_nodes])
    return evaluate_embeddings(graph, served, seed=EVAL_SEED,
                               trials=EVAL_TRIALS).test_accuracy.mean


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    units = 1 if trace else unit_count(seconds, UNIT_S, MIN_UNITS)
    graph, registry, logs, server, setup_s, fit_s = _setup(
        seed, units, workdir)
    if trace:
        return _traced(graph, registry, logs[0], server, seed)

    summaries, attempted, failed, accuracies, rss = [], 0, 0, [], 0.0
    for k, log_path in enumerate(logs):
        if k:
            server = EmbeddingServer(registry, graph)
            server.warmup()
        with server:
            summary = replay(server, log_path, seed * UNIT_SEED_STRIDE + k)
            if not k:
                # Read before any check: the checks' offline embed and
                # linear eval would otherwise set the high-water mark.
                rss = peak_rss_mb()
            summaries.append(summary)
            outcome = check(server, registry, summary, seed + k)
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            accuracies.append(served_quality(server, graph))
    rates = [s["deltas_applied"] / s["wall_s"] for s in summaries]
    latency = latency_summary(
        np.concatenate([s["probe_s"] for s in summaries]), PROBES,
        tail_window=TAIL_SLICE)
    batch_rates = np.concatenate([s["batch_rates"] for s in summaries])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "ok_frac": metric((attempted - failed) / attempted, "frac"),
            "quality": metric(statistics.mean(accuracies), "frac"),
            # Nothing trains during the replay: the set-up child that fits
            # the served checkpoint (calm quartile of the set-ups).
            "train_s": metric(fit_s, "s"),
            # Deltas/s per batch, probes included, calm quartile over
            # the batches of all replays.
            "throughput_per_s": metric(
                calm_quartile(batch_rates, "higher"), "1/s"),
            "p50_ms": metric(latency["p50_ms"], "ms"),
            "tail_ms": metric(latency["tail_ms"], "ms"),
        },
        "details": {"units": len(summaries),
                    "deltas_per_s": rates,
                    "probe_latency": latency,
                    "final_nodes": [s["final_nodes"] for s in summaries]},
    }


def _traced(graph, registry, log_path, server, seed: int) -> dict:
    unit_seed = seed * UNIT_SEED_STRIDE
    with server:
        untraced = replay(server, log_path, unit_seed)
    recorder = SpanRecorder()
    with instrument(recorder):
        # Built inside the instrumented region so that its row computer is
        # wrapped; the warm-up's spans are dropped.
        server = EmbeddingServer(registry, graph)
        with contextlib.ExitStack() as on_error:
            on_error.callback(server.close)
            server.warmup()
            recorder.reset()
            traced = replay(server, log_path, unit_seed, recorder)
            on_error.pop_all()
        recorder.assert_closed()
        table = layer_table(recorder.spans)
        stale_reads = recorder.tallies["stale_reads"]
    with server:
        outcome = check(server, registry, traced, seed)
    repaired = table.get("serve.store.repair", {}).get("count", 0.0)
    extras = {
        "serve.store.repair_useful_frac":
            stale_reads / repaired if repaired else 0.0,
        "trace.coverage": coverage(table, ROOT_SPAN),
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }
    return {
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": per_layer_metrics(table, extras),
        "table": table,
        "wall_s": traced["wall_s"],
        "spans": recorder.spans,
        "details": {"untraced_s": untraced["wall_s"],
                    "traced_s": traced["wall_s"]},
    }
