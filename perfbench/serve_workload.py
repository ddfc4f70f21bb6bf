"""``serve-mixed``: an open loop of mixed queries against a live server.

Set-up builds the Cora analogue and fits an 8-epoch GRACE checkpoint on it
(in a child process), registers the checkpoint, and warms an ``EmbeddingServer`` with its cache and
micro-batcher on.  Traffic is 60% ``embed`` of a known node, 20% ``embed``
of an unseen node (features + neighbors), 10% ``classify`` and 10%
``neighbors``, sent through ``InProcessClient`` by two sender threads:

* a fixed-rate phase at 400 req/s gives ``p50_ms`` and ``tail_ms``, each
  request timed from when it was due;
* a saturation phase (both senders back to back, a fixed request count)
  gives ``throughput_per_s``.

Why this workload: it reads the store without writing (warm LRU and
snapshot hits) and takes the batcher → inductive-encode path for unseen
nodes, while selection, training and the stream layers stay idle.
"""

from __future__ import annotations

import ctypes
import os
import itertools
import threading
import time
from typing import List, Optional

import numpy as np

from harness import (
    calm_quartile,
    latency_summary,
    metric,
    peak_rss_mb,
    prepare,
    timed_setups,
)
from repro.serve import EmbeddingServer, InProcessClient, ModelRegistry
from tracing import SpanRecorder, coverage, instrument, layer_table, per_layer_metrics

#: Fixed open-loop rate, about a sixth of capacity: at 800 req/s (a third)
#: both senders are often busy at once and the queueing that follows
#: amplifies host noise into run-to-run tail swings of 30-50%.
RATE_RPS = 400.0
#: Share of ``--seconds`` spent at the fixed rate; the rest saturates.
RATE_SHARE = 0.6
#: Nominal capacity that sizes the saturation phase's request count.
SATURATION_RPS = 2000.0
SENDERS = 2
#: Requests per latency slice of the fixed-rate phase (one second at
#: 400/s; each slice's p95 leaves 20 requests beyond it).  p50 and tail
#: are the calm quartile over slices.
LATENCY_SLICE = 400
#: Completions per throughput slice of the saturation phase; the calm
#: quartile of slice rates is reported.
RATE_SLICE = 2000
CHECKPOINT_EPOCHS = 8
ROOT_SPAN = "gen.request"
#: Linux ``prctl`` option that sets a thread's timer slack.
PR_SET_TIMERSLACK = 29
#: A sender sleeps until this long before a request is due, then yields
#: the CPU in a loop until it is due.  Waking from a sleep on an idle
#: virtual CPU ran late by a varying amount (generator p99 lateness 2-8 ms
#: against 1.2-1.5 ms with the final yield loop), and that lateness moved
#: p50 by up to 60% between runs.
SPIN_S = 0.001


def _request(kind: str, graph, rng: np.random.Generator) -> dict:
    node = int(rng.integers(graph.num_nodes))
    if kind != "unseen":
        return {"op": kind, "node": node}
    degree = int(rng.integers(1, 6))
    neighbors = rng.choice(graph.num_nodes, size=degree, replace=False)
    return {"op": "embed", "features": graph.features[node].tolist(),
            "neighbors": sorted(int(x) for x in neighbors)}


def make_requests(graph, rng: np.random.Generator, count: int) -> List[dict]:
    """Seeded 60/20/10/10 mix of known embed / unseen embed / classify /
    neighbors; unseen nodes copy a known node's features.

    Every block of five holds one unseen-node embed, three known-node
    embeds and a classify or a neighbors (alternating), in seeded order.
    Seeds then differ in order but not in how often the slow unseen-node
    requests bunch up and occupy both senders at once.
    """
    requests: List[dict] = []
    for block in range(-(-count // 5)):
        kinds = ["unseen", "embed", "embed", "embed",
                 "classify" if block % 2 == 0 else "neighbors"]
        rng.shuffle(kinds)
        requests.extend(_request(kind, graph, rng) for kind in kinds)
    return requests[:count]


def _tight_timer() -> None:
    """Cut this sender thread's timer slack from the kernel's default 50 us,
    so that sleeps end closer to when a request is due (Linux only)."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


class Phase:
    """One pass of the senders over a request list.

    With ``rate`` set the loop is open: request ``i`` is due at
    ``t0 + i / rate`` whether or not earlier ones finished, and its latency
    runs from that due time.  Without it each sender fires its next
    request as soon as the previous one returns (saturation).
    """

    def __init__(self, client, requests: List[dict], rate: Optional[float],
                 recorder: Optional[SpanRecorder] = None):
        self.client = client
        self.requests = requests
        self.rate = rate
        self.recorder = recorder
        n = len(requests)
        self.responses: List[Optional[dict]] = [None] * n
        self.latency = np.zeros(n)
        self.late = np.zeros(n)
        self.done = np.zeros(n)
        self.t0 = 0.0
        self.wall_s = 0.0

    def _send(self, request: dict, due: float) -> dict:
        if self.recorder is None:
            return self.client.request(request)
        with self.recorder.span(ROOT_SPAN, start=due) as root:
            self.recorder.add("gen.late", due, time.perf_counter(), root.id)
            return self.client.request(request)

    def _sender(self, counter, t0: float) -> None:
        _tight_timer()
        n = len(self.requests)
        while True:
            i = next(counter)
            if i >= n:
                return
            if self.rate is None:
                due = time.perf_counter()
            else:
                due = t0 + i / self.rate
                wait = due - time.perf_counter() - SPIN_S
                if wait > 0:
                    time.sleep(wait)
                while time.perf_counter() < due:
                    os.sched_yield()
            sent = time.perf_counter()
            self.responses[i] = self._send(self.requests[i], due)
            self.done[i] = time.perf_counter()
            self.latency[i] = self.done[i] - due
            self.late[i] = sent - due

    def run(self) -> "Phase":
        counter = itertools.count()
        t0 = self.t0 = time.perf_counter()
        threads = [threading.Thread(target=self._sender, args=(counter, t0),
                                    name=f"perfbench-sender-{k}")
                   for k in range(SENDERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_s = time.perf_counter() - t0
        return self

    def slice_rates(self, size: int) -> np.ndarray:
        """Completions per second over consecutive ``size`` completions."""
        size = min(size, len(self.done))
        done = np.sort(self.done)
        edges = np.concatenate([[self.t0], done[size - 1::size]])
        return size / np.diff(edges)


def check(phases: List[Phase], graph, offline: np.ndarray) -> dict:
    """Every response ok and correct; known-node rows bit-identical."""
    failed = classified = correct = 0
    for phase in phases:
        for request, response in zip(phase.requests, phase.responses):
            if not response or not response.get("ok"):
                failed += 1
                continue
            op = request["op"]
            if op == "embed" and "node" in request:
                row = np.asarray(response["embedding"], dtype=offline.dtype)
                ok = np.array_equal(row, offline[request["node"]])
            elif op == "embed":
                row = np.asarray(response["embedding"])
                ok = row.shape == offline.shape[1:] and bool(
                    np.all(np.isfinite(row)))
            elif op == "classify":
                label = response["label"]
                ok = 0 <= label < graph.num_classes
                classified += 1
                correct += int(label == graph.labels[request["node"]])
            else:
                ok = response["neighbors"] == \
                    graph.neighbors(request["node"]).tolist()
            failed += int(not ok)
    return {"failed": failed,
            "accuracy": correct / classified if classified else 0.0}


def _warm_server(registry, graph) -> EmbeddingServer:
    """Server with snapshot, classify probe and batcher thread warmed."""
    server = EmbeddingServer(registry, graph)
    server.warmup()
    warm = [{"op": "classify", "node": 0},
            {"op": "embed", "features": graph.features[0].tolist(),
             "neighbors": [1]}]
    for request in warm:
        if not server.handle(request).get("ok"):
            raise RuntimeError(f"warm-up request failed: {request}")
    return server


def _setup(workdir):
    fit_s = []

    def build():
        graph, path, child_s = prepare("cora", workdir, CHECKPOINT_EPOCHS)
        fit_s.append(child_s)
        registry = ModelRegistry()
        registry.load(path)
        return graph, registry, _warm_server(registry, graph)

    (graph, registry, server), setup_s = timed_setups(
        build, lambda built: built[2].close())
    return graph, registry, server, setup_s, calm_quartile(fit_s)


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    graph, registry, server, setup_s, fit_s = _setup(workdir)
    rng = np.random.default_rng(seed)
    rate_requests = make_requests(
        graph, rng, round(RATE_RPS * RATE_SHARE * seconds))
    saturation_requests = make_requests(
        graph, rng, round(SATURATION_RPS * (1 - RATE_SHARE) * seconds))
    offline = registry.get().artifact.embed(graph)
    if trace:
        server.close()
        return _traced(graph, registry, rate_requests, saturation_requests,
                       offline)

    with server, InProcessClient(server) as client:
        rate = Phase(client, rate_requests, RATE_RPS).run()
        saturation = Phase(client, saturation_requests, None).run()
    rss = peak_rss_mb()
    outcome = check([rate, saturation], graph, offline)
    attempted = len(rate_requests) + len(saturation_requests)
    latency = latency_summary(rate.latency, LATENCY_SLICE)
    return {
        "attempted": attempted,
        "failed": outcome["failed"],
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "ok_frac": metric((attempted - outcome["failed"]) / attempted,
                              "frac"),
            "quality": metric(outcome["accuracy"], "frac"),
            # Nothing trains while serving: the set-up child that fits the
            # served checkpoint (calm quartile of the set-ups).
            "train_s": metric(fit_s, "s"),
            "throughput_per_s": metric(calm_quartile(
                saturation.slice_rates(RATE_SLICE), "higher"), "1/s"),
            "p50_ms": metric(latency["p50_ms"], "ms"),
            "tail_ms": metric(latency["tail_ms"], "ms"),
        },
        "details": {
            "rate_rps": RATE_RPS,
            "rate_requests": len(rate_requests),
            "saturation_requests": len(saturation_requests),
            "latency": latency,
            "generator_late_p99_ms": float(np.percentile(rate.late, 99) * 1e3),
        },
    }


def _traced(graph, registry, rate_requests, saturation_requests,
            offline) -> dict:
    # The untraced baseline runs both phases too, so that its saturation
    # phase meets the same warm LRU as the traced one.
    with _warm_server(registry, graph) as server, \
            InProcessClient(server) as client:
        Phase(client, rate_requests, RATE_RPS).run()
        untraced = Phase(client, saturation_requests, None).run()

    recorder = SpanRecorder()
    with instrument(recorder):
        with _warm_server(registry, graph) as server, \
                InProcessClient(server) as client:
            recorder.reset()
            hits, misses = server.metrics.cache_hits, server.metrics.cache_misses
            rate = Phase(client, rate_requests, RATE_RPS, recorder).run()
            saturation = Phase(client, saturation_requests, None,
                               recorder).run()
            hits = server.metrics.cache_hits - hits
            misses = server.metrics.cache_misses - misses
    recorder.assert_closed()
    table = layer_table(recorder.spans)
    outcome = check([rate, saturation], graph, offline)
    extras = {
        "serve.resilience.admitted": recorder.tallies["admitted"],
        "serve.resilience.shed": recorder.tallies["shed"],
        "serve.store.lru_hit_frac": hits / max(hits + misses, 1),
        "gen.late_p99_ms": float(np.percentile(rate.late, 99) * 1e3),
        "trace.coverage": coverage(table, ROOT_SPAN),
        "trace.overhead_frac": saturation.wall_s / untraced.wall_s - 1.0,
    }
    return {
        "attempted": len(rate_requests) + len(saturation_requests),
        "failed": outcome["failed"],
        "metrics": per_layer_metrics(table, extras),
        "table": table,
        "wall_s": rate.wall_s + saturation.wall_s,
        "spans": recorder.spans,
        "details": {"untraced_saturation_s": untraced.wall_s,
                    "traced_saturation_s": saturation.wall_s},
    }
