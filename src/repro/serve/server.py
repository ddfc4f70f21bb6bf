"""Serving front end: request dispatch, thread pool, transports.

:class:`EmbeddingServer` is transport-agnostic: ``handle(dict) -> dict``
implements the whole query protocol, and the two bundled transports — an
in-process client (tests, CLI, benchmarks; zero sockets) and a stdlib
``http.server`` JSON endpoint — are thin shells around it.

Protocol (one JSON object per request)::

    {"op": "embed",     "node": 7}                    # known node
    {"op": "embed",     "features": [...],
                        "neighbors": [3, 9]}          # unseen node (splice)
    {"op": "classify",  "node": 7}                    # frozen linear probe
    {"op": "neighbors", "node": 7}
    {"op": "models"} | {"op": "stats"}
    {"op": "health"} | {"op": "ready"}                # resilience state
    {"op": "rollout", "candidate": "ckpt.npz"}        # blue/green start
    {"op": "rollout_status"} | {"op": "rollback"}

Any request may pin ``"version": "<id>"`` (omitted means latest) and may
carry ``"deadline_ms": <budget>`` — a latency budget checked at admission,
at batcher dequeue, and pre-encode, so expired work is dropped instead of
computed.  Workload ops (``embed``/``classify``/``neighbors``) pass
through admission control first: a saturated server *sheds* them with a
structured ``overloaded`` envelope carrying ``retry_after_ms`` rather than
queueing without bound.  Control ops (``models``/``stats``/``health``/
``ready``/rollout management) always get through, so an overloaded or
draining server stays observable and steerable.

All failures are structured (:mod:`repro.serve.errors`): a malformed
payload gets a 400-shaped dict, an unknown node a 404, a stale version a
409, a shed request a 503 with a retry hint, a blown deadline a 504 — and
anything *else* escaping an op is a server bug that is wrapped into a 500
``internal`` envelope (exception type only, never a traceback).  The
server never dies on a bad query and never swallows one either;
``tools/lint.py`` lints the op dispatchers so every
client-visible error goes through :mod:`repro.serve.errors`.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..graphs import Graph
from ..nn import LogisticRegressionDecoder
from ..obs import emit_event, span
from .batcher import MicroBatcher
from .errors import (
    DeadlineExceededError,
    MalformedQueryError,
    OverloadedError,
    RolloutError,
    ServeError,
    UnknownOpError,
    error_response,
    internal_error,
)
from .inductive import EgoQuery, InductiveEncoder
from .metrics import ServeMetrics
from .registry import ModelRegistry, ModelVersion
from .resilience import (
    AdmissionController,
    Deadline,
    RetryPolicy,
    ServerHealth,
    request_with_retries,
)
from .rollout import SHADOWING, ModelRollout
from .store import EmbeddingStore


class EmbeddingServer:
    """Online query engine over a registry of frozen models.

    Parameters
    ----------
    registry, graph:
        The models to serve and the base graph they answer against.
    use_cache:
        Route known-node ``embed``/``classify`` through the embedding
        store (snapshot + LRU).  Off, every query takes the cold inductive
        path — the bench uses this to isolate cache and batching effects.
    use_batching:
        Coalesce inductive encodes through the :class:`MicroBatcher`.
        Batches wait for company only while admission control is at its
        ``max_inflight`` watermark.
    probe_epochs / probe_seed:
        Training budget for the frozen linear probe head backing
        ``classify`` (fit lazily, once per model version).
    rate_limit / burst / max_inflight / retry_after_ms:
        Admission control: a token bucket (``rate_limit`` req/s with
        ``burst`` headroom) and an inflight watermark gate.  Either gate
        rejecting sheds the request with an ``overloaded`` envelope whose
        ``retry_after_ms`` tells clients how long to back off.  All
        ``None`` (the default) admits everything but still counts
        admissions, so the shed-rate health signal stays live.
    default_deadline_ms:
        Budget applied to workload requests that carry no ``deadline_ms``
        of their own (``None`` means no implicit deadline).
    shed_rate_threshold / p99_watermark_ms / health_window:
        :class:`ServerHealth` degradation signals (see
        :mod:`repro.serve.resilience`).
    """

    #: op name -> bound dispatcher method.  The envelope meta-test walks
    #: this table; ``tools/lint.py`` lints every method
    #: it names (plus the dispatch helpers) for errors.py-only raises.
    OPS: Dict[str, str] = {
        "embed": "_op_embed",
        "classify": "_op_classify",
        "neighbors": "_op_neighbors",
        "models": "_op_models",
        "stats": "_op_stats",
        "health": "_op_health",
        "ready": "_op_ready",
        "rollout": "_op_rollout",
        "rollout_status": "_op_rollout_status",
        "rollback": "_op_rollback",
    }

    #: Ops that cost encoder/store work and therefore pass admission
    #: control; everything else is a control-plane read that must keep
    #: working on an overloaded or draining server.
    WORKLOAD_OPS = frozenset({"embed", "classify", "neighbors"})

    def __init__(
        self,
        registry: ModelRegistry,
        graph: Graph,
        use_cache: bool = True,
        use_batching: bool = True,
        cache_size: int = 4096,
        snapshot_dir: Optional[Union[str, Path]] = None,
        max_batch: int = 32,
        probe_epochs: int = 200,
        probe_seed: int = 0,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        max_inflight: Optional[int] = None,
        retry_after_ms: float = 50.0,
        default_deadline_ms: Optional[float] = None,
        shed_rate_threshold: float = 0.5,
        p99_watermark_ms: Optional[float] = None,
        health_window: int = 256,
    ):
        self.registry = registry
        self.graph = graph
        self.use_cache = use_cache
        self.use_batching = use_batching
        self.metrics = ServeMetrics()
        self.health = ServerHealth(
            self.metrics, shed_rate_threshold=shed_rate_threshold,
            p99_watermark_ms=p99_watermark_ms, window=health_window,
        )
        self.admission = AdmissionController(
            rate_limit=rate_limit, burst=burst, max_inflight=max_inflight,
            metrics=self.metrics, retry_after_ms=retry_after_ms,
        )
        self.default_deadline_ms = default_deadline_ms
        self.store = EmbeddingStore(
            registry, graph, cache_size=cache_size,
            snapshot_dir=snapshot_dir, metrics=self.metrics,
            health=self.health,
        )
        # Stale rows invalidated by a graph mutation heal through the
        # inductive union-block path — exact at every seed, so a lazily
        # repaired row equals a full offline embed of the mutated graph.
        self.store.set_row_computer(self._compute_rows)
        self.probe_epochs = probe_epochs
        self.probe_seed = probe_seed
        self._encoders: Dict[str, InductiveEncoder] = {}
        self._probes: Dict[str, LogisticRegressionDecoder] = {}
        self._lock = threading.Lock()
        self._rollout: Optional[ModelRollout] = None
        self._closed = False
        self._batcher: Optional[MicroBatcher] = None
        if use_batching:
            self._batcher = MicroBatcher(
                self._encode_batch, max_batch=max_batch, metrics=self.metrics,
                saturated=self.admission.saturated,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def warmup(self, version_id: Optional[str] = None) -> None:
        """Materialize a version's snapshot and mark the server ready.

        Optional — the first successful workload response also flips
        warming → ready — but an operator who warms up before putting the
        server behind traffic gets a cold-path-free p99 from request one.
        """
        if self.use_cache:
            self.store.snapshot(version_id)
        self.health.mark_ready()

    def rebind_graph(self, graph: Graph,
                     refreshed_nodes=None) -> None:
        """Swap the served graph for a mutated successor (streaming path).

        Rebinds the store (resident snapshots padded for added nodes, disk
        snapshots disabled) and every cached inductive encoder (degrees
        re-derive, ``H0`` patched incrementally; ``refreshed_nodes`` are
        the rows whose features a delta batch rewrote).  Fitted probes
        drop — they were trained on old-graph embeddings and refit lazily.
        Warm store rows stay untouched: invalidating the blast radius is
        the caller's job (see :mod:`repro.stream`).
        """
        self.graph = graph
        self.store.rebind_graph(graph)
        with self._lock:
            encoders = list(self._encoders.values())
            self._probes.clear()
        for encoder in encoders:
            encoder.rebind_graph(graph, refreshed_rows=refreshed_nodes)
        emit_event("serve.server_rebind", num_nodes=graph.num_nodes)

    def _compute_rows(self, version_id: str, nodes: np.ndarray) -> np.ndarray:
        """Row computer installed into the store for stale-row repair."""
        return self._encoder(self.registry.get(version_id)).encode_nodes(nodes)

    def drain(self) -> dict:
        """Graceful shutdown: stop admitting, flush the batcher, persist.

        After this, workload ops are rejected with a ``not_ready``
        envelope; control ops still answer (a draining server must stay
        observable until the process exits).
        """
        with span("serve.drain"):
            self.health.start_drain()
            if self._batcher is not None:
                self._batcher.close()
            persisted = self.store.persist_all()
        emit_event("serve.drained", persisted_snapshots=int(persisted))
        return {"persisted_snapshots": int(persisted)}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.drain()

    def __enter__(self) -> "EmbeddingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Per-version components
    # ------------------------------------------------------------------
    def _encoder(self, version: ModelVersion) -> InductiveEncoder:
        with self._lock:
            enc = self._encoders.get(version.version_id)
            if enc is None:
                enc = InductiveEncoder(version.artifact, self.graph)
                self._encoders[version.version_id] = enc
            return enc

    def _probe(self, version: ModelVersion) -> LogisticRegressionDecoder:
        """The frozen classification head for a version (fit on demand)."""
        with self._lock:
            probe = self._probes.get(version.version_id)
        if probe is not None:
            return probe
        if self.graph.labels is None:
            raise MalformedQueryError(
                "classify needs a labeled graph; the served graph has no labels"
            )
        embeddings = self.store.snapshot(version.version_id)
        with span("serve.probe_fit", version=version.version_id):
            fitted = LogisticRegressionDecoder(
                num_features=embeddings.shape[1],
                num_classes=self.graph.num_classes,
                epochs=self.probe_epochs,
                seed=self.probe_seed,
            ).fit(embeddings, self.graph.labels)
        with self._lock:
            # First fit wins so concurrent classifies share one head.
            return self._probes.setdefault(version.version_id, fitted)

    # ------------------------------------------------------------------
    # Encoding paths
    # ------------------------------------------------------------------
    def _encode_batch(self, items: List[tuple]) -> List[object]:
        """Microbatch handler: ``(version_id, payload, deadline)`` triples.

        Grouped by model version (one block-diagonal forward per version
        per batch); per-item failures come back as exception slots so one
        bad splice cannot fail its batchmates.  The pre-encode deadline
        check lives here: an item whose budget expired between dequeue and
        this point is dropped (exception slot), never encoded — the
        ``encoded_requests`` counter tallies only work that truly reached
        the forward pass.
        """
        results: List[object] = [None] * len(items)
        groups: Dict[str, List[int]] = {}
        for i, (version_id, _, _) in enumerate(items):
            groups.setdefault(version_id, []).append(i)
        for version_id, indices in groups.items():
            encoder = self._encoder(self.registry.get(version_id))
            # Validate individually so a malformed item fails alone and the
            # rest of the group still encodes as one batch.
            valid: List[int] = []
            for i in indices:
                _, payload, deadline = items[i]
                if deadline is not None and deadline.expired:
                    self.metrics.observe_deadline_expired("pre_encode")
                    results[i] = DeadlineExceededError(
                        f"deadline of {deadline.budget_ms:.0f}ms expired "
                        "before encode", stage="pre_encode",
                        budget_ms=deadline.budget_ms,
                    )
                    continue
                try:
                    if isinstance(payload, EgoQuery):
                        encoder.validate_query(payload)
                    else:
                        encoder._check_node(payload)
                except ServeError as exc:
                    results[i] = exc
                else:
                    valid.append(i)
            if not valid:
                continue
            encoded = encoder.encode_batch([items[i][1] for i in valid])
            self.metrics.observe_encoded(len(valid))
            for i, emb in zip(valid, encoded):
                results[i] = emb
        return results

    def _inductive_embed(self, version: ModelVersion, payload,
                         deadline: Optional[Deadline] = None) -> np.ndarray:
        """Cold-path embedding (known node id or :class:`EgoQuery`)."""
        if self._batcher is not None:
            future = self._batcher.submit(
                (version.version_id, payload, deadline), deadline=deadline)
            return future.result()
        if deadline is not None:
            deadline.check("pre_encode", self.metrics)
        encoder = self._encoder(version)
        self.metrics.observe_encoded()
        if isinstance(payload, EgoQuery):
            return encoder.encode_unseen(payload)
        return encoder.encode_node(payload)

    def _embedding_for(self, version: ModelVersion, request: dict,
                       deadline: Optional[Deadline] = None) -> np.ndarray:
        if "features" in request or "neighbors" in request:
            if "node" in request:
                raise MalformedQueryError(
                    "give either 'node' (known) or 'features'+'neighbors' "
                    "(unseen), not both"
                )
            if "features" not in request:
                raise MalformedQueryError(
                    "an unseen-node query needs 'features'"
                )
            neighbors = request.get("neighbors", [])
            if not isinstance(neighbors, list) or any(
                    isinstance(v, bool) or not isinstance(v, (int, np.integer))
                    for v in neighbors):
                raise MalformedQueryError(
                    "'neighbors' must be a flat list of integer node ids")
            try:
                query = EgoQuery(
                    features=np.asarray(request["features"], dtype=np.float64),
                    neighbors=np.asarray(neighbors, dtype=np.int64),
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedQueryError(
                    f"cannot parse unseen-node query: {exc}"
                ) from exc
            if not version.inductive:
                raise MalformedQueryError(
                    f"model {version.version_id} is transductive "
                    f"({version.artifact.kind}); unseen-node queries need an "
                    "inductive encoder"
                )
            return self._inductive_embed(version, query, deadline)
        if "node" not in request:
            raise MalformedQueryError("embed needs 'node' or 'features'")
        node = request["node"]
        if self.use_cache or not version.inductive:
            if deadline is not None:
                deadline.check("pre_encode", self.metrics)
            return self.store.embedding(node, version.version_id)
        return self._inductive_embed(version, node, deadline)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def handle(self, request: object) -> dict:
        """Answer one request dict; never raises — every failure, client-
        or server-attributable, comes back as a structured envelope."""
        start = time.perf_counter()
        op = "invalid"
        ticket = None
        try:
            if not isinstance(request, dict):
                raise MalformedQueryError(
                    f"request must be a JSON object, got {type(request).__name__}"
                )
            op_field = request.get("op")
            if not isinstance(op_field, str):
                raise MalformedQueryError("request needs a string 'op' field")
            op = op_field
            version_id = request.get("version")
            if version_id is not None and not isinstance(version_id, str):
                raise MalformedQueryError("'version' must be a string")
            deadline = self._parse_deadline(request)
            if op in self.WORKLOAD_OPS:
                self.health.check_admitting()
                try:
                    ticket = self.admission.admit(op)
                except OverloadedError:
                    self.health.note_outcome(shed=True)
                    raise
                self.health.note_outcome(shed=False)
                if deadline is not None:
                    deadline.check("admission", self.metrics)
            response = self._dispatch(op, version_id, request, deadline)
        except ServeError as exc:
            self.metrics.observe_error(exc.code)
            self.metrics.observe(op, time.perf_counter() - start)
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - mapped to a 500 envelope
            # A server bug must not tear down the transport thread or leak
            # a traceback to the client; it lands in the obs stream and
            # comes back as a structured ``internal`` envelope.
            emit_event("serve.internal_error", op=op,
                       type=type(exc).__name__, message=str(exc))
            self.metrics.observe_error("internal")
            self.metrics.observe(op, time.perf_counter() - start)
            return internal_error(exc)
        finally:
            if ticket is not None:
                ticket.release()
        self.metrics.observe(op, time.perf_counter() - start)
        if op in self.WORKLOAD_OPS:
            self.health.mark_ready()
        response["ok"] = True
        response["op"] = op
        return response

    def _parse_deadline(self, request: dict) -> Optional[Deadline]:
        raw = request.get("deadline_ms", self.default_deadline_ms)
        if raw is None:
            return None
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise MalformedQueryError(
                f"'deadline_ms' must be a number, got {type(raw).__name__}")
        try:
            return Deadline(float(raw))
        except ValueError as exc:
            raise MalformedQueryError(str(exc)) from exc

    def _dispatch(self, op: str, version_id: Optional[str], request: dict,
                  deadline: Optional[Deadline]) -> dict:
        method_name = self.OPS.get(op)
        if method_name is None:
            raise UnknownOpError(
                f"unknown op {op!r}", available=sorted(self.OPS),
            )
        return getattr(self, method_name)(request, version_id, deadline)

    # ------------------------------------------------------------------
    # Op dispatchers (every raise below must be a repro.serve.errors
    # constructor — enforced by tools/lint.py)
    # ------------------------------------------------------------------
    def _op_embed(self, request: dict, version_id: Optional[str],
                  deadline: Optional[Deadline]) -> dict:
        version = self.registry.get(version_id)
        embedding = self._embedding_for(version, request, deadline)
        if "node" in request:
            self._maybe_mirror(version, request["node"], embedding)
        return {"version": version.version_id,
                "embedding": np.asarray(embedding).tolist()}

    def _op_classify(self, request: dict, version_id: Optional[str],
                     deadline: Optional[Deadline]) -> dict:
        version = self.registry.get(version_id)
        embedding = np.asarray(
            self._embedding_for(version, request, deadline))
        probe = self._probe(version)
        proba = probe.predict_proba(embedding[None, :])[0]
        return {"version": version.version_id,
                "label": int(np.argmax(proba)),
                "proba": proba.tolist()}

    def _op_neighbors(self, request: dict, version_id: Optional[str],
                      deadline: Optional[Deadline]) -> dict:
        if "node" not in request:
            raise MalformedQueryError("neighbors needs 'node'")
        node = self.store._check_node(request["node"])
        return {"node": node,
                "neighbors": self.graph.neighbors(node).tolist()}

    def _op_models(self, request: dict, version_id: Optional[str],
                   deadline: Optional[Deadline]) -> dict:
        return {"models": self.registry.describe()}

    def _op_stats(self, request: dict, version_id: Optional[str],
                  deadline: Optional[Deadline]) -> dict:
        return {"stats": self.metrics.snapshot()}

    def _op_health(self, request: dict, version_id: Optional[str],
                   deadline: Optional[Deadline]) -> dict:
        return {"health": self.health.describe()}

    def _op_ready(self, request: dict, version_id: Optional[str],
                  deadline: Optional[Deadline]) -> dict:
        return self.health.readiness()

    def _op_rollout(self, request: dict, version_id: Optional[str],
                    deadline: Optional[Deadline]) -> dict:
        candidate = request.get("candidate")
        if not isinstance(candidate, str) or not candidate:
            raise MalformedQueryError(
                "rollout needs a 'candidate' (checkpoint path or version id)")
        knobs = {}
        for key in ("shadow_fraction", "min_shadow", "cosine_threshold",
                    "max_error_rate", "seed"):
            if key not in request:
                continue
            value = request[key]
            # Typed here so a bad client value is a 4xx, not a TypeError
            # inside ModelRollout that surfaces as an internal 500.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MalformedQueryError(
                    f"{key!r} must be a number, got {type(value).__name__}")
            if key == "seed" and (not isinstance(value, int) or value < 0):
                raise MalformedQueryError(
                    f"'seed' must be a non-negative integer, got {value!r}")
            knobs[key] = value
        rollout = self.start_rollout(candidate, **knobs)
        return {"rollout": rollout.status()}

    def _op_rollout_status(self, request: dict, version_id: Optional[str],
                           deadline: Optional[Deadline]) -> dict:
        rollout = self._rollout
        return {"rollout": rollout.status() if rollout is not None else None}

    def _op_rollback(self, request: dict, version_id: Optional[str],
                     deadline: Optional[Deadline]) -> dict:
        rollout = self._rollout
        if rollout is None:
            raise RolloutError("no rollout in progress")
        return {"rollout": rollout.rollback()}

    # ------------------------------------------------------------------
    # Blue/green rollout plumbing
    # ------------------------------------------------------------------
    def start_rollout(self, candidate: Union[str, Path],
                      **knobs) -> ModelRollout:
        """Begin a blue/green rollout of ``candidate`` (path or version id).

        Raises :class:`RolloutError` when one is already shadowing, when
        the candidate cannot load (e.g. digest mismatch), or when it fails
        its snapshot health gate.
        """
        with self._lock:
            if self._rollout is not None and self._rollout.state == SHADOWING:
                raise RolloutError(
                    f"a rollout of {self._rollout.candidate_id} is already "
                    "in progress", candidate=str(candidate),
                )
        rollout = ModelRollout(self, candidate, **knobs)
        with self._lock:
            self._rollout = rollout
        return rollout

    @property
    def rollout(self) -> Optional[ModelRollout]:
        return self._rollout

    def _maybe_mirror(self, version: ModelVersion, node,
                      embedding: np.ndarray) -> None:
        """Feed one known-node read to the active rollout's shadow gate.

        Shadow-side failures are rollout signals, never client errors —
        nothing raised here may escape into the response path.
        """
        rollout = self._rollout
        if rollout is None or rollout.state != SHADOWING:
            return
        try:
            rollout.mirror(int(node), version.version_id, embedding)
        except Exception as exc:  # noqa: BLE001 - shadow path must not leak
            emit_event("serve.rollout_mirror_error",
                       type=type(exc).__name__, message=str(exc))


#: Ops a retrying client may safely resend: every read.  ``rollout`` and
#: ``rollback`` mutate registry state and are sent exactly once.
IDEMPOTENT_OPS = frozenset(EmbeddingServer.OPS) - {"rollout", "rollback"}


class InProcessClient:
    """Socket-free client: JSON round-trips requests through ``handle``.

    Serializing both ways keeps the in-process transport wire-faithful —
    anything that works here works over HTTP byte-for-byte.  With a
    :class:`RetryPolicy`, shed requests (``overloaded`` envelopes) are
    retried with capped exponential backoff + seeded jitter, honoring the
    server's ``retry_after_ms`` hint — but only for idempotent ops.
    """

    def __init__(self, server: EmbeddingServer, pool_size: int = 8,
                 retry: Optional[RetryPolicy] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.server = server
        self.retry = retry
        self._sleep = sleep
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-serve"
        )

    def _send(self, payload: object) -> dict:
        wire = json.dumps(payload)
        return json.loads(json.dumps(self.server.handle(json.loads(wire))))

    def request(self, payload: object) -> dict:
        if self.retry is None:
            return self._send(payload)
        op = payload.get("op") if isinstance(payload, dict) else None
        return request_with_retries(
            self._send, payload, self.retry,
            idempotent=op in IDEMPOTENT_OPS, sleep=self._sleep,
        )

    def submit(self, payload: object):
        """Async variant for concurrent load (returns a future)."""
        return self._pool.submit(self.request, payload)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HttpClient:
    """Minimal stdlib client for the HTTP transport, with the same retry
    semantics as :class:`InProcessClient`.

    Error envelopes ride non-200 statuses; ``urllib`` surfaces those as
    :class:`~urllib.error.HTTPError`, whose body is still the JSON
    envelope — so both success and failure decode identically and the
    retry policy sees the ``overloaded`` code either way.
    """

    def __init__(self, base_url: str, retry: Optional[RetryPolicy] = None,
                 timeout: float = 30.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.retry = retry
        self.timeout = timeout
        self._sleep = sleep

    def _send(self, payload: object) -> dict:
        body = json.dumps(payload).encode()
        req = urllib.request.Request(
            f"{self.base_url}/query", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            envelope = json.loads(exc.read().decode())
            if isinstance(envelope, dict):
                # The transport moved "status" into the HTTP status line;
                # restore it so envelopes match InProcessClient's exactly.
                envelope.setdefault("status", exc.code)
            return envelope

    def request(self, payload: object) -> dict:
        if self.retry is None:
            return self._send(payload)
        op = payload.get("op") if isinstance(payload, dict) else None
        return request_with_retries(
            self._send, payload, self.retry,
            idempotent=op in IDEMPOTENT_OPS, sleep=self._sleep,
        )


def _make_handler(server: EmbeddingServer):
    class _Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/query"):
                self._reply(404, {"ok": False, "error": {
                    "code": "not_found", "message": f"no route {self.path}",
                    "details": {}}})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length).decode())
            except (ValueError, UnicodeDecodeError) as exc:
                self._reply(400, error_response(
                    MalformedQueryError(f"request body is not JSON: {exc}")
                ))
                return
            response = server.handle(payload)
            status = 200 if response.get("ok") else int(response.pop("status", 400))
            self._reply(status, response)

        def do_GET(self):  # noqa: N802 - http.server API
            path = self.path.rstrip("/")
            if path == "/healthz":
                self._reply(200, {"ok": True,
                                  "health": server.health.describe(),
                                  "models": server.registry.versions()})
            elif path == "/readyz":
                readiness = server.health.readiness()
                ready = readiness["ready"]
                self._reply(200 if ready else 503, {"ok": ready, **readiness})
            else:
                self._reply(404, {"ok": False, "error": {
                    "code": "not_found", "message": f"no route {self.path}",
                    "details": {}}})

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):  # noqa: A003 - silence stderr chatter
            del fmt, args

    return _Handler


def build_http_server(
    server: EmbeddingServer, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ``ThreadingHTTPServer`` speaking the query protocol over POST.

    ``port=0`` binds an ephemeral port (``httpd.server_address[1]``).
    The caller owns the serve loop::

        httpd = build_http_server(server)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        ...
        httpd.shutdown()
    """
    return ThreadingHTTPServer((host, port), _make_handler(server))
