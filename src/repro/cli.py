"""Command-line interface.

Usage::

    python -m repro list-datasets
    python -m repro list-methods
    python -m repro list-experiments
    python -m repro train --dataset cora --method e2gcl --epochs 40
    python -m repro train --dataset cora --method e2gcl --trace run.jsonl
    python -m repro select --dataset computers --ratio 0.1
    python -m repro trace run.jsonl
    python -m repro stream --generate 500 --out deltas.jsonl --dataset cora
    python -m repro stream --replay deltas.jsonl --checkpoint ckpt.npz

``train`` pre-trains a method and reports linear-eval accuracy; ``select``
runs Alg. 2 standalone and prints coreset statistics; ``trace`` summarizes
a JSONL trace written by ``train --trace`` (slowest spans, per-epoch
metrics).  Benchmarks are run through pytest
(``pytest benchmarks/ --benchmark-only``), not the CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _cmd_list_datasets(_args) -> int:
    from .graphs import dataset_names, get_spec, tu_dataset_names

    print("node-classification datasets (synthetic analogues):")
    for name in dataset_names():
        spec = get_spec(name)
        print(f"  {name:10s} {spec.num_nodes:>6d} nodes, {spec.num_classes:>3d} classes "
              f"(paper: {spec.paper_nodes} nodes)")
    print("graph-classification datasets:")
    for name in tu_dataset_names():
        print(f"  {name}")
    return 0


def _cmd_list_methods(_args) -> int:
    from .baselines import available_methods

    for name in available_methods():
        print(name)
    return 0


def _cmd_list_experiments(_args) -> int:
    from .bench import EXPERIMENTS

    for key, exp in EXPERIMENTS.items():
        print(f"{key:10s} {exp.artifact:12s} {exp.title}")
        print(f"{'':10s} -> benchmarks/{exp.bench_file}")
    return 0


def _cmd_train(args) -> int:
    from .baselines import MethodConfig, get_method
    from .engine import EarlyStopping, PeriodicCheckpoint
    from .eval import evaluate_embeddings
    from .graphs import load_dataset

    graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    print(f"dataset: {graph}")
    config = MethodConfig(
        epochs=args.epochs,
        seed=args.seed,
        objective=args.objective,
        negatives=args.negatives,
        neg_k=args.neg_k,
    )
    scale_kwargs = {}
    if getattr(args, "sampled", False):
        if args.method != "e2gcl":
            print("--sampled only supports the e2gcl method", file=sys.stderr)
            return 2
        scale_kwargs["sampled"] = True
        if args.batch_size is not None:
            scale_kwargs["batch_size"] = args.batch_size
        if args.fanouts:
            scale_kwargs["fanouts"] = [
                None if tok in ("none", "full") else int(tok)
                for tok in args.fanouts.lower().split(",")
            ]
        if args.local_views:
            scale_kwargs["view_mode"] = "local"
        if args.anchors != "coreset":
            scale_kwargs["anchor_mode"] = args.anchors
        if args.partition_parts is not None:
            scale_kwargs["partition_parts"] = args.partition_parts
    method = get_method(args.method, **config.method_kwargs(), **scale_kwargs)
    hooks = []
    recovering = args.guard == "recover"
    if args.guard != "off":
        from .resilience import HealthGuard

        # Guard must run before AutoRecovery so a failure signalled at
        # epoch N is seen before recovery decides whether to checkpoint.
        hooks.append(HealthGuard(policy=args.guard))
    if recovering:
        from .resilience import AutoRecovery, CheckpointManager

        ckpt_dir = args.checkpoint or f"{args.method}-{args.dataset}-ckpts"
        manager = CheckpointManager(ckpt_dir, keep=args.keep_checkpoints)
        hooks.append(AutoRecovery(manager, every=args.checkpoint_every,
                                  max_retries=args.max_retries))
    elif args.checkpoint:
        hooks.append(PeriodicCheckpoint(args.checkpoint, every=args.checkpoint_every))
    if args.patience:
        hooks.append(EarlyStopping(args.patience))
    resume_from = args.resume
    if resume_from is not None:
        resume_from = _resolve_resume(resume_from)
        if resume_from is None:
            print(f"no valid checkpoint found under {args.resume}", file=sys.stderr)
            return 2
    tracer = None
    if args.trace:
        from .obs import MetricsHook, TraceHook, Tracer, build_manifest

        tracer = Tracer(args.trace)
        # Activate here (not in the hook) so the post-fit linear eval below
        # is traced too; TraceHook sees an active tracer and leaves
        # ownership with us.
        tracer.activate()
        manifest = build_manifest(
            config=vars(args), seed=args.seed, graph=graph,
            extra={"method": args.method},
        )
        hooks.append(TraceHook(tracer, manifest=manifest))
        hooks.append(MetricsHook(tracer))
    try:
        method.fit(graph, hooks=hooks, resume_from=resume_from)
        if recovering:
            print(f"recovering checkpoints under {ckpt_dir} "
                  f"(keep {args.keep_checkpoints}, every {args.checkpoint_every} epochs)")
            if method.last_loop is not None:
                for entry in method.last_loop.history.recoveries:
                    print(f"recovered: epoch {entry['failed_epoch']} -> "
                          f"{entry['resume_epoch']} ({entry['reason']})")
        elif args.checkpoint:
            print(f"engine checkpoint at {args.checkpoint} "
                  f"(every {args.checkpoint_every} epochs)")
        stop = method.last_loop.stop_reason if method.last_loop is not None else None
        if stop:
            print(stop)
        result = evaluate_embeddings(graph, method.embed(graph), seed=args.seed,
                                     trials=args.trials)
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace}")
    print(f"{args.method}: accuracy {result.test_accuracy} "
          f"(fit {method.info.seconds:.1f}s)")
    if args.save:
        if args.method != "e2gcl":
            print("--save only supports the e2gcl method", file=sys.stderr)
            return 2
        written = method.last_loop.save_checkpoint(args.save)
        print(f"checkpoint written to {written}")
    return 0


def _resolve_resume(target):
    """Resolve ``--resume``: a file is used as-is, a directory is searched
    for its newest digest-valid checkpoint (corrupt files are skipped)."""
    from pathlib import Path

    from .engine import find_latest_valid

    path = Path(target)
    if path.is_dir():
        return find_latest_valid(path)
    if not path.is_file():
        return None
    return path


def _build_server(args):
    """Shared serve/query setup: dataset + registry + server + client."""
    from .graphs import load_dataset
    from .serve import (
        EmbeddingServer,
        InProcessClient,
        ModelRegistry,
        ServeError,
    )

    graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    registry = ModelRegistry()
    try:
        version = registry.load(args.checkpoint)
    except ServeError as exc:
        print(f"cannot load model: {exc}", file=sys.stderr)
        return None
    server = EmbeddingServer(
        registry, graph,
        use_batching=not args.no_batching,
        cache_size=args.cache_size,
        snapshot_dir=args.snapshot_dir,
        max_batch=args.max_batch,
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
    )
    retry = None
    if args.retries > 0:
        from .serve import RetryPolicy

        retry = RetryPolicy(max_retries=args.retries, seed=args.seed)
    return graph, version, server, InProcessClient(server, retry=retry)


def _cmd_serve(args) -> int:
    import json

    built = _build_server(args)
    if built is None:
        return 2
    graph, version, server, client = built
    print(f"serving {version.version_id} ({version.step_class}) over {graph}")
    try:
        server.warmup()
        if args.rollout:
            from .serve import RolloutError

            try:
                rollout = server.start_rollout(args.rollout)
            except RolloutError as exc:
                print(f"rollout rejected: {exc}", file=sys.stderr)
                return 2
            print(f"rollout: shadowing {rollout.candidate_id} against "
                  f"{rollout.active_id} "
                  f"(promote after {rollout.min_shadow} healthy reads)")
        if args.requests:
            # In-process transport: one JSON request per line, answers on
            # stdout — the socket-free path the integration tests drive.
            with open(args.requests) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except ValueError as exc:
                        payload = {"_unparseable": str(exc)}
                    print(json.dumps(client.request(payload)))
            return 0
        from .serve import build_http_server

        httpd = build_http_server(server, host=args.host, port=args.port)
        host, port = httpd.server_address[:2]
        print(f"listening on http://{host}:{port}/query (POST JSON; ctrl-c to stop)")
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            httpd.server_close()
        return 0
    finally:
        client.close()
        server.close()


def _cmd_query(args) -> int:
    import json

    built = _build_server(args)
    if built is None:
        return 2
    _, _, server, client = built
    request = {"op": args.op}
    if args.node is not None:
        request["node"] = args.node
    if args.features is not None:
        try:
            request["features"] = json.loads(args.features)
        except ValueError as exc:
            print(f"--features must be a JSON array: {exc}", file=sys.stderr)
            client.close()
            server.close()
            return 2
    if args.neighbors is not None:
        try:
            request["neighbors"] = json.loads(args.neighbors)
        except ValueError as exc:
            print(f"--neighbors must be a JSON array: {exc}", file=sys.stderr)
            client.close()
            server.close()
            return 2
    try:
        response = client.request(request)
    finally:
        client.close()
        server.close()
    print(json.dumps(response, indent=None))
    return 0 if response.get("ok") else 1


def _cmd_stream(args) -> int:
    import json

    from .stream import DeltaGenerator, DeltaLog, replay_log

    if args.generate is not None:
        if args.out is None:
            print("--generate needs --out <log.jsonl>", file=sys.stderr)
            return 2
        from .graphs import load_dataset

        graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
        generator = DeltaGenerator(graph, seed=args.seed)
        with DeltaLog(args.out) as log:
            log.extend(generator.generate(args.generate))
        print(f"wrote {log.written} deltas to {args.out} "
              f"(dataset {graph.name}, {graph.num_nodes} nodes)")
        return 0
    if args.checkpoint is None:
        print("--replay needs --checkpoint", file=sys.stderr)
        return 2
    built = _build_server(args)
    if built is None:
        return 2
    graph, version, server, client = built
    print(f"replaying {args.replay} against {version.version_id} "
          f"({version.step_class}) over {graph}")
    try:
        server.warmup()
        summary = replay_log(
            server, args.replay,
            batch_size=args.delta_batch,
            probes_per_batch=args.probes,
            checkpoint=version.path if args.finetune else None,
            workdir=args.workdir if args.finetune else None,
            extra_epochs=args.finetune_epochs,
            drift_threshold=args.drift_threshold,
            drift_min_samples=args.drift_min_samples,
            start_seq=args.start_seq,
            seed=args.seed,
        )
    finally:
        client.close()
        server.close()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2))
        print(f"summary written to {args.out}")
    print(json.dumps({k: v for k, v in summary.items() if k != "batches"},
                     indent=2))
    return 1 if summary["probe_failures"] else 0


def _add_serve_common(parser, require_checkpoint: bool = True) -> None:
    parser.add_argument("--checkpoint", required=require_checkpoint,
                        default=None,
                        help="engine checkpoint file, or a directory searched "
                             "for its newest digest-valid checkpoint")
    parser.add_argument("--dataset", default="cora")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cache-size", type=int, default=4096)
    parser.add_argument("--snapshot-dir", default=None,
                        help="persist digest-validated embedding snapshots here")
    parser.add_argument("--no-batching", action="store_true",
                        help="disable request microbatching")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--rate-limit", type=float, default=None,
                        help="admission: shed workload ops beyond this req/s")
    parser.add_argument("--burst", type=float, default=None,
                        help="admission: token-bucket burst headroom")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="admission: concurrent-request watermark; "
                             "requests beyond it are shed, not queued")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="default per-request latency budget; expired "
                             "work is dropped, never computed")
    parser.add_argument("--retries", type=int, default=0,
                        help="client-side retries (capped backoff + jitter) "
                             "for shed idempotent requests")


def _cmd_trace(args) -> int:
    from .obs import render_summary, summarize_trace

    try:
        summary = summarize_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.path}: {exc}", file=sys.stderr)
        return 2
    print(render_summary(summary, top=args.top))
    return 0


def _cmd_select(args) -> int:
    from .core import select_coreset
    from .graphs import load_dataset

    graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    budget = max(2, int(round(args.ratio * graph.num_nodes)))
    result = select_coreset(graph, budget=budget, num_clusters=args.clusters,
                            sample_size=args.samples,
                            rng=np.random.default_rng(args.seed))
    print(f"dataset: {graph}")
    print(f"selected {result.budget} nodes in {result.selection_seconds:.2f}s "
          f"(RS = {result.representativity:.2f})")
    print(f"weights: min={result.weights.min():.0f} "
          f"max={result.weights.max():.0f} sum={result.weights.sum():.0f}")
    if graph.labels is not None:
        hist = np.bincount(graph.labels[result.selected], minlength=graph.num_classes)
        print(f"class histogram of coreset: {hist.tolist()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets").set_defaults(func=_cmd_list_datasets)
    sub.add_parser("list-methods").set_defaults(func=_cmd_list_methods)
    sub.add_parser("list-experiments").set_defaults(func=_cmd_list_experiments)

    train = sub.add_parser("train", help="pre-train a method and linear-evaluate it")
    train.add_argument("--dataset", default="cora")
    train.add_argument("--method", default="e2gcl")
    train.add_argument("--epochs", type=int, default=40)
    train.add_argument("--trials", type=int, default=3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--scale", type=float, default=1.0)
    train.add_argument("--dtype", choices=["float32", "float64"], default="float64",
                       help="process-wide tensor precision (float32 halves "
                            "memory traffic; see docs/PERFORMANCE.md)")
    train.add_argument("--objective", default=None,
                       choices=["infonce", "jsd", "barlow", "bootstrap",
                                "margin", "euclidean"],
                       help="contrast objective (default: the method's paper "
                            "objective; see docs/CONTRAST.md)")
    train.add_argument("--negatives", default="all",
                       choices=["all", "uniform", "hard"],
                       help="negative sampler: all pairs (dense), uniform-k "
                            "subsampling (O(n*k)), or top-k hard mining")
    train.add_argument("--neg-k", type=int, default=64,
                       help="negatives per anchor for --negatives uniform/hard")
    train.add_argument("--sampled", action="store_true",
                       help="train e2gcl on neighbor-sampled mini-batches "
                            "(repro.scale; see docs/SCALE.md)")
    train.add_argument("--batch-size", type=int, default=None,
                       help="anchors per mini-batch for --sampled "
                            "(default: all anchors in one batch)")
    train.add_argument("--fanouts", default=None,
                       help="comma list of per-hop neighbor budgets for "
                            "--sampled, outermost first (e.g. '10,5'; "
                            "'full' keeps a hop exact)")
    train.add_argument("--local-views", action="store_true",
                       help="per-block view corruption instead of global "
                            "Alg. 3 views (--sampled; sublinear per epoch)")
    train.add_argument("--anchors", choices=["coreset", "uniform", "all"],
                       default="coreset",
                       help="anchor selection for --sampled (default coreset)")
    train.add_argument("--partition-parts", type=int, default=None,
                       help="batch anchors by BFS partition part "
                            "(--sampled; Cluster-GCN-style locality)")
    train.add_argument("--save", default=None, help="write a v2 .npz checkpoint (e2gcl only)")
    train.add_argument("--checkpoint", default=None,
                       help="write a resumable engine checkpoint (.npz, any method)")
    train.add_argument("--checkpoint-every", type=int, default=10,
                       help="epochs between --checkpoint writes")
    train.add_argument("--resume", default=None,
                       help="resume from an engine checkpoint, or from the newest "
                            "valid checkpoint when given a directory")
    train.add_argument("--patience", type=int, default=None,
                       help="early-stop after N epochs without loss improvement")
    train.add_argument("--guard", choices=["off", "warn", "raise", "recover"],
                       default="off",
                       help="numerical health guard policy (recover adds "
                            "checkpoint rollback + retry)")
    train.add_argument("--max-retries", type=int, default=3,
                       help="recovery attempts before giving up (--guard recover)")
    train.add_argument("--keep-checkpoints", type=int, default=3,
                       help="checkpoints retained by the recovery manager")
    train.add_argument("--trace", default=None,
                       help="write a JSONL run trace (spans, metrics, manifest)")
    train.set_defaults(func=_cmd_train)

    serve = sub.add_parser(
        "serve", help="serve embedding/classification queries from a checkpoint")
    _add_serve_common(serve)
    serve.add_argument("--requests", default=None,
                       help="answer JSONL requests from this file in-process "
                            "(one JSON object per line) instead of binding HTTP")
    serve.add_argument("--rollout", default=None,
                       help="candidate checkpoint to roll out blue/green "
                            "next to the active model (shadow traffic, "
                            "auto-promote/auto-rollback)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8071,
                       help="HTTP port (0 picks an ephemeral port)")
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query", help="answer one serving query in-process (no server needed)")
    _add_serve_common(query)
    query.add_argument("--op", default="embed",
                       choices=["embed", "classify", "neighbors", "models", "stats"])
    query.add_argument("--node", type=int, default=None)
    query.add_argument("--features", default=None,
                       help="JSON array: unseen-node feature vector")
    query.add_argument("--neighbors", default=None,
                       help="JSON array: unseen-node neighbor ids")
    query.set_defaults(func=_cmd_query)

    stream = sub.add_parser(
        "stream", help="generate a delta log, or replay one against a live "
                       "server (incremental mutation + blast-radius "
                       "invalidation + optional drift-triggered fine-tune)")
    mode = stream.add_mutually_exclusive_group(required=True)
    mode.add_argument("--generate", type=int, metavar="N", default=None,
                      help="generate N seeded dynamic-SBM deltas into --out")
    mode.add_argument("--replay", metavar="LOG", default=None,
                      help="JSONL delta log to replay against a live server")
    _add_serve_common(stream, require_checkpoint=False)
    stream.add_argument("--out", default=None,
                        help="generate: the JSONL log to write; "
                             "replay: also write the run summary JSON here")
    stream.add_argument("--delta-batch", type=int, default=32,
                        help="deltas applied per batch during replay")
    stream.add_argument("--probes", type=int, default=4,
                        help="embed probe requests issued after each batch")
    stream.add_argument("--start-seq", type=int, default=None,
                        help="skip log records below this seq (resume)")
    stream.add_argument("--finetune", action="store_true",
                        help="answer drift with an online fine-tune + "
                             "blue/green rollout of the result")
    stream.add_argument("--finetune-epochs", type=int, default=1,
                        help="extra epochs per drift-triggered fine-tune")
    stream.add_argument("--drift-threshold", type=float, default=0.9,
                        help="window-mean cosine below which the stream "
                             "counts as drifted")
    stream.add_argument("--drift-min-samples", type=int, default=8)
    stream.add_argument("--workdir", default="stream-finetune",
                        help="where fine-tuned checkpoints land (--finetune)")
    stream.set_defaults(func=_cmd_stream)

    trace = sub.add_parser("trace", help="summarize a JSONL trace from train --trace")
    trace.add_argument("path", help="trace file written by train --trace")
    trace.add_argument("--top", type=int, default=12,
                       help="number of slowest spans to show")
    trace.set_defaults(func=_cmd_trace)

    select = sub.add_parser("select", help="run Alg. 2 coreset selection standalone")
    select.add_argument("--dataset", default="cora")
    select.add_argument("--ratio", type=float, default=0.4)
    select.add_argument("--clusters", type=int, default=60)
    select.add_argument("--samples", type=int, default=300)
    select.add_argument("--seed", type=int, default=0)
    select.add_argument("--scale", type=float, default=1.0)
    select.set_defaults(func=_cmd_select)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    dtype = getattr(args, "dtype", None)
    if dtype is not None:
        from .autograd import set_default_dtype

        set_default_dtype(dtype)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
