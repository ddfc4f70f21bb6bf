"""Benchmark runner: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-e2gcl-cora --seed 0 \
        --seconds 25 --trace 0

Workloads: ``train-e2gcl-cora``, ``serve-mixed``, ``stream-replay`` (see
each ``*_workload.py`` for what it runs and why).  ``--trace 0`` measures
the end-to-end metrics with no instrumentation; ``--trace 1`` runs one
untraced and one traced unit, prints per-layer self time, coverage and
tracing overhead, and writes the spans to ``perfbench/traces/``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries details (environment, tail
percentile and sample counts).  The exit code is non-zero when a
correctness check fails or the program under test cannot be imported.
"""

import os

# BLAS/OpenMP pools are pinned before numpy loads (here and in the set-up
# child, which inherits the environment): with two cores, a second BLAS
# thread competes with the server's own threads and the numbers wander.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "train-e2gcl-cora": "train_workload",
    "serve-mixed": "serve_workload",
    "stream-replay": "stream_workload",
}


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{name:<36}{entry['value']:>14.6g} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"program under test not found: {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import environment, host_reference_ms
    from tracing import render_table

    workload = importlib.import_module(WORKLOADS[args.workload])
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    host_ref_ms = [host_reference_ms()]
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace),
                              workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host_ref_ms.append(host_reference_ms())

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment(), "host_ref_ms": host_ref_ms,
               **result["details"]}
    if args.trace:
        print(render_table(result["table"], result["wall_s"]))
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as out:
            for span in result["spans"]:
                out.write(json.dumps(asdict(span)) + "\n")
        details["spans_file"] = str(path.relative_to(HERE.parent))
    _print_metrics(result["metrics"])
    correct = result["failed"] == 0
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
