"""Inject recorded benchmark artifacts into EXPERIMENTS.md.

Replaces each ``<!-- MEASURED:<key> -->`` marker with the corresponding
``benchmarks/results/<key>.txt`` content (fenced as code).  Idempotent:
previously injected blocks are replaced, not duplicated.

Before injection, ``BENCH_hotpaths.json`` (written by
``benchmarks/bench_micro_hotpaths.py`` at the repo root) is aggregated into
``benchmarks/results/hotpaths.txt`` so the hot-path timings flow into
EXPERIMENTS.md through the same marker mechanism.

    python benchmarks/collect_results.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
HOTPATHS_JSON = ROOT / "BENCH_hotpaths.json"
SERVE_JSON = ROOT / "BENCH_serve.json"
AUTOGRAD_JSON = ROOT / "BENCH_autograd.json"
CONTRAST_JSON = ROOT / "BENCH_contrast.json"
SCALE_JSON = ROOT / "BENCH_scale.json"
STREAM_JSON = ROOT / "BENCH_stream.json"


def aggregate_hotpaths() -> bool:
    """Render ``BENCH_hotpaths.json`` into ``results/hotpaths.txt``.

    Standalone (no ``repro`` import) so artifact collection works without
    ``PYTHONPATH`` setup.  Returns False when the JSON has not been
    generated yet.
    """
    if not HOTPATHS_JSON.exists():
        return False
    data = json.loads(HOTPATHS_JSON.read_text())
    scales = data["scales"]
    header = ["metric"] + [
        f"{s['label']} ({s['dataset']}, n={s['num_nodes']})" for s in scales
    ]
    rows = [
        ("score table (s)", ["%.4f" % s["score_table_seconds"] for s in scales]),
        ("view pair (s)", ["%.4f" % s["global_view_pair_seconds"] for s in scales]),
        ("sampler vectorized (s)", ["%.4f" % s["sampler_vectorized_seconds"] for s in scales]),
        ("sampler seed loop (s)", ["%.4f" % s["sampler_seed_loop_seconds"] for s in scales]),
        ("sampler speedup", ["%.1fx" % s["sampler_speedup"] for s in scales]),
        ("selection (s)", ["%.4f" % s["coreset_selection_seconds"] for s in scales]),
    ]
    widths = [
        max(len(header[0]), max(len(r[0]) for r in rows)),
        *(
            max(len(header[i + 1]), max(len(r[1][i]) for r in rows))
            for i in range(len(scales))
        ),
    ]
    lines = [f"=== Hot-path micro-benchmarks (best of {data['trials']}) ==="]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("-" * len(lines[-1]))
    for name, cells in rows:
        lines.append(
            " | ".join(c.ljust(w) for c, w in zip([name] + cells, widths)).rstrip()
        )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "hotpaths.txt").write_text("\n".join(lines) + "\n")
    return True

def aggregate_serve() -> bool:
    """Render ``BENCH_serve.json`` into ``results/serve.txt``.

    Standalone (no ``repro`` import), mirroring :func:`aggregate_hotpaths`.
    Returns False when the JSON has not been generated yet.
    """
    if not SERVE_JSON.exists():
        return False
    data = json.loads(SERVE_JSON.read_text())
    throughput = data["throughput"]
    latency = data["latency"]
    dataset = data["dataset"]
    column = (f"{dataset['name']} x{dataset['scale']} "
              f"(n={dataset['num_nodes']}, conc={throughput['concurrency']})")
    rows = [
        ("batched (req/s)", "%.0f" % throughput["batched_rps"]),
        ("unbatched (req/s)", "%.0f" % throughput["unbatched_rps"]),
        ("batching speedup", "%.1fx" % throughput["batching_speedup"]),
        ("batch occupancy", "%.1f" % throughput["mean_batch_occupancy"]),
        ("open-loop burst (req/s)", "%.0f" % throughput["open_loop_rps"]),
        ("warm p50/p99 (ms)", "%.3f / %.3f" % (
            latency["warm"]["p50_ms"], latency["warm"]["p99_ms"])),
        ("cold p50/p99 (ms)", "%.3f / %.3f" % (
            latency["cold_inductive"]["p50_ms"],
            latency["cold_inductive"]["p99_ms"])),
        ("cold/warm p99 ratio", "%.0fx" % latency["warm_cold_p99_ratio"]),
        ("served == offline", "bit-identical"
         if data["consistency"]["bit_identical"] else "MISMATCH"),
    ]
    overload = data.get("overload")  # absent in pre-resilience JSON
    if overload:
        hot = overload["overloaded"]
        over_ds = overload["dataset"]
        rows += [
            ("overload graph", "%s x%s (n=%d)" % (
                over_ds["name"], over_ds["scale"], over_ds["num_nodes"])),
            ("saturated goodput (req/s)",
             "%.0f" % overload["saturated"]["goodput_rps"]),
            ("overload offered (req/s)", "%.0f" % hot["offered_actual_rps"]),
            ("overload goodput (req/s)", "%.0f" % hot["goodput_rps"]),
            ("overload shed rate", "%.0f%%" % (100 * hot["shed_rate"])),
            ("overload p99 (ms)", "%.1f" % hot["p99_ms_under_overload"]),
            ("goodput retained",
             "%.0f%%" % (100 * overload["goodput_over_saturated"])),
        ]
    name_width = max(len("metric"), max(len(r[0]) for r in rows))
    cell_width = max(len(column), max(len(r[1]) for r in rows))
    lines = [f"=== Serving benchmarks (best of {data['trials']}) ==="]
    lines.append(f"{'metric'.ljust(name_width)} | {column.ljust(cell_width)}".rstrip())
    lines.append("-" * len(lines[-1]))
    for name, cell in rows:
        lines.append(f"{name.ljust(name_width)} | {cell.ljust(cell_width)}".rstrip())
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "serve.txt").write_text("\n".join(lines) + "\n")
    return True


def aggregate_autograd() -> bool:
    """Render ``BENCH_autograd.json`` into ``results/autograd.txt``.

    Standalone (no ``repro`` import), mirroring :func:`aggregate_hotpaths`.
    Returns False when the JSON has not been generated yet.
    """
    if not AUTOGRAD_JSON.exists():
        return False
    data = json.loads(AUTOGRAD_JSON.read_text())
    lines = [f"=== Autograd per-op benchmarks (best of {data['trials']}) ==="]
    header = ("op                   | tier      | seed (ms) | unfused (ms) | "
              "fused (ms) | vs seed | vs unfused")
    lines.append(header)
    lines.append("-" * len(header))
    for row in data["fused"]:
        seed_ms = ("%9.3f" % (row["seed_seconds"] * 1e3)
                   if "seed_seconds" in row else "        -")
        vs_seed = ("%.2fx" % row["speedup_vs_seed"]
                   if "speedup_vs_seed" in row else "-")
        lines.append(
            "%-20s | %-9s | %s | %12.3f | %10.3f | %7s | %.2fx" % (
                row["op"], row["label"], seed_ms,
                row["unfused_seconds"] * 1e3, row["fused_seconds"] * 1e3,
                vs_seed, row["speedup"],
            )
        )
    lines.append("")
    lines.append("dtype (fused spmm_bias_act) | f64 (ms) | f32 (ms) | speedup")
    for row in data["dtype"]:
        label = "%s (n=%d, d=%d)" % (row["label"], row["nodes"], row["dim"])
        lines.append("%-27s | %8.3f | %8.3f | %.2fx" % (
            label, row["float64_seconds"] * 1e3, row["float32_seconds"] * 1e3,
            row["speedup"],
        ))
    m = data["backward_memory"]
    lines.append("")
    lines.append("backward memory (%s, %d steps):" % (m["graph"], m["steps"]))
    lines.append("  per-step: %.3f ms" % (m["seconds_per_step"] * 1e3))
    lines.append(
        "  transient peak per step (tracemalloc): %.2f MB (bound %.2f MB)" % (
            m["transient_peak_bytes"] / 1e6, m["peak_bound_bytes"] / 1e6,
        )
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "autograd.txt").write_text("\n".join(lines) + "\n")
    return True


def aggregate_contrast() -> bool:
    """Render ``BENCH_contrast.json`` into ``results/contrast.txt``.

    Standalone (no ``repro`` import), mirroring :func:`aggregate_hotpaths`.
    Returns False when the JSON has not been generated yet.
    """
    if not CONTRAST_JSON.exists():
        return False
    data = json.loads(CONTRAST_JSON.read_text())
    sweep = data["sweep"]
    dataset = sweep["dataset"]
    lines = [
        f"=== Contrast layer: negative-count sweep "
        f"({dataset['name']} x{dataset['scale']}, n={dataset['num_nodes']}, "
        f"{sweep['epochs']} epochs) ==="
    ]
    header = "method | k    | test acc        | fit (s)"
    lines.append(header)
    lines.append("-" * len(header))
    for row in sweep["rows"]:
        lines.append("%-6s | %-4s | %.4f +- %.4f | %7.2f" % (
            row["method"], row["k"], row["test_acc"], row["test_std"],
            row["fit_seconds"],
        ))
    alignment = data["alignment"]
    lines.append("")
    lines.append(
        f"k={alignment['k']} vs all-pairs mean embedding cosine "
        f"({alignment['dataset']['name']} x{alignment['dataset']['scale']}, "
        f"n={alignment['dataset']['num_nodes']}):"
    )
    for name, value in alignment["methods"].items():
        lines.append(f"  {name}: {value:.4f}")
    step = data["step_speedup"]
    lines.append("")
    lines.append(
        f"single InfoNCE step at n={step['num_nodes']}, d={step['dim']} "
        f"(forward+backward, best of {data['trials']}):"
    )
    lines.append(f"  dense all-pairs: {step['dense_seconds']:.3f}s")
    for row in step["sampled"]:
        lines.append(f"  uniform k={row['k']}: {row['seconds']:.3f}s "
                     f"({row['speedup']:.0f}x)")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "contrast.txt").write_text("\n".join(lines) + "\n")
    return True


def aggregate_scale() -> bool:
    """Render ``BENCH_scale.json`` into ``results/scale.txt``.

    Standalone (no ``repro`` import), mirroring :func:`aggregate_hotpaths`.
    Returns False when the JSON has not been generated yet.
    """
    if not SCALE_JSON.exists():
        return False
    data = json.loads(SCALE_JSON.read_text())
    graph = data["graph"]
    part = data["partition"]
    train = data["training"]
    fallback = data["fallback"]
    lines = [
        f"=== Scale layer: sampled training at "
        f"{train['scale_factor']:.0f}x the dense limit ===",
        f"graph: {graph['name']} n={graph['num_nodes']:,} "
        f"m={graph['num_edges']:,} (built in {graph['build_seconds']:.2f}s)",
        f"partition ({part['parts']} parts): {part['seconds']:.2f}s, "
        f"edge_cut={part['edge_cut']:.3f}, balance={part['balance']:.3f}",
    ]
    for run in data["propagate"]["runs"]:
        lines.append(
            f"A^{data['propagate']['hops']} X @ {run['budget_mb']} MB chunk "
            f"budget: {run['seconds']:.2f}s, transient peak "
            f"{run['transient_peak_mb']:.1f} MB "
            f"({run['rows_per_chunk']:,} rows/chunk)")
    lines.append(
        f"sampled e2gcl ({train['epochs']} epochs, batch={train['batch_size']},"
        f" fanouts={train['fanouts']}, {train['view_mode']} views, "
        f"{train['anchor_budget']:,} anchors): "
        f"{train['seconds_per_epoch']:.2f}s/epoch, transient peak "
        f"{train['transient_peak_mb']:.1f} MB, "
        f"final loss {train['final_loss']:.4f}")
    lines.append(
        f"dense-fallback trajectory diff ({fallback['dataset']}, "
        f"{fallback['epochs']} epochs): {fallback['max_abs_loss_diff']} "
        + ("(bit-identical)" if fallback["bit_identical"] else "(MISMATCH)"))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "scale.txt").write_text("\n".join(lines) + "\n")
    return True


def aggregate_stream() -> bool:
    """Render ``BENCH_stream.json`` into ``results/stream.txt``.

    Standalone (no ``repro`` import), mirroring :func:`aggregate_hotpaths`.
    Returns False when the JSON has not been generated yet.
    """
    if not STREAM_JSON.exists():
        return False
    data = json.loads(STREAM_JSON.read_text())
    throughput = data["throughput"]
    replay = throughput["replay"]
    precision = data["invalidation"]
    warm = data["warm_rows"]
    dataset = data["dataset"]
    column = (f"{dataset['name']} (n={dataset['num_nodes']}, "
              f"m={dataset['num_edges']}, L={data['model']['hops']})")
    rows = [
        ("raw apply (deltas/s)",
         "%.0f" % throughput["raw_apply_deltas_per_s"]),
        ("e2e replay (deltas/s)", "%.0f" % replay["deltas_per_s"]),
        ("replay probes failed", "%d" % replay["probe_failures"]),
        ("invalidated rows/batch", "%d" % precision["invalidated_rows"]),
        ("invalidation precision", "%.0f%%" % (100 * precision["precision"])),
        ("invalidation recall", "%.0f%%" % (100 * precision["recall"])),
        ("graph invalidated/batch",
         "%.1f%%" % (100 * precision["graph_fraction_invalidated"])),
        ("warm-row hit rate", "%.0f%%" % (100 * warm["warm_hit_rate"])),
        ("  of which LRU", "%.0f%%" % (100 * warm["lru_hit_rate"])),
        ("churn before read", "%d deltas" % warm["churn_deltas"]),
    ]
    name_width = max(len("metric"), max(len(r[0]) for r in rows))
    cell_width = max(len(column), max(len(r[1]) for r in rows))
    lines = [f"=== Streaming benchmarks (best of {data['trials']}) ==="]
    lines.append(
        f"{'metric'.ljust(name_width)} | {column.ljust(cell_width)}".rstrip())
    lines.append("-" * len(lines[-1]))
    for name, cell in rows:
        lines.append(
            f"{name.ljust(name_width)} | {cell.ljust(cell_width)}".rstrip())
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "stream.txt").write_text("\n".join(lines) + "\n")
    return True


BLOCK_TEMPLATE = "<!-- MEASURED:{key} -->\n```text\n{body}\n```\n<!-- /MEASURED:{key} -->"
PATTERN = re.compile(
    r"<!-- MEASURED:(?P<key>[\w]+) -->(?:\n```text\n.*?\n```\n<!-- /MEASURED:(?P=key) -->)?",
    re.DOTALL,
)


def main() -> int:
    if aggregate_hotpaths():
        print("aggregated BENCH_hotpaths.json -> results/hotpaths.txt")
    if aggregate_serve():
        print("aggregated BENCH_serve.json -> results/serve.txt")
    if aggregate_autograd():
        print("aggregated BENCH_autograd.json -> results/autograd.txt")
    if aggregate_contrast():
        print("aggregated BENCH_contrast.json -> results/contrast.txt")
    if aggregate_scale():
        print("aggregated BENCH_scale.json -> results/scale.txt")
    if aggregate_stream():
        print("aggregated BENCH_stream.json -> results/stream.txt")
    text = EXPERIMENTS.read_text()
    missing = []

    def replace(match: re.Match) -> str:
        key = match.group("key")
        path = RESULTS / f"{key}.txt"
        if not path.exists():
            missing.append(key)
            return match.group(0)
        body = path.read_text().strip()
        return BLOCK_TEMPLATE.format(key=key, body=body)

    updated = PATTERN.sub(replace, text)
    EXPERIMENTS.write_text(updated)
    injected = len(PATTERN.findall(text)) - len(missing)
    print(f"injected {injected} artifacts into {EXPERIMENTS.name}"
          + (f"; missing: {missing}" if missing else ""))
    return 0 if not missing else 1


if __name__ == "__main__":
    raise SystemExit(main())
