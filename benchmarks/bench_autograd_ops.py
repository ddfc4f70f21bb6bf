"""Per-op micro-benchmarks for the autograd performance core.

Measures, per shape tier (forward + backward each time):

* **fused vs unfused vs seed** — each fused kernel against the op chain
  it replaced.  For the headline GCN-propagate kernel the table carries
  three variants: the *seed chain* (the pre-PR op semantics, kept
  verbatim below the way ``bench_micro_hotpaths.py`` keeps
  ``_seed_loop_sample``: eager ``csr.T.tocsr()`` on every forward,
  copy-on-accumulate), the *unfused chain* (today's
  ``relu(add(spmm(A, X), b))`` — itself already improved by this PR's
  donate/transpose-cache work), and the *fused* ``spmm_bias_act``;
* **float32 vs float64** — the fused GCN-propagate kernel at both
  precisions (same shapes, same graph);
* **backward memory** — a small two-layer training graph stepped
  repeatedly: wall time and the per-step transient allocation peak
  (tracemalloc), which ``Tensor.backward`` bounds by dropping each
  intermediate gradient once its closure has consumed it.

Multi-MB timings are hostage to glibc allocator state (dynamic mmap
threshold, heap trimming), so every section runs in its own subprocess
after a deterministic allocator warm-up — the numbers are reproducible
process-to-process, which in-process ordering is not.

Writes ``BENCH_autograd.json`` at the repo root and
``benchmarks/results/autograd.txt`` (injected into EXPERIMENTS.md by
``benchmarks/collect_results.py``).  Run with::

    PYTHONPATH=src python benchmarks/bench_autograd_ops.py

``REPRO_BENCH_TRIALS`` controls repetitions (best-of, default 5).

The exit status gates two claims: fused ``spmm_bias_act`` must beat the
seed chain by >= 1.5x on the GCN-layer tier, and the backward-memory
step's transient peak must stay within 10% of :data:`PEAK_REFERENCE_BYTES`.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor, ops
from repro.autograd import default_dtype
from repro.bench import bench_trials

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_autograd.json"
TXT_PATH = ROOT / "benchmarks" / "results" / "autograd.txt"

#: (label, nodes, feature dim, average degree).  The middle tier is the
#: shape a hidden GCN layer sees on a mid-size graph — the regime the
#: fused kernels target (several-MB activations, where the unfused
#: chain's intermediate allocations dominate the sparse product).
SPMM_TIERS: List[Tuple[str, int, int, int]] = [
    ("small", 500, 32, 3),
    ("gcn-layer", 3000, 128, 4),
    ("wide", 3000, 256, 4),
]

#: (label, rows, feature dim) for the dense-layer kernel.
DENSE_TIERS: List[Tuple[str, int, int]] = [
    ("small", 500, 32),
    ("large", 2000, 128),
]

#: Per-step transient peak (bytes) of the backward-memory step, as first
#: recorded when backward passes recycled their gradient buffers through a
#: pool.  Dropping consumed gradients must keep the peak within 10% of it.
PEAK_REFERENCE_BYTES = 8_357_643


def _warm_allocator() -> None:
    """Churn freed blocks from 8 KB to 8 MB through the heap.

    glibc's mmap threshold adapts upward as freed mmap'd chunks are
    observed; a cold process serves every multi-MB array via
    mmap/munmap, paying kernel page faults on each benchmark rep.  A
    long-lived training run reaches the warmed state within its first
    epochs — this reproduces it deterministically.
    """
    for size in (2 ** 13, 2 ** 16, 2 ** 19, 2 ** 20, 2 ** 21, 2 ** 22, 2 ** 23):
        for _ in range(50):
            block = np.empty(size // 8)
            block[0] = 1.0
            del block


def _best_of(fn: Callable[[], None], trials: int, reps: int = 40) -> float:
    """Best mean-of-``reps`` seconds over ``trials`` attempts."""
    fn()  # warm-up: caches (CSR transpose), allocator, BLAS threads
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def _spmm_problem(n: int, d: int, deg: int, dtype=np.float64):
    rng = np.random.default_rng(0)
    adj = sp.random(n, n, density=deg / n, random_state=1, format="csr")
    adj = adj.astype(dtype)
    x = rng.normal(size=(n, d)).astype(dtype)
    b = rng.normal(size=(d,)).astype(dtype)
    seed = rng.normal(size=(n, d)).astype(dtype)
    return adj, x, b, seed


def _seed_chain_spmm_bias_relu(adj, x, b, seed_grad):
    """The seed autograd's ``relu(add(spmm(A, X), b))`` forward+backward,
    expression for expression: the seed ``spmm`` transposed the matrix
    eagerly on every forward (``csr.T.tocsr()``) and every gradient
    accumulation copied (``self.grad = grad.copy()``).  Kept verbatim as
    the pre-PR baseline the fused-kernel speedup is tracked against."""
    csr_t = adj.T.tocsr()                 # spmm forward: eager transpose
    pre = np.asarray(adj @ x)
    summed = pre + b                      # add forward
    mask = summed > 0                     # relu forward
    out = summed * mask
    root = np.asarray(seed_grad, dtype=out.dtype).copy()   # root accumulate
    g_relu = root * mask                  # relu backward
    g_add = g_relu.copy()                 # accumulate into the add node
    g_bias = g_relu.sum(axis=0).copy()    # unbroadcast + accumulate (bias)
    g_pre = g_add.copy()                  # accumulate into the spmm node
    g_dense = (csr_t @ g_pre).copy()      # spmm backward + leaf accumulate
    return out, g_dense, g_bias


def bench_spmm_tier(label: str, n: int, d: int, deg: int, trials: int) -> dict:
    adj, x, b, seed = _spmm_problem(n, d, deg)

    def seed_chain():
        _seed_chain_spmm_bias_relu(adj, x, b, seed)

    def unfused():
        t = Tensor(x, requires_grad=True)
        bias = Tensor(b, requires_grad=True)
        ops.relu(ops.add(ops.spmm(adj, t), bias)).backward(seed)

    def fused():
        t = Tensor(x, requires_grad=True)
        bias = Tensor(b, requires_grad=True)
        ops.spmm_bias_act(adj, t, bias=bias, activation="relu").backward(seed)

    seed_s = _best_of(seed_chain, trials)
    unfused_s = _best_of(unfused, trials)
    fused_s = _best_of(fused, trials)
    return {
        "op": "spmm_bias_act",
        "label": label,
        "nodes": n,
        "dim": d,
        "degree": deg,
        "seed_seconds": seed_s,
        "unfused_seconds": unfused_s,
        "fused_seconds": fused_s,
        "speedup_vs_seed": seed_s / max(fused_s, 1e-12),
        "speedup": unfused_s / max(fused_s, 1e-12),
    }


def bench_linear_tier(label: str, n: int, d: int, trials: int) -> dict:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, d))
    b = rng.normal(size=(d,))
    seed = rng.normal(size=(n, d))

    def unfused():
        t = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bias = Tensor(b, requires_grad=True)
        ops.relu(ops.add(ops.matmul(t, wt), bias)).backward(seed)

    def fused():
        t = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bias = Tensor(b, requires_grad=True)
        ops.linear_act(t, wt, bias=bias, activation="relu").backward(seed)

    unfused_s = _best_of(unfused, trials)
    fused_s = _best_of(fused, trials)
    return {
        "op": "linear_act",
        "label": label,
        "rows": n,
        "dim": d,
        "unfused_seconds": unfused_s,
        "fused_seconds": fused_s,
        "speedup": unfused_s / max(fused_s, 1e-12),
    }


def bench_dtype(trials: int) -> List[dict]:
    """Fused GCN-propagate kernel at float32 vs float64."""
    results = []
    for label, n, d, deg in SPMM_TIERS[1:]:
        timings = {}
        for dtype in (np.float64, np.float32):
            adj, x, b, seed = _spmm_problem(n, d, deg, dtype=dtype)
            with default_dtype(dtype):

                def step():
                    t = Tensor(x, requires_grad=True)
                    bias = Tensor(b, requires_grad=True)
                    ops.spmm_bias_act(
                        adj, t, bias=bias, activation="relu"
                    ).backward(seed)

                timings[np.dtype(dtype).name] = _best_of(step, trials)
        results.append({
            "label": label,
            "nodes": n,
            "dim": d,
            "float64_seconds": timings["float64"],
            "float32_seconds": timings["float32"],
            "speedup": timings["float64"] / max(timings["float32"], 1e-12),
        })
    return results


def _gcn_step_factory(n: int = 2000, d_in: int = 64, d_hidden: int = 64):
    """A two-layer fused training graph, the shape of one GCN forward."""
    rng = np.random.default_rng(0)
    adj = sp.random(n, n, density=4 / n, random_state=1, format="csr")
    x = rng.normal(size=(n, d_in))
    w1 = Tensor(rng.normal(size=(d_in, d_hidden)), requires_grad=True)
    b1 = Tensor(np.zeros(d_hidden), requires_grad=True)
    w2 = Tensor(rng.normal(size=(d_hidden, d_hidden)), requires_grad=True)
    b2 = Tensor(np.zeros(d_hidden), requires_grad=True)
    params = [w1, b1, w2, b2]

    def step():
        h = ops.spmm_bias_act(adj, ops.linear_act(Tensor(x), w1, bias=b1),
                              activation="relu")
        out = ops.spmm_bias_act(adj, ops.linear_act(h, w2, bias=b2))
        ops.sum(ops.mul(out, out)).backward()
        for p in params:
            p.zero_grad()

    return step


def bench_backward_memory(trials: int, steps: int = 30, window: int = 10) -> dict:
    """Wall time and steady-state transient allocation peak of one step.

    tracemalloc only tracks *live* blocks, so a snapshot diff misses
    transient churn entirely; the meaningful measure is the per-step
    transient **peak** (``peak - current_before``) in steady state — the
    bytes the step had to allocate on top of what stays live.
    """
    step = _gcn_step_factory()

    def run():
        for _ in range(steps):
            step()

    seconds = _best_of(run, trials, 1) / steps

    tracemalloc.start()
    step()  # warm the allocator
    peaks = []
    for _ in range(window):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        step()
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
    tracemalloc.stop()

    return {
        "steps": steps,
        "graph": "2-layer fused GCN-shaped graph (n=2000, d=64)",
        "seconds_per_step": seconds,
        "transient_peak_bytes": sum(peaks) / len(peaks),
        "peak_bound_bytes": 1.10 * PEAK_REFERENCE_BYTES,
    }


# ----------------------------------------------------------------------
# Section driver: each section runs in its own subprocess so heap state
# from one measurement cannot tilt another.
# ----------------------------------------------------------------------
def run_section(name: str, trials: int):
    _warm_allocator()
    if name == "spmm":
        return [bench_spmm_tier(label, n, d, deg, trials)
                for label, n, d, deg in SPMM_TIERS]
    if name == "linear":
        return [bench_linear_tier(label, n, d, trials)
                for label, n, d in DENSE_TIERS]
    if name == "dtype":
        return bench_dtype(trials)
    if name == "backward_memory":
        return bench_backward_memory(trials)
    raise ValueError(f"unknown section {name!r}")


def _section_subprocess(name: str) -> object:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--section", name],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def run_autograd() -> dict:
    results = {
        "benchmark": "autograd",
        "trials": bench_trials(default=5),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    results["fused"] = _section_subprocess("spmm") + _section_subprocess("linear")
    results["dtype"] = _section_subprocess("dtype")
    results["backward_memory"] = _section_subprocess("backward_memory")
    return results


def render_autograd(results: dict) -> str:
    lines = [f"=== Autograd per-op benchmarks (best of {results['trials']}) ==="]
    lines.append("op                   | tier      | seed (ms) | unfused (ms) | fused (ms) | vs seed | vs unfused")
    lines.append("-" * len(lines[-1]))
    for row in results["fused"]:
        seed_ms = (f"{row['seed_seconds'] * 1e3:>9.3f}"
                   if "seed_seconds" in row else "        -")
        vs_seed = (f"{row['speedup_vs_seed']:.2f}x"
                   if "speedup_vs_seed" in row else "-")
        lines.append(
            f"{row['op']:<20} | {row['label']:<9} | {seed_ms} | "
            f"{row['unfused_seconds'] * 1e3:>12.3f} | "
            f"{row['fused_seconds'] * 1e3:>10.3f} | {vs_seed:>7} | {row['speedup']:.2f}x"
        )
    lines.append("")
    lines.append("dtype (fused spmm_bias_act) | f64 (ms) | f32 (ms) | speedup")
    for row in results["dtype"]:
        lines.append(
            f"{row['label']} (n={row['nodes']}, d={row['dim']})".ljust(27)
            + f" | {row['float64_seconds'] * 1e3:>8.3f}"
            + f" | {row['float32_seconds'] * 1e3:>8.3f}"
            + f" | {row['speedup']:.2f}x"
        )
    m = results["backward_memory"]
    lines.append("")
    lines.append(f"backward memory ({m['graph']}, {m['steps']} steps):")
    lines.append(f"  per-step: {m['seconds_per_step'] * 1e3:.3f} ms")
    lines.append(
        f"  transient peak per step (tracemalloc): "
        f"{m['transient_peak_bytes'] / 1e6:.2f} MB "
        f"(bound {m['peak_bound_bytes'] / 1e6:.2f} MB)"
    )
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--section":
        print(json.dumps(run_section(sys.argv[2], bench_trials(default=5))))
        return 0

    results = run_autograd()
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    text = render_autograd(results)
    TXT_PATH.parent.mkdir(exist_ok=True)
    TXT_PATH.write_text(text + "\n")
    print(text)
    print(f"wrote {JSON_PATH.relative_to(ROOT)} and {TXT_PATH.relative_to(ROOT)}")

    gcn_tier = next(
        r for r in results["fused"]
        if r["op"] == "spmm_bias_act" and r["label"] == "gcn-layer"
    )
    ok_speed = gcn_tier["speedup_vs_seed"] >= 1.5
    memory = results["backward_memory"]
    ok_alloc = memory["transient_peak_bytes"] <= memory["peak_bound_bytes"]
    print(("[OK ] " if ok_speed else "[MISS] ")
          + f"fused spmm_bias_act {gcn_tier['speedup_vs_seed']:.2f}x vs seed chain "
          f"({gcn_tier['speedup']:.2f}x vs current unfused ops) on gcn-layer")
    print(("[OK ] " if ok_alloc else "[MISS] ")
          + f"backward transient peak {memory['transient_peak_bytes'] / 1e6:.2f} MB "
          f"<= {memory['peak_bound_bytes'] / 1e6:.2f} MB")
    return 0 if (ok_speed and ok_alloc) else 1


if __name__ == "__main__":
    raise SystemExit(main())
