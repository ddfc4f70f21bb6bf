"""Child process: a workload's set-up, run in a fresh interpreter.

Usage: python3 perfbench/prepare.py --dataset cora --graph-out graph.pkl
       [--epochs 8 --checkpoint ckpt.npz]

Builds the workload's graph and pickles it for the measuring process and,
with ``--epochs``, fits the GRACE checkpoint that serve and stream load.
A fresh interpreter makes every set-up pay for starting Python and
importing the package, as a user's own process would; the fit's transient
memory (the 2k-node stream graph's all-pairs contrast peaks near 1 GB)
stays out of the measuring process's ``peak_rss_mb``.

Each workload runs on one fixed graph, as the paper's experiments run on
fixed datasets, and serve and stream on one fixed checkpoint; ``--seed``
drives what repeated runs vary (training seeds, traffic, delta logs), so
the graph-level work stays comparable across seeds.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import get_method  # noqa: E402
from repro.engine import PeriodicCheckpoint  # noqa: E402
from repro.graphs import Graph, load_dataset  # noqa: E402
from repro.graphs.generators import attributed_graph  # noqa: E402

GRAPH_SEED = 0
FIT_SEED = 0

#: The paper's Cora analogue at x1.0 (700 nodes).
CORA_SCALE = 1.0

#: Dynamic-SBM analogue for the replay: large enough that a 2-hop blast
#: radius stays a small share of the graph (same shape as bench_stream.py).
STREAM_GRAPH = dict(num_nodes=2000, num_classes=8, num_features=32,
                    avg_degree=4.0, homophily=0.8)


def make_graph(name: str) -> Graph:
    if name == "cora":
        return load_dataset("cora", seed=GRAPH_SEED, scale=CORA_SCALE)
    if name == "stream-sbm":
        return attributed_graph(seed=GRAPH_SEED, name="stream-sbm",
                                **STREAM_GRAPH)
    raise ValueError(f"unknown benchmark graph {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--graph-out", type=Path, required=True)
    parser.add_argument("--epochs", type=int, default=0)
    parser.add_argument("--checkpoint", type=Path)
    args = parser.parse_args()
    graph = make_graph(args.dataset)
    with args.graph_out.open("wb") as out:
        pickle.dump(graph, out, protocol=pickle.HIGHEST_PROTOCOL)
    if args.epochs:
        method = get_method("grace", epochs=args.epochs, seed=FIT_SEED)
        method.fit(graph, hooks=[PeriodicCheckpoint(args.checkpoint,
                                                    every=args.epochs)])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
