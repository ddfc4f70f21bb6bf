"""Encoder-agnostic views and model checkpointing.

Two extension features working together:

1. Sec. IV-C's *Remarks* note that E2GCL's edge/feature scores depend only
   on raw graph data — any GNN encoder can consume the generated views.
   Here the default GCN is swapped for a GAT.
2. A pre-training run writes a v2 engine checkpoint, which
   ``export_encoder`` turns into a frozen encoder artifact, then applied to
   a *different* graph with the same feature space (transfer).

    python examples/encoder_swap_and_checkpoint.py
"""

import os
import tempfile

import numpy as np

from repro import load_dataset
from repro.baselines import get_method
from repro.core import E2GCLConfig, E2GCLTrainer
from repro.core.serialization import export_encoder
from repro.engine import PeriodicCheckpoint
from repro.eval import evaluate_embeddings
from repro.nn import GAT


def main() -> None:
    graph = load_dataset("cora", seed=0)

    # --- 1. Same E2GCL pipeline, GAT encoder -------------------------
    config = E2GCLConfig(epochs=25, loss="euclidean", embedding_dim=32)
    gat = GAT(graph.num_features, config.hidden_dim, config.embedding_dim, seed=0)
    trainer = E2GCLTrainer(graph, config, encoder=gat)
    result = trainer.train()
    gat_acc = evaluate_embeddings(graph, trainer.embed(), trials=3).test_accuracy
    print(f"E2GCL + GAT encoder: accuracy {gat_acc} "
          f"(final loss {result.final_loss:.4f})")

    # --- 2. Checkpoint the standard model and transfer ----------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e2gcl_cora.npz")
        method = get_method("e2gcl", epochs=30, seed=0)
        method.fit(graph, hooks=[PeriodicCheckpoint(path, every=30)])
        base_acc = evaluate_embeddings(graph, method.embed(graph), trials=3).test_accuracy
        print(f"E2GCL + GCN encoder: accuracy {base_acc}; checkpoint -> {path}")

        artifact = export_encoder(path)
    same = np.array_equal(artifact.embed(graph), method.embed(graph))
    print(f"Exported encoder reproduces embeddings exactly: {same}")

    # Transfer: embed a different draw of the same domain without retraining.
    other = load_dataset("cora", seed=123)
    transferred = evaluate_embeddings(other, artifact.embed(other), trials=3).test_accuracy
    print(f"Zero-shot transfer to a fresh graph: accuracy {transferred}")


if __name__ == "__main__":
    main()
