"""Model serialization: frozen encoder artifacts plus the legacy v1 format.

Two layers live here:

* :class:`EncoderArtifact` / :func:`export_encoder` — the *method-agnostic*
  frozen-encoder surface.  ``export_encoder`` accepts any v2 engine
  checkpoint (every registered method) or a legacy v1 E2GCL file and
  returns an artifact that can ``embed`` a graph: a rebuilt GCN for the
  parametric methods (dimensions are inferred from the checkpointed weight
  shapes, so no config is needed), or a transductive lookup table for the
  walk-based baselines.  Artifacts round-trip losslessly through
  :func:`save_artifact` / :func:`load_artifact` (crash-safe writes, SHA-256
  digest validated on load) — this is what ``repro.serve`` consumes.

* ``load_model`` — the reader for the legacy E2GCL-only facade format
  (v1: encoder parameters + config + coreset, no resume).  **Deprecated**:
  nothing writes v1 files any more; write v2 engine checkpoints
  (:mod:`repro.engine.checkpoint`) and rehydrate through
  :func:`export_encoder`, which reads both formats.  The v1 reader stays
  as a shim for published E2GCL model files and warns on use.
"""

from __future__ import annotations

import json
import re
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..engine import (
    CheckpointCorruptError,
    atomic_savez,
    pack_json,
    payload_digest,
    read_checkpoint,
    unpack_json,
)
from ..graphs import Graph
from ..nn import GCN
from .config import E2GCLConfig
from .model import E2GCL
from .node_selector import CoresetResult
from .trainer import TrainResult

_FORMAT_VERSION = 1
_ARTIFACT_VERSION = 1

_CONV_WEIGHT = re.compile(r"^conv_(\d+)\.weight$")


# ----------------------------------------------------------------------
# Method-agnostic frozen-encoder artifacts
# ----------------------------------------------------------------------
@dataclass
class EncoderArtifact:
    """A frozen, inference-only model extracted from a checkpoint.

    Two kinds exist:

    * ``"gcn"`` — a parametric graph encoder.  Inductive: ``embed`` works
      on any graph with the matching feature dimension, including graphs
      the model never saw (this is what the serving stack's ego-subgraph
      path relies on).
    * ``"table"`` — a transductive node-embedding lookup (DeepWalk /
      Node2Vec).  ``embed`` only answers for the graph the table was fit
      on, identified by its node count.

    ``fingerprint`` is a SHA-256 digest over the artifact's arrays, so two
    artifacts with the same fingerprint embed identically.
    """

    kind: str
    step_class: str
    fingerprint: str
    encoder: Optional[GCN] = None
    table: Optional[np.ndarray] = None
    fitted_nodes: Optional[int] = None

    @property
    def inductive(self) -> bool:
        """Whether the artifact can embed nodes/graphs it was not fit on."""
        return self.kind == "gcn"

    @property
    def embedding_dim(self) -> int:
        if self.kind == "gcn":
            return self.encoder.layers[-1].weight.shape[1]
        return self.table.shape[1]

    @property
    def in_features(self) -> Optional[int]:
        """Expected feature dimension (``None`` for table artifacts)."""
        if self.kind == "gcn":
            return self.encoder.layers[0].weight.shape[0]
        return None

    @property
    def num_layers(self) -> Optional[int]:
        """Message-passing depth — the ego radius serving must extract."""
        if self.kind == "gcn":
            return self.encoder.num_layers
        return None

    # ------------------------------------------------------------------
    def embed(self, graph: Graph) -> np.ndarray:
        """Frozen node representations for ``graph``."""
        if self.kind == "gcn":
            if graph.num_features != self.in_features:
                raise ValueError(
                    f"artifact expects {self.in_features} features, "
                    f"graph {graph.name!r} has {graph.num_features}"
                )
            return self.encoder.embed(graph)
        if graph.num_nodes != self.fitted_nodes:
            raise ValueError(
                f"table artifact is transductive: fit on {self.fitted_nodes} "
                f"nodes, graph {graph.name!r} has {graph.num_nodes}"
            )
        return self.table

    @classmethod
    def from_encoder(cls, encoder: GCN, step_class: str = "adhoc") -> "EncoderArtifact":
        """Wrap a live GCN (tests / in-memory serving without a checkpoint)."""
        return cls(
            kind="gcn",
            step_class=step_class,
            fingerprint=payload_digest(encoder.state_dict()),
            encoder=encoder,
        )


def _gcn_from_state(state: Dict[str, np.ndarray]) -> GCN:
    """Rebuild a GCN purely from its ``state_dict`` arrays.

    Dimensions are inferred from the weight shapes (``conv_0.weight`` is
    ``(in, hidden)``, the last layer's weight gives the output dim), so a
    checkpoint needs no config to be rehydrated.
    """
    indices = sorted(
        int(m.group(1)) for key in state if (m := _CONV_WEIGHT.match(key))
    )
    if not indices or indices != list(range(len(indices))):
        raise ValueError(
            f"cannot rebuild a GCN: conv layers {indices} are not contiguous "
            f"from 0 (keys: {sorted(state)})"
        )
    num_layers = len(indices)
    first = state["conv_0.weight"]
    last = state[f"conv_{num_layers - 1}.weight"]
    out_features = last.shape[1]
    hidden = first.shape[1] if num_layers > 1 else out_features
    gcn = GCN(
        in_features=first.shape[0],
        hidden_features=hidden,
        out_features=out_features,
        num_layers=num_layers,
        seed=0,
    )
    gcn.load_state_dict(state)
    return gcn


def export_encoder(
    source: Union[str, Path, Tuple[dict, Dict[str, np.ndarray]]],
) -> EncoderArtifact:
    """Extract a frozen :class:`EncoderArtifact` from any checkpoint.

    ``source`` is a v2 engine checkpoint path (any registered method), a
    legacy v1 E2GCL facade file, or an already-loaded ``(meta, arrays)``
    pair from :func:`repro.engine.read_checkpoint`.  Dispatch rules:

    * arrays with an ``encoder.*`` component → ``"gcn"`` artifact (GRACE,
      GCA, MVGRL, BGRL, AFGRL, DGI, GAE/VGAE, GraphCL, ADGCL, E2GCL);
    * arrays with an ``embeddings`` table → ``"table"`` artifact
      (DeepWalk, Node2Vec; ``fitted_nodes`` comes from the step's scalars);
    * v1 files (``param/`` keys) → ``"gcn"`` via the stored config.

    Raises :class:`~repro.engine.CheckpointCorruptError` for unreadable or
    digest-invalid files and ``ValueError`` when no encoder-like component
    exists in the checkpoint.
    """
    if isinstance(source, tuple):
        meta, arrays = source
    else:
        path = Path(source)
        try:
            with np.load(path, allow_pickle=False) as data:
                files = set(data.files)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointCorruptError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        if any(key.startswith("param/") for key in files) and "meta/engine" not in files:
            return _export_v1(path)
        meta, arrays = read_checkpoint(path)

    step_class = str(meta.get("step_class", "unknown"))
    encoder_state = {
        key[len("encoder."):]: np.asarray(value)
        for key, value in arrays.items()
        if key.startswith("encoder.")
    }
    if encoder_state:
        return EncoderArtifact(
            kind="gcn",
            step_class=step_class,
            fingerprint=payload_digest(encoder_state),
            encoder=_gcn_from_state(encoder_state),
        )
    if "embeddings" in arrays:
        table = np.asarray(arrays["embeddings"], dtype=np.float64)
        step_meta = meta.get("step", {}) or {}
        fitted = step_meta.get("fitted_nodes")
        return EncoderArtifact(
            kind="table",
            step_class=step_class,
            fingerprint=payload_digest({"embeddings": table}),
            table=table,
            fitted_nodes=int(fitted) if fitted is not None else table.shape[0],
        )
    raise ValueError(
        f"checkpoint written by step {step_class!r} has no exportable "
        f"encoder (state keys: {sorted(arrays)})"
    )


def _export_v1(path: Path) -> EncoderArtifact:
    """Legacy v1 facade file → GCN artifact (shim over :func:`load_model`)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        model = load_model(path)
    encoder = model.result.encoder
    return EncoderArtifact(
        kind="gcn",
        step_class="E2GCLTrainer",
        fingerprint=payload_digest(encoder.state_dict()),
        encoder=encoder,
    )


# ----------------------------------------------------------------------
# Artifact round-trip (what the serving stack persists)
# ----------------------------------------------------------------------
def save_artifact(artifact: EncoderArtifact, path: Union[str, Path]) -> Path:
    """Persist an artifact crash-safely (``.npz`` + SHA-256 digest)."""
    payload: Dict[str, np.ndarray] = {}
    if artifact.kind == "gcn":
        for key, value in artifact.encoder.state_dict().items():
            payload[f"param/{key}"] = value
    elif artifact.kind == "table":
        payload["table"] = np.asarray(artifact.table)
    else:
        raise ValueError(f"unknown artifact kind {artifact.kind!r}")
    payload["meta/artifact"] = pack_json({
        "version": _ARTIFACT_VERSION,
        "kind": artifact.kind,
        "step_class": artifact.step_class,
        "fingerprint": artifact.fingerprint,
        "fitted_nodes": artifact.fitted_nodes,
    })
    payload["meta/digest"] = np.frombuffer(
        payload_digest(payload).encode(), dtype=np.uint8
    )
    return atomic_savez(path, payload)


def load_artifact(path: Union[str, Path]) -> EncoderArtifact:
    """Inverse of :func:`save_artifact`; digest-validated.

    Raises :class:`~repro.engine.CheckpointCorruptError` on truncated or
    bit-flipped files so a half-written artifact can never serve garbage.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            contents = {key: data[key] for key in data.files}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointCorruptError(f"cannot read artifact {path}: {exc}") from exc
    if "meta/digest" not in contents:
        raise CheckpointCorruptError(f"artifact {path} has no integrity digest")
    stored = bytes(contents["meta/digest"]).decode(errors="replace")
    actual = payload_digest({k: v for k, v in contents.items() if k != "meta/digest"})
    if stored != actual:
        raise CheckpointCorruptError(
            f"artifact {path} failed digest validation "
            f"(stored {stored[:12]}..., recomputed {actual[:12]}...)"
        )
    meta = unpack_json(contents["meta/artifact"])
    if int(meta["version"]) != _ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {meta['version']}")
    if meta["kind"] == "gcn":
        state = {
            key[len("param/"):]: value
            for key, value in contents.items()
            if key.startswith("param/")
        }
        return EncoderArtifact(
            kind="gcn",
            step_class=meta["step_class"],
            fingerprint=meta["fingerprint"],
            encoder=_gcn_from_state(state),
        )
    if meta["kind"] == "table":
        fitted = meta.get("fitted_nodes")
        return EncoderArtifact(
            kind="table",
            step_class=meta["step_class"],
            fingerprint=meta["fingerprint"],
            table=np.asarray(contents["table"], dtype=np.float64),
            fitted_nodes=int(fitted) if fitted is not None else None,
        )
    raise ValueError(f"unknown artifact kind {meta['kind']!r} in {path}")


# ----------------------------------------------------------------------
# Legacy v1 facade format (deprecated shim)
# ----------------------------------------------------------------------
def load_model(path: Union[str, Path]) -> E2GCL:
    """Rebuild a fitted :class:`E2GCL` from a v1 checkpoint.

    The returned model supports :meth:`E2GCL.embed` on any graph with the
    same feature dimension; ``fit`` history and timings are not preserved.

    .. deprecated:: prefer :func:`export_encoder`, which reads both the v1
       facade files and v2 engine checkpoints for every registered method.
    """
    warnings.warn(
        "load_model uses the legacy E2GCL-only v1 format; write v2 engine "
        "checkpoints (repro.engine) and rehydrate with export_encoder "
        "instead — export_encoder still reads v1 files",
        DeprecationWarning,
        stacklevel=2,
    )
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        version = int(data["meta/version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = E2GCLConfig(**json.loads(bytes(data["meta/config"]).decode()))
        in_features = int(data["meta/in_features"][0])
        state = {
            key[len("param/"):]: data[key]
            for key in data.files if key.startswith("param/")
        }
        coreset = None
        if "coreset/selected" in data.files:
            coreset = CoresetResult(
                selected=data["coreset/selected"],
                weights=data["coreset/weights"],
                representativity=float("nan"),
                gains=[],
                selection_seconds=0.0,
                assignment=data["coreset/assignment"],
            )

    encoder = GCN(
        in_features=in_features,
        hidden_features=config.hidden_dim,
        out_features=config.embedding_dim,
        num_layers=config.num_layers,
        seed=config.seed,
    )
    encoder.load_state_dict(state)

    model = E2GCL(config)
    # Reassemble the minimal fitted state: the facade only needs the result
    # record (encoder + coreset); embed() must then receive an explicit graph.
    model.result = TrainResult(encoder=encoder, coreset=coreset)
    return model
