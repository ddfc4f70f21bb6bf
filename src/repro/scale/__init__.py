"""Million-node scale layer: sharded mini-batch training for E2GCL.

Four pieces, each locked by the dense-oracle equivalence tier in
``tests/scale/``:

* :mod:`~repro.scale.blocks` — the vectorized CSR block-extraction
  kernels shared with the serve :class:`~repro.serve.InductiveEncoder`
  (degree-corrected normalization: block entries are the exact
  full-graph floats);
* :mod:`~repro.scale.partition` — BFS-grow graph partitioning with
  edge-cut / balance metrics, used for Cluster-GCN-style batch locality;
* :mod:`~repro.scale.sampler` — seeded L-hop union-block neighbor
  sampling (exact with ``fanouts=None``, GraphSAGE importance-rescaled
  otherwise);
* :mod:`~repro.scale.feature_store` — chunked / memory-mapped feature
  rows plus blockwise ``R = A_n^L X`` bit-identical to the dense path;
* :mod:`~repro.scale.step` — :class:`SampledTrainStep`, the engine
  `TrainStep` variant that puts it all together under the existing
  hook / checkpoint / resilience machinery.

See ``docs/SCALE.md`` for the operational guide.
"""

from .blocks import (
    block_csr,
    gather_rows,
    grow_ego,
    normalized_block,
    sub_triplets,
    true_degrees,
)
from .feature_store import (
    DEFAULT_CHUNK_BUDGET,
    FeatureStore,
    blockwise_propagated_features,
    rows_per_chunk,
)
from .partition import GraphPartition, bfs_partition
from .sampler import NeighborSampler, SampledBlock
from .step import SampledTrainStep, ScaleConfig

__all__ = [
    "DEFAULT_CHUNK_BUDGET",
    "FeatureStore",
    "GraphPartition",
    "NeighborSampler",
    "SampledBlock",
    "SampledTrainStep",
    "ScaleConfig",
    "bfs_partition",
    "block_csr",
    "blockwise_propagated_features",
    "gather_rows",
    "grow_ego",
    "normalized_block",
    "rows_per_chunk",
    "sub_triplets",
    "true_degrees",
]
