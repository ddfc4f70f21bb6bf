"""Chunked / memory-mapped node-feature storage and out-of-core ``A^L X``.

Two pieces:

* :class:`FeatureStore` — a row store over an ``(n, d)`` feature matrix
  that can live on disk (``np.memmap``) and hands out gathered row blocks
  without ever materializing the full matrix in RAM.  ``chunk_budget_bytes``
  bounds how many rows any internal pass touches at once.
* :func:`blockwise_propagated_features` — the paper's pre-processing
  ``R = A_n^L X`` computed hop by hop in row chunks, ping-ponging between
  two buffers (memmaps when ``out_dir`` is given).  Each chunk is
  ``a_n[start:stop] @ src`` — scipy computes a CSR row slice's product
  with exactly the per-row kernel of the full product, so the result is
  **bit-identical** to :func:`repro.graphs.adjacency.propagated_features`
  (pinned by the oracle tier in ``tests/scale/``), while peak transient
  memory stays at one chunk of output rows.

This is what lets coreset selection (Alg. 2 consumes ``R``) and E2GCL
propagation run on graphs ~100x past the dense limit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..graphs.adjacency import normalized_adjacency
from ..obs.tracer import emit_metric, span

__all__ = ["FeatureStore", "blockwise_propagated_features", "rows_per_chunk"]

#: Default per-pass budget: 64 MB of feature rows.
DEFAULT_CHUNK_BUDGET = 64 * 1024 * 1024


def rows_per_chunk(num_features: int, itemsize: int, budget_bytes: int) -> int:
    """How many feature rows fit in ``budget_bytes`` (at least 1)."""
    row_bytes = max(1, num_features * itemsize)
    return max(1, budget_bytes // row_bytes)


class FeatureStore:
    """Row-gather access to an ``(n, d)`` feature matrix, optionally on disk.

    Backed either by an in-memory array (small graphs, tests) or a
    ``np.memmap`` (``FeatureStore.memmapped`` / passing a path), with the
    same interface.  ``gather`` is the only read path the sampled trainer
    uses — a mini-batch touches ``O(block)`` rows, never ``O(n)``.
    """

    def __init__(
        self,
        features: Union[np.ndarray, str, Path],
        chunk_budget_bytes: int = DEFAULT_CHUNK_BUDGET,
    ) -> None:
        if isinstance(features, (str, Path)):
            features = np.load(features, mmap_mode="r")
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        self._data = features
        if chunk_budget_bytes < 1:
            raise ValueError("chunk_budget_bytes must be positive")
        self.chunk_budget_bytes = int(chunk_budget_bytes)

    # ------------------------------------------------------------------
    @classmethod
    def memmapped(
        cls,
        features: np.ndarray,
        directory: Union[str, Path],
        name: str = "features",
        chunk_budget_bytes: int = DEFAULT_CHUNK_BUDGET,
    ) -> "FeatureStore":
        """Spill an in-memory matrix to ``<directory>/<name>.npy`` and wrap it."""
        path = Path(directory) / f"{name}.npy"
        np.save(path, np.ascontiguousarray(features))
        return cls(path, chunk_budget_bytes=chunk_budget_bytes)

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self._data.shape

    @property
    def num_rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def num_features(self) -> int:
        return int(self._data.shape[1])

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def on_disk(self) -> bool:
        return isinstance(self._data, np.memmap)

    def rows_per_chunk(self) -> int:
        return rows_per_chunk(
            self.num_features, self._data.dtype.itemsize, self.chunk_budget_bytes)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Materialize the rows ``indices`` (a fresh in-memory array)."""
        indices = np.asarray(indices, dtype=np.int64)
        with span("scale.feature_gather"):
            return np.asarray(self._data[indices])

    def chunk(self, start: int, stop: int) -> np.ndarray:
        """Materialize the contiguous row range ``[start, stop)``."""
        return np.asarray(self._data[start:stop])

    def as_array(self) -> np.ndarray:
        """The full matrix in memory (tests / small graphs only)."""
        return np.asarray(self._data)


def blockwise_propagated_features(
    adjacency: sp.spmatrix,
    features: Union[np.ndarray, FeatureStore],
    hops: int,
    method: str = "symmetric",
    chunk_budget_bytes: int = DEFAULT_CHUNK_BUDGET,
    out_dir: Optional[Union[str, Path]] = None,
) -> np.ndarray:
    """``R = A_n^L X`` computed in row chunks, bit-identical to the dense path.

    With ``out_dir`` set, the two hop buffers are ``np.memmap`` files in
    that directory (``propagate_ping.npy`` / ``propagate_pong.npy``) and
    the returned array is the final memmap — peak *resident* growth is one
    output chunk plus scipy's per-chunk temporaries, bounded by
    ``chunk_budget_bytes``.  Without it the buffers are ordinary arrays
    (still chunked, for small-graph equivalence testing).
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    store = features if isinstance(features, FeatureStore) else FeatureStore(
        np.asarray(features), chunk_budget_bytes=chunk_budget_bytes)
    n, d = store.shape
    a_n = normalized_adjacency(adjacency, method=method)
    if hops == 0:
        return store.as_array()
    out_dtype = np.result_type(a_n.dtype, store.dtype)
    chunk = rows_per_chunk(d, out_dtype.itemsize, chunk_budget_bytes)
    emit_metric("scale.propagate.chunk_rows", float(chunk))

    def make_buffer(tag: str) -> np.ndarray:
        if out_dir is None:
            return np.empty((n, d), dtype=out_dtype)
        path = Path(out_dir) / f"propagate_{tag}.npy"
        return np.lib.format.open_memmap(
            path, mode="w+", dtype=out_dtype, shape=(n, d))

    ping = make_buffer("ping")
    pong: Optional[np.ndarray] = None
    src: Union[np.ndarray, FeatureStore] = store
    dst = ping
    with span("scale.propagate"):
        for hop in range(hops):
            src_arr = src._data if isinstance(src, FeatureStore) else src
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                dst[start:stop] = a_n[start:stop] @ src_arr
            if hop + 1 == hops:
                break
            if pong is None:
                pong = make_buffer("pong")
            src, dst = dst, (pong if dst is ping else ping)
    return dst
