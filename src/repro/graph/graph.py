"""The property graph used throughout the reproduction.

A :class:`Graph` is a directed graph with per-vertex features, labels and
train/val/test masks, stored as its in-CSR (destination-major, the view
GNN aggregation consumes). ``ScaleProfile`` carries the
*paper-scale* statistics of the real dataset that a synthetic stand-in
represents, so the analytic memory model (Table 1) and the monetary/OOM
analyses can be computed at the sizes the paper reports even though the
executable graph is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRAdjacency, edges_to_csr

__all__ = ["Graph", "ScaleProfile"]


@dataclass(frozen=True)
class ScaleProfile:
    """Statistics of the real-world dataset a stand-in graph emulates.

    Attributes mirror Table 4 of the paper: vertex/edge counts, input feature
    width, number of labels, plus the neighbor replication factors measured in
    Table 3 (keyed by partition count) when the paper reports them.
    """

    name: str
    num_vertices: int
    num_edges: int
    feature_dim: int
    num_labels: int
    kind: str = "synthetic"
    replication_factors: Dict[int, float] = field(default_factory=dict)


class Graph:
    """Directed property graph.

    Parameters
    ----------
    src, dst:
        Parallel edge arrays; edge i points ``src[i] -> dst[i]``. Message
        passing aggregates *incoming* neighbors at each destination.
    num_vertices:
        Vertex-id domain size.
    features, labels:
        Optional (N, F) float features and (N,) int labels.
    train_mask, val_mask, test_mask:
        Optional boolean masks over vertices.
    name:
        Dataset name for reporting.
    scale_profile:
        Paper-scale statistics for the analytic models (optional).
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        train_mask: Optional[np.ndarray] = None,
        val_mask: Optional[np.ndarray] = None,
        test_mask: Optional[np.ndarray] = None,
        name: str = "graph",
        scale_profile: Optional[ScaleProfile] = None,
    ):
        self.num_vertices = int(num_vertices)
        self.name = name
        self.scale_profile = scale_profile

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        # in-CSR: row = destination, columns = sources.
        self.in_csr: CSRAdjacency = edges_to_csr(
            dst, src, self.num_vertices, self.num_vertices
        )

        self.features = None if features is None else np.asarray(features)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        self.train_mask = self._check_mask(train_mask, "train_mask")
        self.val_mask = self._check_mask(val_mask, "val_mask")
        self.test_mask = self._check_mask(test_mask, "test_mask")

        if self.features is not None and len(self.features) != self.num_vertices:
            raise GraphFormatError(
                f"features have {len(self.features)} rows for "
                f"{self.num_vertices} vertices"
            )
        if self.labels is not None and len(self.labels) != self.num_vertices:
            raise GraphFormatError(
                f"labels have {len(self.labels)} rows for "
                f"{self.num_vertices} vertices"
            )

    def _check_mask(self, mask: Optional[np.ndarray], label: str) -> Optional[np.ndarray]:
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_vertices,):
            raise GraphFormatError(
                f"{label} must have shape ({self.num_vertices},), got {mask.shape}"
            )
        return mask

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.in_csr.nnz

    @property
    def feature_dim(self) -> int:
        if self.features is None:
            raise GraphFormatError(f"graph {self.name!r} has no features")
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise GraphFormatError(f"graph {self.name!r} has no labels")
        return int(self.labels.max()) + 1

    def in_degrees(self) -> np.ndarray:
        return self.in_csr.degrees()

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.in_csr.indices, minlength=self.num_vertices)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) parallel edge arrays in destination-major order."""
        dst = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.in_degrees()
        )
        return self.in_csr.indices.copy(), dst

    def gcn_edge_weights(self) -> np.ndarray:
        """Symmetric-normalized GCN weights d_uv = 1/sqrt((d_u+1)(d_v+1)).

        Weights are aligned with the in-CSR edge order. Self-loop smoothing
        (+1) keeps isolated vertices finite, matching Kipf & Welling.
        """
        in_deg = self.in_degrees().astype(np.float64)
        src = self.in_csr.indices
        dst = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.in_degrees())
        src_deg = self.out_degrees().astype(np.float64)
        return 1.0 / np.sqrt((src_deg[src] + 1.0) * (in_deg[dst] + 1.0))

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )
