"""Subgraph chunks: the execution unit of partition-based training.

After 2-level partitioning, the graph is a grid of ``m × n`` chunks
(``m`` partitions × ``n`` chunks each; paper Fig. 5). A chunk owns a
disjoint set of destination vertices together with *all* their in-edges —
the property that makes full-neighbor aggregation (and hence GAT's edge
softmax) computable chunk-locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import PartitionError
from repro.gnn.block import Block

__all__ = ["SubgraphChunk"]


@dataclass
class SubgraphChunk:
    """One (partition, chunk) cell of the 2-level partition.

    A chunk does not know its grid coordinates: the owning GPU and the
    schedule slot are where it sits in ``TwoLevelPartition.chunks[i][j]``,
    so a re-layout reorders the *same* chunk objects (and with them their
    cached block and sparse operators). Treat a chunk as immutable.

    Attributes
    ----------
    dst_global:
        (num_dst,) global ids of owned destination vertices (disjoint across
        chunks, union = V).
    edge_src_global:
        (E,) global source id per in-edge, destination-major ordered.
    edge_dst_local:
        (E,) destination index into ``dst_global`` per edge.
    edge_weight:
        Optional (E,) globally-computed constant edge weights (GCN norm).
    neighbor_global:
        (num_src,) sorted unique global ids of the rows the chunk's input
        representation matrix must contain: every edge source plus the
        destinations themselves (UPDATE functions read ``h_v^{l-1}``). This
        is the set the communication framework must materialize on a GPU.
    """

    dst_global: np.ndarray
    edge_src_global: np.ndarray
    edge_dst_local: np.ndarray
    edge_weight: Optional[np.ndarray] = None
    neighbor_global: np.ndarray = field(init=False)
    _block: Optional[Block] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.dst_global = np.asarray(self.dst_global, dtype=np.int64)
        self.edge_src_global = np.asarray(self.edge_src_global, dtype=np.int64)
        self.edge_dst_local = np.asarray(self.edge_dst_local, dtype=np.int64)
        if len(self.edge_src_global) != len(self.edge_dst_local):
            raise PartitionError("edge arrays must be parallel")
        if len(self.edge_dst_local) and (
            self.edge_dst_local.max() >= len(self.dst_global)
        ):
            raise PartitionError("edge_dst_local out of range")
        self.neighbor_global = np.union1d(self.edge_src_global, self.dst_global)

    # ------------------------------------------------------------------
    @property
    def num_dst(self) -> int:
        return len(self.dst_global)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src_global)

    @property
    def num_neighbors(self) -> int:
        return len(self.neighbor_global)

    @property
    def block(self) -> Block:
        """Local-coordinate computation block (built lazily, then cached)."""
        if self._block is None:
            src_local = np.searchsorted(self.neighbor_global, self.edge_src_global)
            dst_pos = np.searchsorted(self.neighbor_global, self.dst_global)
            self._block = Block(
                edge_src=src_local,
                edge_dst=self.edge_dst_local,
                num_dst=self.num_dst,
                num_src=self.num_neighbors,
                dst_pos=dst_pos,
                edge_weight=self.edge_weight,
                src_global=self.neighbor_global,
                dst_global=self.dst_global,
            )
        return self._block

    def source_only_neighbors(self) -> np.ndarray:
        """Unique edge sources (the paper's N_ij used for α in Table 3)."""
        return np.unique(self.edge_src_global)

    def __repr__(self) -> str:
        return (
            f"SubgraphChunk(dst={self.num_dst}, edges={self.num_edges}, "
            f"neighbors={self.num_neighbors})"
        )
