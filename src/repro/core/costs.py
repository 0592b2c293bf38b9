"""What one chunk-layer pass costs: the price list of a plan.

In partition-based training (§4, Table 1, Eq. 4) every kernel and
transfer cost is a *static* function of the plan: a chunk's
``(|src|, |dst|, |E|)`` times a layer's shape fixes its flops, its
writeback / checkpoint / gradient-load bytes and its GPU workspace once
preprocessing ends. :class:`ChunkShapes` holds the three counts (the
planner keeps it on the :class:`~repro.core.planner.FleetPlan`) and its
methods are the formulas, array-valued over one batch column — element
i is GPU i's chunk — so the trainer, the serving engine, the planner
and the elastic controller price a whole wave with one
``platform.gpu_compute_seconds(flops, devices=gpu_ids)`` /
``h2d_seconds(nbytes, devices=gpu_ids)`` call.

Only *shapes* live here. Seconds are never stored: rates move under
faults, and the serving engine's recorded column programs — dropped on
a ``rates_version`` bump — are the one place they are memoised. The
layers' own ``*_flops`` / ``forward_workspace_scalars`` /
``aggregate_dim`` are pure arithmetic that accepts the count arrays
unchanged; this module is their only caller outside ``gnn/`` and the
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from repro.units import SCALAR_BYTES

__all__ = ["ChunkShapes", "ForwardCosts", "BackwardCosts",
           "checkpoint_dims", "intermediate_scalars"]


class ForwardCosts(NamedTuple):
    """One forward chunk-layer pass per GPU of a batch column."""

    flops: np.ndarray
    #: h^{l+1} rows copied back to the host
    writeback_bytes: np.ndarray
    #: AGGREGATE rows a cacheable layer checkpoints under ``hybrid``
    #: (added to the writeback only when the caller does checkpoint)
    checkpoint_bytes: np.ndarray
    #: staged input rows + the layer's transient scalars
    workspace_bytes: np.ndarray


class BackwardCosts(NamedTuple):
    """One backward chunk-layer pass per GPU of a batch column."""

    #: host→GPU bytes reloaded before the kernels run
    load_bytes: np.ndarray
    flops: np.ndarray
    workspace_bytes: np.ndarray


@dataclass(frozen=True)
class ChunkShapes:
    """``(m, n)`` int64 row/edge counts of a partition's chunk grid."""

    num_src: np.ndarray
    num_dst: np.ndarray
    num_edges: np.ndarray

    @classmethod
    def of(cls, partition) -> "ChunkShapes":
        """Read the counts off ``partition`` (one pass over the grid)."""
        def grid(attr: str) -> np.ndarray:
            return np.array([[getattr(chunk, attr) for chunk in row]
                             for row in partition.chunks], dtype=np.int64)

        return cls(grid("num_neighbors"), grid("num_dst"), grid("num_edges"))

    def column(self, j: int):
        """``(num_src, num_dst, num_edges)`` of batch column ``j``, each
        an ``(m,)`` array in GPU order."""
        return self.num_src[:, j], self.num_dst[:, j], self.num_edges[:, j]

    def forward(self, layer, j: int) -> ForwardCosts:
        """Forward pass of ``layer`` over batch column ``j``."""
        src, dst, edges = self.column(j)
        return ForwardCosts(
            flops=layer.forward_flops(src, dst, edges),
            writeback_bytes=dst * layer.out_dim * SCALAR_BYTES,
            checkpoint_bytes=dst * layer.aggregate_dim() * SCALAR_BYTES,
            workspace_bytes=SCALAR_BYTES * (
                src * layer.in_dim
                + layer.forward_workspace_scalars(src, dst, edges)),
        )

    def backward_cached(self, layer, j: int) -> BackwardCosts:
        """Hybrid backward: reload the cached aggregate, ∇h^{l+1} and (for
        self-reading updates) the destinations' own rows; recompute UPDATE
        under a tape (3×) and run the closed-form aggregate adjoint."""
        src, dst, edges = self.column(j)
        row_scalars = layer.aggregate_dim() + layer.out_dim
        loaded_scalars = row_scalars + (layer.in_dim
                                        if layer.update_uses_self else 0)
        return BackwardCosts(
            load_bytes=dst * loaded_scalars * SCALAR_BYTES,
            flops=(3 * layer.update_flops(dst)
                   + layer.aggregate_flops(src, dst, edges)),
            workspace_bytes=(SCALAR_BYTES * 3 * dst
                             * (row_scalars + layer.in_dim)),
        )

    def backward_recompute(self, layer, j: int) -> BackwardCosts:
        """Recompute backward: reload ∇h^{l+1} only (the inputs re-gather
        through the communicator) and recompute the full layer (3×)."""
        src, dst, edges = self.column(j)
        return BackwardCosts(
            load_bytes=dst * layer.out_dim * SCALAR_BYTES,
            flops=3 * layer.forward_flops(src, dst, edges),
            workspace_bytes=SCALAR_BYTES * (
                src * layer.in_dim
                + 3 * layer.forward_workspace_scalars(src, dst, edges)),
        )

    def topology_bytes(self) -> np.ndarray:
        """``(m, n)`` GPU-resident bytes of each chunk's topology (CSR
        indices + offsets)."""
        return self.num_edges * 12 + (self.num_dst + 1) * 8

    def partition_flops(self, model) -> np.ndarray:
        """``(m,)`` per-epoch forward flops of each partition's chunks."""
        return model.forward_flops(self.num_src, self.num_dst,
                                   self.num_edges).sum(axis=1)


def checkpoint_dims(model, intermediate_policy: str) -> List[int]:
    """Aggregate widths the policy checkpoints to the host, per layer.

    Empty under ``recompute``, which pins nothing placement-dependent.
    """
    if intermediate_policy != "hybrid":
        return []
    return [layer.aggregate_dim() for layer in model.layers
            if layer.cacheable_aggregate]


def intermediate_scalars(model, num_vertices: int, num_edges: int) -> int:
    """Forward intermediates of the whole stack run as one block (Table 1's
    "Intr Data" — the per-chunk workspace formula at full-graph shape)."""
    return sum(
        layer.forward_workspace_scalars(num_vertices, num_vertices, num_edges)
        for layer in model.layers
    )
