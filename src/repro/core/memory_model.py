"""Analytic training-memory model (reproduces Table 1 at paper scale).

Full-graph GNN training must hold three data classes:

* **topology** — CSR indices + offsets + normalized edge weights;
* **vertex data** — per-layer representations h^l *and* gradients ∇h^l for
  every layer (the paper's "Vtx Data" column);
* **intermediate data** — tensors produced in the forward pass and consumed
  by gradient computation (the "Intr Data" column): for GCN the AGGREGATE
  output and the pre-activation per layer, for GAT additionally the O(|E|)
  per-edge attention tensors.

The intermediate estimate is :func:`repro.core.costs.intermediate_scalars`
— the per-chunk workspace formula of :mod:`repro.core.costs` at
full-graph shape — so the same formula prices both the paper-scale
Table 1 numbers and the per-chunk footprints the runtime memory pools
enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.costs import intermediate_scalars
from repro.errors import ConfigurationError
from repro.gnn.models import GNNModel, build_model
from repro.units import SCALAR_BYTES

__all__ = ["MemoryEstimate", "estimate_training_memory", "estimate_for_model",
           "vertex_buffer_bytes", "partition_host_bytes", "placement_host_bytes",
           "node_host_budgets", "admits_placement"]


@dataclass(frozen=True)
class MemoryEstimate:
    """Byte estimates for one (graph, model) training configuration."""

    topology_bytes: int
    vertex_data_bytes: int
    intermediate_bytes: int

    @property
    def total_bytes(self) -> int:
        return (self.topology_bytes + self.vertex_data_bytes
                + self.intermediate_bytes)

    def as_gb(self) -> dict:
        gb = 1024 ** 3
        return {
            "topology_gb": self.topology_bytes / gb,
            "vertex_data_gb": self.vertex_data_bytes / gb,
            "intermediate_gb": self.intermediate_bytes / gb,
            "total_gb": self.total_bytes / gb,
        }


def estimate_training_memory(num_vertices: int, num_edges: int,
                             dims: Sequence[int],
                             arch: str = "gcn") -> MemoryEstimate:
    """Estimate full-graph training memory for an architecture + dims.

    ``dims = [input_dim, hidden..., output_dim]`` follows the paper's model
    configs (e.g. Table 1's ``256-128-128-64``).
    """
    model = build_model(arch, dims, np.random.default_rng(0))
    return estimate_for_model(num_vertices, num_edges, model)


def estimate_for_model(num_vertices: int, num_edges: int,
                       model: GNNModel) -> MemoryEstimate:
    """Estimate training memory for a concrete model instance."""
    # Topology: 4-byte column ids + 4-byte dst ids (CSR+COO hybrid, the
    # common GNN-system layout) + 4-byte normalized weights + offsets.
    topology = num_edges * (4 + 4 + 4) + 2 * (num_vertices + 1) * 8

    vertex = vertex_buffer_bytes(num_vertices, model.dims)

    # Intermediate data: per-layer forward workspace over the full graph.
    intermediate = intermediate_scalars(model, num_vertices, num_edges) \
        * SCALAR_BYTES

    return MemoryEstimate(
        topology_bytes=int(topology),
        vertex_data_bytes=int(vertex),
        intermediate_bytes=int(intermediate),
    )


def vertex_buffer_bytes(num_vertices, dims: Sequence[int]):
    """Bytes of the vertex data — h^l and ∇h^l of every layer — of
    ``num_vertices`` vertices (an int, or an int64 array of per-partition
    counts): ``2·|V|·Σdims·SCALAR_BYTES``. The one sizing formula of
    the Table 1 estimate, the host ``vertex_data`` reservation, the
    admission budgets and a migrating partition's state."""
    return 2 * num_vertices * sum(dims) * SCALAR_BYTES


# ----------------------------------------------------------------------
# per-node host-memory admission (uneven partition→node placements)
# ----------------------------------------------------------------------
def partition_host_bytes(partition_sizes: Sequence[int],
                         aggregate_dims: Sequence[int]) -> np.ndarray:
    """Host bytes each partition pins on its node's host pool.

    Under the hybrid recompute policy a partition's cacheable layers
    checkpoint their AGGREGATE outputs to the host of the node the
    partition is placed on — one row per destination vertex per cacheable
    layer, so partition i pins ``|V_i| * sum(aggregate_dims) *
    SCALAR_BYTES`` bytes wherever it lands (each destination appears
    in exactly one chunk). This is the placement-*dependent* share of the
    host working set; the per-layer h/∇h vertex buffers shard evenly
    across node hosts regardless of placement.
    """
    sizes = np.asarray(partition_sizes, dtype=np.int64)
    if (sizes < 0).any():
        raise ConfigurationError("partition sizes must be >= 0")
    scalars = int(sum(aggregate_dims))
    return sizes * scalars * SCALAR_BYTES


def placement_host_bytes(placement: Sequence[int],
                         per_partition_bytes: Sequence[int],
                         num_nodes: int) -> np.ndarray:
    """Per-node placement-pinned host bytes: ``B[n] = Σ_{p→n} bytes[p]``."""
    placement = np.asarray(placement, dtype=np.int64)
    per_partition = np.asarray(per_partition_bytes, dtype=np.int64)
    if placement.shape != per_partition.shape:
        raise ConfigurationError(
            f"placement ({placement.shape}) and per-partition bytes "
            f"({per_partition.shape}) must align"
        )
    return np.bincount(placement, weights=per_partition,
                       minlength=num_nodes).astype(np.int64)


def node_host_budgets(platform, vertex_host_bytes: int) -> list:
    """Per-node host-byte budgets left for placement-pinned checkpoints.

    A node's budget is its host pool's remaining capacity after live
    reservations and its share of the (placement-invariant) vertex-data
    buffers — ``platform.split_host_bytes`` decides the shares, so on a
    heterogeneous fleet each budget reflects that node's *actual* host
    capacity (capacity-proportional shards of the vertex data, the full
    per-spec pool size) rather than a uniform per-node figure. ``None``
    entries mean that node's pool is unlimited.
    """
    budgets = []
    for pool, share in platform.split_host_bytes(int(vertex_host_bytes)):
        if pool.capacity is None:
            budgets.append(None)
        else:
            budgets.append(pool.capacity - pool.in_use - share)
    return budgets


def admits_placement(placement: Sequence[int],
                     per_partition_bytes: Sequence[int],
                     node_budgets: Sequence[Optional[float]]) -> bool:
    """Whether every node's host memory admits the placement's partitions.

    ``node_budgets[n]`` is node n's remaining host-pool byte budget after
    the placement-invariant allocations (vertex-data shard, live
    reservations); ``None`` means unlimited. The placement search rejects
    any uneven assignment this returns ``False`` for — a skewed node must
    actually fit the checkpoints its extra partitions pin.
    """
    loads = placement_host_bytes(placement, per_partition_bytes,
                                 len(node_budgets))
    return all(budget is None or load <= budget
               for load, budget in zip(loads.tolist(), node_budgets))
