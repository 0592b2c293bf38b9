"""All-in-GPU multi-GPU full-graph trainer (Sancus-like / HongTu-IM).

Represents the family of systems in Table 2 that keep both vertex data and
intermediate data in GPU memory (CAGNET, DGCL, PipeGCN, Sancus) and the
paper's own in-memory variant HongTu-IM: the graph is METIS-partitioned
across the GPUs, every GPU holds its partition's slice of *all* layers'
vertex + intermediate data, and remote neighbor representations move over
NVLink each layer.

Numerically it is exact full-graph training (no staleness is modeled — the
paper reports Sancus/HongTu-IM at comparable accuracy and speed, and what
Table 6 tests is capacity: these systems OOM on the big graphs while HongTu
runs), so the epoch is :class:`~repro.baselines.fullgraph.FullGraphTrainer`'s
own; this class only reserves and prices it across the GPUs.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Optional

from repro.autograd.optim import Optimizer
from repro.baselines.fullgraph import FullGraphTrainer
from repro.core.memory_model import MemoryEstimate
from repro.errors import ConfigurationError
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.metis import metis_partition
from repro.partition.replication import remote_replica_rows
from repro.units import SCALAR_BYTES

__all__ = ["InMemoryMultiGPUTrainer"]


class InMemoryMultiGPUTrainer(FullGraphTrainer):
    """Full-graph training with the whole working set resident on GPUs."""

    def __init__(self, graph: Graph, model: GNNModel,
                 platform: MultiGPUPlatform,
                 optimizer: Optional[Optimizer] = None,
                 seed: int = 0, comm_overhead: float = 1.0):
        if (isinstance(comm_overhead, bool)
                or not isinstance(comm_overhead, Real)
                or not 1.0 <= comm_overhead < math.inf):
            raise ConfigurationError(f"comm_overhead must be a finite number "
                                     f">= 1.0, got {comm_overhead!r}")
        # Multiplier on inter-GPU volume: 1.0 models point-to-point remote
        # reads (HongTu-IM); >1 models broadcast-style synchronization
        # (Sancus-like systems replicate boundary data to all peers).
        self.comm_overhead = comm_overhead
        self.assignment = metis_partition(graph, platform.num_gpus, seed=seed)
        super().__init__(graph, model, platform, optimizer)

    def _reserve(self, estimate: MemoryEstimate) -> None:
        """Allocate per GPU an even share of vertex + intermediate data
        plus buffers for the remote-neighbor replicas its partition reads."""
        m = self.platform.num_gpus
        self._remote_rows = remote_replica_rows(self.graph, self.assignment, m)
        resident = (estimate.total_bytes // m
                    + self._remote_rows * max(self.model.dims) * SCALAR_BYTES)
        for gpu, nbytes in zip(self.platform.gpus, resident.tolist()):
            gpu.memory.alloc("resident_working_set", nbytes)

    def _price(self, timeline: EventTimeline, flops: float) -> None:
        """Graph work splits evenly across the GPUs; remote-neighbor rows
        cross NVLink once per layer in each direction (representations
        out, their gradients back), one ``d2d`` task per GPU."""
        platform = self.platform
        timeline.add("gpu",
                     platform.gpu_compute_seconds(3 * flops
                                                  / platform.num_gpus),
                     device=0, label="partitioned_epoch")
        row_bytes = sum(layer.in_dim * SCALAR_BYTES
                        for layer in self.model.layers)
        timeline.submit_batch("d2d", platform.d2d_seconds(
            2 * self._remote_rows * row_bytes * self.comm_overhead),
            label="boundary_sync")
