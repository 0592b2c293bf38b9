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
runs).
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import (
    masked_cross_entropy_value_and_grad,
    split_accuracies,
)
from repro.autograd.optim import Adam, Optimizer
from repro.core.memory_model import estimate_for_model
from repro.core.trainer import EpochResult
from repro.errors import ConfigurationError
from repro.gnn.block import Block
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.metis import metis_partition
from repro.units import SCALAR_BYTES

__all__ = ["InMemoryMultiGPUTrainer"]


class InMemoryMultiGPUTrainer:
    """Full-graph training with the whole working set resident on GPUs."""

    def __init__(self, graph: Graph, model: GNNModel,
                 platform: MultiGPUPlatform,
                 optimizer: Optional[Optimizer] = None,
                 seed: int = 0, comm_overhead: float = 1.0):
        if graph.features is None or graph.labels is None:
            raise ConfigurationError("training requires features and labels")
        if (isinstance(comm_overhead, bool)
                or not isinstance(comm_overhead, Real)
                or not 1.0 <= comm_overhead < math.inf):
            raise ConfigurationError(f"comm_overhead must be a finite number "
                                     f">= 1.0, got {comm_overhead!r}")
        self.graph = graph
        self.model = model
        #: the numerics dtype: the model's own parameter dtype
        self.dtype = model.dtype
        self.platform = platform
        self.optimizer = optimizer or Adam(model.parameters(), lr=0.01)
        # Multiplier on inter-GPU volume: 1.0 models point-to-point remote
        # reads (HongTu-IM); >1 models broadcast-style synchronization
        # (Sancus-like systems replicate boundary data to all peers).
        self.comm_overhead = comm_overhead
        self.block = Block.from_graph(graph)
        self._epoch = 0
        self._logits: Optional[np.ndarray] = None

        m = platform.num_gpus
        self.assignment = metis_partition(graph, m, seed=seed)

        # Per-GPU resident set: an even share of vertex+intermediate data
        # plus buffers for the remote-neighbor replicas this partition reads.
        estimate = estimate_for_model(
            graph.num_vertices, graph.num_edges, model
        )
        src, dst = graph.edge_arrays()
        remote_mask = self.assignment[src] != self.assignment[dst]
        hidden = max(model.dims)
        self._remote_rows_per_gpu: List[int] = []
        for i in range(m):
            into_i = remote_mask & (self.assignment[dst] == i)
            remote_rows = len(np.unique(src[into_i]))
            self._remote_rows_per_gpu.append(remote_rows)
            resident = estimate.total_bytes // m \
                + remote_rows * hidden * SCALAR_BYTES
            platform.gpus[i].memory.alloc("resident_working_set", resident)

    # ------------------------------------------------------------------
    def train_epoch(self) -> EpochResult:
        timeline = EventTimeline(barrier_all=True)
        self.model.zero_grad()

        h = Tensor(self.graph.features.astype(self.dtype))
        out = self.model(self.block, h)
        loss, seed = masked_cross_entropy_value_and_grad(
            out.data, self.graph.labels, self.graph.train_mask
        )
        out.backward(seed)
        self._logits = out.data
        self.optimizer.step()
        self._epoch += 1

        # Compute: graph work split evenly across GPUs.
        m = self.platform.num_gpus
        flops = self.model.forward_flops(
            self.block.num_src, self.block.num_dst, self.block.num_edges
        )
        timeline.add("gpu", self.platform.gpu_compute_seconds(3 * flops / m),
                     device=0, label="partitioned_epoch")
        # Communication: remote-neighbor rows cross NVLink once per layer per
        # direction (forward representations + backward gradients).
        num_layers = self.model.num_layers
        d2d_seconds = []
        for i in range(m):
            row_bytes = sum(
                layer.in_dim * SCALAR_BYTES
                for layer in self.model.layers
            )
            volume = 2 * self._remote_rows_per_gpu[i] * row_bytes \
                * self.comm_overhead
            d2d_seconds.append(self.platform.d2d_seconds(volume))
        timeline.submit_batch("d2d", d2d_seconds, label="boundary_sync")

        return EpochResult(
            self._epoch, timeline, loss=loss,
            peak_gpu_bytes=self.platform.peak_gpu_memory(),
        )

    def train(self, num_epochs: int) -> List[EpochResult]:
        return [self.train_epoch() for _ in range(num_epochs)]

    def logits(self) -> np.ndarray:
        if self._logits is None:
            h = Tensor(self.graph.features.astype(self.dtype))
            self._logits = self.model(self.block, h).data
        return self._logits

    def evaluate(self) -> Dict[str, float]:
        return split_accuracies(self.logits(), self.graph)
