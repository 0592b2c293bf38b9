"""Single-device monolithic full-graph trainer (the DGL-like reference).

Runs the entire graph as one block with a full autograd tape — the memory-
hungry textbook method that Table 1 shows cannot scale. It serves four
roles in the reproduction:

* the numerical reference: HongTu must produce identical parameters;
* the DGL comparison row of Table 5 (single-GPU full-graph system);
* the accuracy reference of Fig. 8 (``DGL-FG`` curve);
* the epoch of :class:`~repro.baselines.inmemory.InMemoryMultiGPUTrainer`
  (HongTu-IM), which reserves and prices it across every GPU instead.

Timing/memory are charged against one simulated GPU; if the full working
set (vertex + intermediate data) exceeds its capacity, the trainer raises
:class:`~repro.errors.DeviceOutOfMemoryError` — the "OOM" entries of
Table 5.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import (
    masked_cross_entropy_value_and_grad,
    split_accuracies,
)
from repro.autograd.optim import Adam, Optimizer
from repro.core.memory_model import MemoryEstimate, estimate_for_model
from repro.core.trainer import EpochResult, require_trainable
from repro.gnn.block import Block
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline
from repro.hardware.platform import MultiGPUPlatform

__all__ = ["FullGraphTrainer"]


class FullGraphTrainer:
    """Whole-graph training on one (simulated) device.

    Parameters
    ----------
    platform:
        Optional; when given, the working set is allocated on GPU 0 (raising
        OOM when it does not fit) and epochs are timed. When omitted the
        trainer is a pure numerical reference.

    A subclass that places or prices the same epoch differently overrides
    :meth:`_reserve` and :meth:`_price`; the numerics are :meth:`_step`'s.
    """

    def __init__(self, graph: Graph, model: GNNModel,
                 platform: Optional[MultiGPUPlatform] = None,
                 optimizer: Optional[Optimizer] = None):
        require_trainable(graph, model)
        self.graph = graph
        self.model = model
        #: the numerics dtype: the model's own parameter dtype
        self.dtype = model.dtype
        self.platform = platform
        self.optimizer = optimizer or Adam(model.parameters(), lr=0.01)
        self.block = Block.from_graph(graph)
        self._epoch = 0
        self._logits: Optional[np.ndarray] = None

        if platform is not None:
            self._reserve(estimate_for_model(
                graph.num_vertices, graph.num_edges, model
            ))

    def _reserve(self, estimate: MemoryEstimate) -> None:
        """Allocate the working set: all of it on GPU 0 for the whole run."""
        self.platform.gpus[0].memory.alloc("full_graph_working_set",
                                           estimate.total_bytes)

    def _price(self, timeline: EventTimeline, flops: float) -> None:
        """Charge one epoch of the model's forward ``flops`` (forward,
        backward and recompute are 3x that) to GPU 0."""
        timeline.add("gpu", self.platform.gpu_compute_seconds(3 * flops),
                     device=0, label="monolithic_epoch")

    # ------------------------------------------------------------------
    def _forward(self) -> Tensor:
        return self.model(self.block,
                          Tensor(self.graph.features.astype(self.dtype)))

    def _step(self) -> float:
        """One full-graph forward, loss, backward and optimizer step;
        returns the loss."""
        self.model.zero_grad()
        out = self._forward()
        loss, seed = masked_cross_entropy_value_and_grad(
            out.data, self.graph.labels, self.graph.train_mask
        )
        out.backward(seed)
        self._logits = out.data
        self.optimizer.step()
        self._epoch += 1
        return loss

    def train_epoch(self) -> EpochResult:
        timeline = EventTimeline(barrier_all=True)
        loss = self._step()
        if self.platform is None:
            return EpochResult(self._epoch, timeline, loss=loss,
                               peak_gpu_bytes=0)
        block = self.block
        self._price(timeline, self.model.forward_flops(
            block.num_src, block.num_dst, block.num_edges))
        return EpochResult(self._epoch, timeline, loss=loss,
                           peak_gpu_bytes=self.platform.peak_gpu_memory())

    def logits(self) -> np.ndarray:
        """Final-layer representations from the last forward pass."""
        if self._logits is None:
            self._logits = self._forward().data
        return self._logits

    def evaluate(self) -> Dict[str, float]:
        """Accuracy on each available mask at the current parameters."""
        return split_accuracies(self._forward().data, self.graph)
