"""Single-device monolithic full-graph trainer (the DGL-like reference).

Runs the entire graph as one block with a full autograd tape — the memory-
hungry textbook method that Table 1 shows cannot scale. It serves three
roles in the reproduction:

* the numerical reference: HongTu must produce identical parameters;
* the DGL comparison row of Table 5 (single-GPU full-graph system);
* the accuracy reference of Fig. 8 (``DGL-FG`` curve).

Timing/memory are charged against one simulated GPU; if the full working
set (vertex + intermediate data) exceeds its capacity, the trainer raises
:class:`~repro.errors.DeviceOutOfMemoryError` — the "OOM" entries of
Table 5.
"""

from __future__ import annotations

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

__all__ = ["FullGraphTrainer"]


class FullGraphTrainer:
    """Whole-graph training on one (simulated) device.

    Parameters
    ----------
    platform:
        Optional; when given, the working set is allocated on GPU 0 (raising
        OOM when it does not fit) and epochs are timed. When omitted the
        trainer is a pure numerical reference.
    """

    def __init__(self, graph: Graph, model: GNNModel,
                 platform: Optional[MultiGPUPlatform] = None,
                 optimizer: Optional[Optimizer] = None):
        if graph.features is None or graph.labels is None:
            raise ConfigurationError("training requires features and labels")
        if model.dims[0] != graph.feature_dim:
            raise ConfigurationError(
                f"model input dim {model.dims[0]} != feature dim "
                f"{graph.feature_dim}"
            )
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
            estimate = estimate_for_model(
                graph.num_vertices, graph.num_edges, model
            )
            # The full working set lives on one device for the whole run.
            platform.gpus[0].memory.alloc("full_graph_working_set",
                                          estimate.total_bytes)

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

        if self.platform is not None:
            flops = self.model.forward_flops(
                self.block.num_src, self.block.num_dst, self.block.num_edges
            )
            timeline.add("gpu", self.platform.gpu_compute_seconds(3 * flops),
                         device=0, label="monolithic_epoch")

        self.optimizer.step()
        self._epoch += 1
        peak = (self.platform.gpus[0].memory.peak
                if self.platform is not None else 0)
        return EpochResult(self._epoch, timeline, loss=loss,
                           peak_gpu_bytes=peak)

    def train(self, num_epochs: int) -> List[EpochResult]:
        return [self.train_epoch() for _ in range(num_epochs)]

    def logits(self) -> np.ndarray:
        if self._logits is None:
            h = Tensor(self.graph.features.astype(self.dtype))
            self._logits = self.model(self.block, h).data
        return self._logits

    def evaluate(self) -> Dict[str, float]:
        h = Tensor(self.graph.features.astype(self.dtype))
        return split_accuracies(self.model(self.block, h).data, self.graph)
