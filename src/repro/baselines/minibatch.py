"""DistDGL-like mini-batch GNN training with neighbor sampling.

Mini-batch training is the paper's main alternative paradigm (§2, Fig. 8,
Table 6): sample a fanout-bounded L-hop neighborhood for each seed batch,
train on the sampled blocks, and pay the *neighbor explosion* — the sampled
frontier (and with it memory and compute) grows geometrically with the
number of layers, which is why DistDGL's runtime explodes and eventually
OOMs at 4-8 layers in Table 6, and why its accuracy can trail full-graph
training (information loss, Fig. 8).

Sampling, training and evaluation are all real; the simulated platform
prices feature-loading H2D traffic, kernel time and per-batch frontier
memory, with batches spread across the available GPUs (its transfers,
like every baseline's, carry no bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import (
    accuracy,
    masked_cross_entropy_value_and_grad,
)
from repro.autograd.optim import Adam, Optimizer
from repro.core.trainer import EpochResult
from repro.errors import ConfigurationError
from repro.gnn.block import Block
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline
from repro.hardware.platform import MultiGPUPlatform

__all__ = ["NeighborSampler", "MiniBatchTrainer", "MiniBatchEpochResult"]


class NeighborSampler:
    """Layered fanout-bounded in-neighbor sampler (DGL-style blocks)."""

    def __init__(self, graph: Graph, fanouts: Sequence[int], seed: int = 0):
        if any(f < 1 for f in fanouts):
            raise ConfigurationError(f"fanouts must be >= 1, got {fanouts}")
        self.graph = graph
        self.fanouts = list(fanouts)
        self.rng = np.random.default_rng(seed)
        self._weights = graph.gcn_edge_weights()

    def sample(self, seeds: np.ndarray) -> List[Block]:
        """Sample blocks for ``seeds``; returns blocks input-layer first.

        ``blocks[l]`` consumes layer-l representations of its source rows
        and produces layer-(l+1) representations of its destination rows;
        the final block's destinations are exactly ``seeds``.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        in_csr = self.graph.in_csr
        blocks_reversed: List[Block] = []
        frontier = np.unique(seeds)

        for fanout in reversed(self.fanouts):
            dst = frontier
            edge_src_parts: List[np.ndarray] = []
            edge_dst_parts: List[np.ndarray] = []
            weight_parts: List[np.ndarray] = []
            for local, vertex in enumerate(dst):
                lo, hi = in_csr.indptr[vertex], in_csr.indptr[vertex + 1]
                degree = hi - lo
                if degree == 0:
                    continue
                positions = (np.arange(lo, hi) if degree <= fanout
                             else lo + self.rng.choice(
                                 degree, size=fanout, replace=False))
                edge_src_parts.append(in_csr.indices[positions])
                edge_dst_parts.append(
                    np.full(len(positions), local, dtype=np.int64)
                )
                weight_parts.append(self._weights[positions])
            if edge_src_parts:
                edge_src_global = np.concatenate(edge_src_parts)
                edge_dst_local = np.concatenate(edge_dst_parts)
                edge_weight = np.concatenate(weight_parts)
            else:
                edge_src_global = np.empty(0, dtype=np.int64)
                edge_dst_local = np.empty(0, dtype=np.int64)
                edge_weight = np.empty(0)

            src_frontier = np.union1d(edge_src_global, dst)
            edge_src_local = np.searchsorted(src_frontier, edge_src_global)
            dst_pos = np.searchsorted(src_frontier, dst)
            blocks_reversed.append(Block(
                edge_src=edge_src_local,
                edge_dst=edge_dst_local,
                num_dst=len(dst),
                num_src=len(src_frontier),
                dst_pos=dst_pos,
                edge_weight=edge_weight,
                src_global=src_frontier,
                dst_global=dst,
            ))
            frontier = src_frontier
        return list(reversed(blocks_reversed))


@dataclass(kw_only=True)
class MiniBatchEpochResult(EpochResult):
    #: total sampled input-frontier vertices this epoch (explosion metric)
    frontier_vertices: int


class MiniBatchTrainer:
    """Sampled mini-batch trainer over the simulated multi-GPU platform."""

    def __init__(self, graph: Graph, model: GNNModel,
                 platform: MultiGPUPlatform,
                 fanout: int = 10, batch_size: int = 1024,
                 optimizer: Optional[Optimizer] = None,
                 bytes_per_scalar: int = 4, seed: int = 0):
        if graph.features is None or graph.labels is None:
            raise ConfigurationError("training requires features and labels")
        if graph.train_mask is None:
            raise ConfigurationError("mini-batch training requires a train mask")
        self.graph = graph
        self.model = model
        self.platform = platform
        self.batch_size = batch_size
        self.optimizer = optimizer or Adam(model.parameters(), lr=0.01)
        self.bytes_per_scalar = bytes_per_scalar
        self.sampler = NeighborSampler(
            graph, [fanout] * model.num_layers, seed=seed
        )
        self.rng = np.random.default_rng(seed + 1)
        self.train_vertices = np.flatnonzero(graph.train_mask)
        self._epoch = 0

    # ------------------------------------------------------------------
    def train_epoch(self) -> MiniBatchEpochResult:
        timeline = EventTimeline(barrier_all=True)
        order = self.rng.permutation(self.train_vertices)
        losses: List[float] = []
        frontier_total = 0
        num_gpus = self.platform.num_gpus
        bps = self.bytes_per_scalar
        dims = self.model.dims

        for batch_start in range(0, len(order), self.batch_size):
            seeds = order[batch_start:batch_start + self.batch_size]
            blocks = self.sampler.sample(seeds)
            frontier_total += blocks[0].num_src

            # Frontier memory: every layer's input+output rows must be
            # resident while the batch trains (round-robin GPU placement).
            gpu_index = (batch_start // self.batch_size) % num_gpus
            gpu = self.platform.gpus[gpu_index]
            resident = sum(
                block.num_src * dims[l] + block.num_dst * dims[l + 1]
                for l, block in enumerate(blocks)
            ) * 3 * bps  # activations + gradients + workspace
            with gpu.memory.scoped("minibatch_frontier", resident):
                self.model.zero_grad()
                h = Tensor(
                    self.graph.features[blocks[0].src_global].astype(np.float64)
                )
                for layer, block in zip(self.model.layers, blocks):
                    h = layer(block, h)
                labels = self.graph.labels
                loss, seed_grad = masked_cross_entropy_value_and_grad(
                    h.data, labels[blocks[-1].dst_global],
                    np.ones(len(seeds), dtype=bool),
                )
                h.backward(seed_grad)
                self.optimizer.step()
                losses.append(loss)

            # Costs: feature H2D + sampling CPU + kernels.
            feature_bytes = blocks[0].num_src * dims[0] * bps
            timeline.add("h2d",
                         self.platform.h2d_seconds(feature_bytes) / num_gpus,
                         device=gpu_index, label="features")
            sampled_edges = sum(block.num_edges for block in blocks)
            timeline.add("cpu", self.platform.cpu_accumulate_seconds(
                sampled_edges * 8) / num_gpus,
                device=gpu_index, label="sampling")
            flops = 3 * sum(
                layer.forward_flops(block.num_src, block.num_dst,
                                    block.num_edges)
                for layer, block in zip(self.model.layers, blocks)
            )
            timeline.add("gpu",
                         self.platform.gpu_compute_seconds(flops) / num_gpus,
                         device=gpu_index, label="kernels")

        self._epoch += 1
        mean_loss = float(np.mean(losses)) if losses else 0.0
        return MiniBatchEpochResult(
            self._epoch, timeline, loss=mean_loss,
            peak_gpu_bytes=self.platform.peak_gpu_memory(),
            frontier_vertices=frontier_total,
        )

    def train(self, num_epochs: int) -> List[MiniBatchEpochResult]:
        return [self.train_epoch() for _ in range(num_epochs)]

    def evaluate(self) -> Dict[str, float]:
        """Full-graph inference accuracy (standard mini-batch evaluation)."""
        block = Block.from_graph(self.graph)
        h = Tensor(self.graph.features.astype(np.float64))
        logits = self.model(block, h).data
        metrics: Dict[str, float] = {}
        for split in ("train", "val", "test"):
            mask = getattr(self.graph, f"{split}_mask")
            if mask is not None:
                metrics[f"{split}_accuracy"] = accuracy(
                    logits, self.graph.labels, mask
                )
        return metrics
