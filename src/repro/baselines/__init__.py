"""Comparison systems: monolithic, in-memory multi-GPU, CPU cluster, mini-batch."""

from repro.baselines.fullgraph import FullGraphTrainer
from repro.baselines.inmemory import InMemoryMultiGPUTrainer
from repro.baselines.distgnn import DistGNNSimulator, DistGNNEpochResult
from repro.baselines.minibatch import (
    NeighborSampler,
    MiniBatchTrainer,
    MiniBatchEpochResult,
)

__all__ = [
    "FullGraphTrainer",
    "InMemoryMultiGPUTrainer",
    "DistGNNSimulator", "DistGNNEpochResult",
    "NeighborSampler", "MiniBatchTrainer", "MiniBatchEpochResult",
]
