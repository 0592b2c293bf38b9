"""HongTu core: configuration, planner, trainer (Algorithm 1), elastic
controller, memory model."""

from repro.core.config import (
    HongTuConfig,
    ALLREDUCE_ALGORITHMS,
    COMM_MODES,
    INTERMEDIATE_POLICIES,
    OVERLAP_POLICIES,
    PLACEMENT_POLICIES,
)
from repro.core.memory_model import (
    MemoryEstimate,
    estimate_training_memory,
    estimate_for_model,
    partition_host_bytes,
    placement_host_bytes,
    admits_placement,
)
from repro.core.trainer import HongTuTrainer, EpochResult

__all__ = [
    "HongTuConfig", "ALLREDUCE_ALGORITHMS", "COMM_MODES",
    "INTERMEDIATE_POLICIES", "OVERLAP_POLICIES", "PLACEMENT_POLICIES",
    "MemoryEstimate", "estimate_training_memory", "estimate_for_model",
    "partition_host_bytes", "placement_host_bytes", "admits_placement",
    "HongTuTrainer", "EpochResult",
]
