"""Deduplicated communication framework (the paper's §5 and §6)."""

from repro.comm.plan import BatchGpuPlan, CommPlan, build_comm_plan
from repro.comm.analysis import DedupVolumes, measure_volumes
from repro.hardware.platform import ALLREDUCE_ALGORITHMS
from repro.comm.reorganize import reorganize_partition, ReorganizationResult
from repro.comm.joint import joint_placement, JointResult, JointIteration
from repro.comm.executor import DedupCommunicator

__all__ = [
    "BatchGpuPlan", "CommPlan", "build_comm_plan",
    "DedupVolumes", "measure_volumes",
    "ALLREDUCE_ALGORITHMS",
    "reorganize_partition", "ReorganizationResult",
    "joint_placement", "JointResult", "JointIteration",
    "DedupCommunicator",
]
