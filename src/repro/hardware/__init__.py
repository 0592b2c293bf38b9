"""Simulated multi-GPU hardware: specs, memory pools, time accounting."""

from repro.hardware.spec import (
    GPUSpec,
    PlatformSpec,
    CPUClusterSpec,
    ClusterSpec,
    NetworkTopology,
    TOPOLOGY_KINDS,
    FLAT_TOPOLOGY,
    A100_SERVER,
    PCIE_ONLY_SERVER,
    CPU_NODE,
    ECS_CLUSTER,
    A100_CLUSTER,
    V100_SERVER,
    NODE_SPECS,
    GB,
)
from repro.hardware.memory import MemoryPool, Allocation
from repro.hardware.clock import TimeBreakdown, EventTimeline
from repro.hardware.platform import (
    SimulatedGPU,
    MultiGPUPlatform,
    ClusterPlatform,
)

__all__ = [
    "GPUSpec", "PlatformSpec", "CPUClusterSpec", "ClusterSpec",
    "NetworkTopology", "TOPOLOGY_KINDS", "FLAT_TOPOLOGY",
    "A100_SERVER", "PCIE_ONLY_SERVER", "CPU_NODE", "ECS_CLUSTER",
    "A100_CLUSTER", "V100_SERVER", "NODE_SPECS", "GB",
    "MemoryPool", "Allocation",
    "TimeBreakdown", "EventTimeline",
    "SimulatedGPU", "MultiGPUPlatform", "ClusterPlatform",
]
