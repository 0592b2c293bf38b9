"""Hardware specifications for the simulated platforms.

The numbers mirror the paper's testbeds (§7.1, Fig. 1):

* ``A100_SERVER`` — 4× NVIDIA A100-80GB, PCIe 4.0 host links (32 GB/s),
  4×NVLink 3.0 inter-GPU fabric (200 GB/s), two-socket NUMA host with 512 GB
  DRAM. Effective (not peak) throughputs are used: GNN training kernels are
  memory-bound SpMM/GEMM mixtures, so the compute model uses an achieved
  figure rather than the 312 TFLOP/s tensor-core peak.
* ``PCIE_ONLY_SERVER`` — the same server without NVLink (T_dd == T_hd), used
  by the interconnect-sensitivity analysis (§5.3 "Effectiveness with various
  interconnects").
* ``CPU_NODE`` — one node of the 16-node Aliyun ECS cluster used by the
  DistGNN comparison (56 vCPUs, 512 GB, 20 Gbps network).
* ``A100_CLUSTER`` — the scale-out extension beyond the paper: N copies of
  ``A100_SERVER`` joined by a flat 100 Gbps fabric. The paper stops at one
  server (its §8 names multi-server execution as future work); this spec is
  what the event-timeline runtime uses to explore that axis.

All bandwidths are bytes/second, latencies seconds, capacities bytes,
throughputs FLOP/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import ByteRate, Bytes, FlopRate, Seconds

__all__ = ["GPUSpec", "PlatformSpec", "CPUClusterSpec", "ClusterSpec",
           "NetworkTopology", "TOPOLOGY_KINDS", "FLAT_TOPOLOGY",
           "validate_node_spec",
           "A100_SERVER", "PCIE_ONLY_SERVER", "CPU_NODE", "ECS_CLUSTER",
           "A100_CLUSTER", "V100_SERVER", "NODE_SPECS", "GB"]

GB = 1024 ** 3

#: supported cluster network topologies (see :class:`NetworkTopology`)
TOPOLOGY_KINDS = ("flat", "spine", "rail")


@dataclass(frozen=True)
class NetworkTopology:
    """How a cluster's nodes are wired together.

    Three topology models cover the realistic design space:

    * ``flat`` — an ideal non-blocking switch: every directed node pair
      owns a dedicated full-rate link and distinct pairs never contend.
      This is the original cluster model and the default; a flat topology
      is float-identical to the pre-topology scheduler behavior.
    * ``spine`` — a leaf-spine fabric whose core is *oversubscribed* by
      ``oversubscription`` (total leaf downlink bandwidth over core
      bandwidth, >= 1). Per-pair links still exist, but every message
      additionally holds a single shared spine resource for the *excess*
      core-transit time ``(F - 1) * nbytes / (N * bandwidth)``, so
      disjoint node pairs do contend once the core saturates. With
      ``oversubscription == 1`` (a non-blocking core) the hold is zero
      and ``spine`` degenerates to ``flat`` exactly.
    * ``rail`` — a rail-optimized fabric: each node's NIC bandwidth is
      split over ``num_rails`` parallel rails (one per local GPU when
      ``num_rails == 0``), and GPU ``i``'s cross-node traffic rides rail
      ``i % num_rails``. Per-rail links run at ``bandwidth / num_rails``;
      balanced traffic matches ``flat``'s aggregate rate while skewed
      per-GPU traffic queues on its rail.
    """

    kind: str = "flat"
    #: spine only: core oversubscription factor F >= 1 (1 = non-blocking)
    oversubscription: float = 1.0
    #: rail only: parallel rails per node pair (0 = one per local GPU)
    num_rails: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"topology kind must be one of {TOPOLOGY_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.oversubscription < 1.0:
            raise ConfigurationError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )
        if self.num_rails < 0:
            raise ConfigurationError(
                f"num_rails must be >= 0, got {self.num_rails}"
            )

    def resolved_rails(self, gpus_per_node: int) -> int:
        """Concrete rail count: ``num_rails`` or one rail per local GPU."""
        if self.kind != "rail":
            return 1
        return self.num_rails if self.num_rails > 0 else gpus_per_node


#: the default topology: an ideal non-blocking network
FLAT_TOPOLOGY = NetworkTopology()


@dataclass(frozen=True)
class GPUSpec:
    """A single GPU's capacities and achieved rates."""

    name: str
    memory_bytes: Bytes
    #: achieved FLOP/s on the GNN kernel mix (SpMM + GEMM)
    compute_flops: FlopRate
    #: HBM bandwidth; governs intra-GPU data reuse T_ru
    memory_bandwidth: ByteRate


@dataclass(frozen=True)
class PlatformSpec:
    """A single-node multi-GPU server."""

    name: str
    num_gpus: int
    gpu: GPUSpec
    host_memory_bytes: Bytes
    #: per-GPU host link bandwidth (PCIe) — the paper's T_hd
    pcie_bandwidth: ByteRate
    #: inter-GPU bandwidth (NVLink) — the paper's T_dd
    nvlink_bandwidth: ByteRate
    #: bandwidth multiplier for host memory reached across the QPI bus
    qpi_factor: float
    #: CPU-side effective byte rate for host gradient accumulation
    cpu_accumulate_bandwidth: ByteRate
    num_sockets: int = 2
    #: this node's NIC rate, bytes/s per link per direction. ``None``
    #: (the default) inherits the cluster-wide ``network_bandwidth`` —
    #: only mixed-generation fleets set a per-node override.
    nic_bandwidth: Optional[float] = None

    def with_gpu_memory(self, memory_bytes: Bytes) -> "PlatformSpec":
        """Copy of this spec with a different per-GPU memory capacity."""
        return replace(self, gpu=replace(self.gpu, memory_bytes=memory_bytes))

    def with_num_gpus(self, num_gpus: int) -> "PlatformSpec":
        """Copy of this spec exposing only ``num_gpus`` devices."""
        return replace(self, num_gpus=num_gpus)


@dataclass(frozen=True)
class CPUClusterSpec:
    """A shared-nothing CPU cluster (the DistGNN testbed)."""

    name: str
    num_nodes: int
    memory_per_node: Bytes
    #: achieved FLOP/s of one node on GNN kernels
    compute_flops_per_node: FlopRate
    #: network bandwidth per node, bytes/s
    network_bandwidth: ByteRate
    #: per-node local memory bandwidth, bytes/s
    memory_bandwidth: ByteRate
    #: per-node-hour price, USD (for the monetary-cost comparison, §7.2)
    usd_per_node_hour: float = 5.24
    #: achieved fraction of the modeled throughput when running
    #: *distributed* (>1 node). Calibrated against the paper's Table 7:
    #: DistGNN's measured 16-node epochs are ~4x a first-principles
    #: compute+network estimate — bulk-synchronous stragglers, replica
    #: maintenance and framework overhead. Single-node runs are already
    #: covered by the achieved per-node FLOP rate.
    distributed_efficiency: float = 0.25

    def with_num_nodes(self, num_nodes: int) -> "CPUClusterSpec":
        return replace(self, num_nodes=num_nodes)


#: per-node rate fields that every capability profile must keep positive
_RATE_FIELDS = ("pcie_bandwidth", "nvlink_bandwidth",
                "cpu_accumulate_bandwidth")


def validate_node_spec(where: str, spec: PlatformSpec) -> None:
    """Reject a capability profile with non-positive capacities/rates.

    ``where`` names the profile in the message (``"node_specs[2]"``,
    ``"node"``). :class:`ClusterSpec` runs it over ``node_specs``; the
    platform runs it over the base ``node`` profile where it builds its
    rate table, so no price ever divides by a zero or negative rate.
    """
    label = f"{where} ({spec.name!r})"
    for field in _RATE_FIELDS:
        if getattr(spec, field) <= 0:
            raise ConfigurationError(
                f"{label}: {field} must be positive, got "
                f"{getattr(spec, field)!r} - every node profile needs "
                f"achievable transfer rates"
            )
    if spec.gpu.compute_flops <= 0 or spec.gpu.memory_bandwidth <= 0:
        raise ConfigurationError(
            f"{label}: GPU rates must be positive (compute_flops="
            f"{spec.gpu.compute_flops!r}, memory_bandwidth="
            f"{spec.gpu.memory_bandwidth!r}) - a zero-rate GPU would "
            f"stall the simulated timeline forever"
        )
    if spec.gpu.memory_bytes <= 0 or spec.host_memory_bytes <= 0:
        raise ConfigurationError(
            f"{label}: memory capacities must be positive "
            f"(gpu.memory_bytes={spec.gpu.memory_bytes!r}, "
            f"host_memory_bytes={spec.host_memory_bytes!r})"
        )
    if spec.nic_bandwidth is not None and spec.nic_bandwidth <= 0:
        raise ConfigurationError(
            f"{label}: nic_bandwidth must be positive when set, got "
            f"{spec.nic_bandwidth!r} - use None to inherit the "
            f"cluster-wide network_bandwidth"
        )


@dataclass(frozen=True)
class ClusterSpec:
    """N multi-GPU servers joined by a cluster network.

    The scale-out testbed of the multi-node extension: by default every
    node is one ``node`` :class:`PlatformSpec` (the paper's single-server
    platform), and nodes exchange halo rows / gradients over full-duplex
    links wired as ``topology`` (flat non-blocking switch by default;
    oversubscribed spine and rail-optimized fabrics via
    :class:`NetworkTopology`). ``network_bandwidth`` is the achieved
    per-link, per-direction byte rate; ``network_latency`` the fixed
    per-message setup cost charged to every network task.

    Mixed-generation fleets set ``node_specs`` — one capability profile
    per node (same GPU count everywhere; profiles vary throughput, host
    memory, and NIC rate). ``node_specs=None`` keeps the homogeneous
    N-copies-of-``node`` behavior bit-for-bit.
    """

    name: str
    num_nodes: int
    node: PlatformSpec
    #: achieved bytes/second per link per direction
    network_bandwidth: ByteRate
    #: seconds of fixed per-message overhead
    network_latency: Seconds
    #: how the nodes are wired (flat / spine / rail)
    topology: NetworkTopology = FLAT_TOPOLOGY
    #: per-node capability profiles, ``node_specs[n]`` for node ``n``;
    #: ``None`` means N identical copies of ``node`` (the homogeneous
    #: default every existing config uses)
    node_specs: Optional[Tuple[PlatformSpec, ...]] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.network_bandwidth <= 0:
            raise ConfigurationError("network_bandwidth must be positive")
        if self.network_latency < 0:
            raise ConfigurationError("network_latency must be >= 0")
        if self.node_specs is None:
            return
        specs = tuple(self.node_specs)
        object.__setattr__(self, "node_specs", specs)
        if not specs:
            raise ConfigurationError(
                "node_specs is empty - list one capability profile per "
                "node, or pass node_specs=None for a homogeneous cluster"
            )
        if len(specs) != self.num_nodes:
            raise ConfigurationError(
                f"node_specs lists {len(specs)} profile(s) but the "
                f"cluster has num_nodes={self.num_nodes} - provide "
                f"exactly one PlatformSpec per node (repeat a profile "
                f"for identical nodes)"
            )
        for index, spec in enumerate(specs):
            if spec.num_gpus != self.node.num_gpus:
                raise ConfigurationError(
                    f"node_specs[{index}] ({spec.name!r}) exposes "
                    f"{spec.num_gpus} GPUs but the cluster's node "
                    f"profile exposes {self.node.num_gpus} - capability "
                    f"profiles vary rates and memory, not GPU count; "
                    f"use .with_num_gpus({self.node.num_gpus})"
                )
            validate_node_spec(f"node_specs[{index}]", spec)

    @property
    def heterogeneous(self) -> bool:
        """True when per-node capability profiles are in force."""
        return self.node_specs is not None

    @property
    def resolved_node_specs(self) -> Tuple[PlatformSpec, ...]:
        """One :class:`PlatformSpec` per node, homogeneous or not."""
        if self.node_specs is not None:
            return self.node_specs
        return (self.node,) * self.num_nodes

    def with_num_nodes(self, num_nodes: int) -> "ClusterSpec":
        """Copy of this spec with a different node count.

        A heterogeneous profile list does not resize meaningfully, so it
        is dropped: the copy is homogeneous again.
        """
        return replace(self, num_nodes=num_nodes, node_specs=None)

    def with_node(self, node: PlatformSpec) -> "ClusterSpec":
        """Copy of this spec with a different per-node server."""
        return replace(self, node=node)

    def with_topology(self, topology: NetworkTopology) -> "ClusterSpec":
        """Copy of this spec with a different network topology."""
        return replace(self, topology=topology)

    def with_node_specs(
            self, node_specs: Optional[Tuple[PlatformSpec, ...]],
    ) -> "ClusterSpec":
        """Copy of this spec with per-node capability profiles.

        Also rewrites ``num_nodes`` to match and ``node`` to the first
        profile, so ``with_node_specs`` is the one-call way to build a
        mixed fleet.
        """
        if node_specs is None:
            return replace(self, node_specs=None)
        specs = tuple(node_specs)
        if not specs:
            raise ConfigurationError(
                "node_specs is empty - list one capability profile per "
                "node, or pass None for a homogeneous cluster"
            )
        return replace(self, num_nodes=len(specs), node=specs[0],
                       node_specs=specs)


# Achieved (not peak) throughputs, calibrated against the paper's own
# measurements: DGL's 2-layer GCN epoch on reddit takes 0.19 s (Table 5),
# which at ~7.3e11 flops/epoch implies ~4 TFLOP/s achieved on the SpMM+GEMM
# mix; DistGNN's 4.2 s on one CPU node implies ~0.17 TFLOP/s per node.
A100_GPU = GPUSpec(
    name="A100-80GB",
    memory_bytes=80 * GB,
    compute_flops=4e12,           # achieved on the GNN kernel mix
    memory_bandwidth=1_600 * GB,  # ~2 TB/s peak HBM2e, ~80 % achieved
)

A100_SERVER = PlatformSpec(
    name="4xA100-NVLink",
    num_gpus=4,
    gpu=A100_GPU,
    host_memory_bytes=512 * GB,
    pcie_bandwidth=26 * GB,       # PCIe 4.0 x16, ~80 % of the 32 GB/s peak
    nvlink_bandwidth=180 * GB,    # 4x NVLink 3.0, ~90 % of 200 GB/s
    qpi_factor=0.55,              # remote-socket host access penalty
    cpu_accumulate_bandwidth=20 * GB,
    num_sockets=2,
)

PCIE_ONLY_SERVER = PlatformSpec(
    name="4xA100-PCIe",
    num_gpus=4,
    gpu=A100_GPU,
    host_memory_bytes=512 * GB,
    pcie_bandwidth=26 * GB,
    nvlink_bandwidth=26 * GB,     # T_dd == T_hd: P2P brings no benefit
    qpi_factor=0.55,
    cpu_accumulate_bandwidth=20 * GB,
    num_sockets=2,
)

CPU_NODE = CPUClusterSpec(
    name="ecs.r5.16xlarge",
    num_nodes=1,
    memory_per_node=512 * GB,
    compute_flops_per_node=0.15e12,  # calibrated to DistGNN's Table 5 rows
    network_bandwidth=2.5 * GB,      # 20 Gbps
    memory_bandwidth=80 * GB,
    usd_per_node_hour=5.24,
)

ECS_CLUSTER = CPU_NODE.with_num_nodes(16)

# Previous-generation server for mixed fleets: roughly half the A100's
# achieved GNN-mix throughput, HBM2 instead of HBM2e, PCIe 3.0 host
# links, less host DRAM, and a 50 Gbps NIC where the A100 nodes ride the
# cluster's full 100 Gbps links.
V100_GPU = GPUSpec(
    name="V100-32GB",
    memory_bytes=32 * GB,
    compute_flops=2e12,           # ~half the A100's achieved GNN rate
    memory_bandwidth=720 * GB,    # ~900 GB/s peak HBM2, ~80 % achieved
)

V100_SERVER = PlatformSpec(
    name="4xV100-NVLink",
    num_gpus=4,
    gpu=V100_GPU,
    host_memory_bytes=384 * GB,
    pcie_bandwidth=13 * GB,       # PCIe 3.0 x16, ~80 % of 16 GB/s peak
    nvlink_bandwidth=120 * GB,    # NVLink 2.0, ~80 % of 150 GB/s
    qpi_factor=0.55,
    cpu_accumulate_bandwidth=15 * GB,
    num_sockets=2,
    nic_bandwidth=5.5 * GB,       # 50 Gbps NIC, ~90 % achieved
)

#: named capability profiles the CLI's ``--node-spec NAME[:COUNT]`` accepts
NODE_SPECS = {
    "a100": A100_SERVER,
    "a100-pcie": PCIE_ONLY_SERVER,
    "v100": V100_SERVER,
}

A100_CLUSTER = ClusterSpec(
    name="2x(4xA100-NVLink)",
    num_nodes=2,
    node=A100_SERVER,
    network_bandwidth=11 * GB,   # 100 Gbps links, ~90 % achieved
    network_latency=5e-6,        # RDMA-class per-message latency
)

