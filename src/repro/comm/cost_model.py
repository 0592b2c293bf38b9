"""Communication cost models: Eq. 4 (paper §5.3) and cluster collectives.

The single-server model is the paper's Eq. 4:

    C = V⁺ᵣᵤ / T_hd  +  (V_ori − V⁺p2p) / T_dd  +  (V⁺p2p − V⁺ᵣᵤ) / T_ru

with volumes in bytes and throughputs in bytes/second. T_hd, T_dd and T_ru
are environment parameters taken from a
:class:`~repro.hardware.platform.MultiGPUPlatform`; the subgraph
reorganization heuristic minimizes C by maximizing the two dedup volumes.

:class:`ClusterCostModel` prices the scale-out extension's inter-node
collectives on top (the paper stops at one server; §7.1's DistGNN cluster
is the reference point): ring/tree all-reduce for the epoch-end gradient
synchronization and point-to-point halo exchange for cross-node neighbor
rows. It is a *view* of a platform's network — it stores no rate, so the
predicted prices here and the simulated ``net_seconds`` read the same
rate table and cannot drift. All sizes in bytes, all results in seconds;
the executor turns these into dependency-wired ``net`` tasks on the
event timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.comm.analysis import DedupVolumes, measure_volumes
from repro.errors import ConfigurationError
from repro.hardware.platform import ClusterPlatform, MultiGPUPlatform
from repro.hardware.spec import ClusterSpec, NetworkTopology
from repro.partition.two_level import TwoLevelPartition
from repro.units import ByteRate, Bytes, BytesLike, Seconds

__all__ = ["CommCostModel", "ClusterCostModel", "communication_cost",
           "ALLREDUCE_ALGORITHMS"]

#: inter-node all-reduce schedules: bandwidth-optimal ``ring`` (2(N-1)
#: steps of B/N) vs latency-optimal ``tree`` (2⌈log2 N⌉ steps of B)
ALLREDUCE_ALGORITHMS = ("ring", "tree")


@dataclass(frozen=True)
class CommCostModel:
    """Throughput triple (bytes/second)."""

    t_hd: ByteRate
    t_dd: ByteRate
    t_ru: ByteRate

    def __post_init__(self) -> None:
        if min(self.t_hd, self.t_dd, self.t_ru) <= 0:
            raise ConfigurationError("throughputs must be positive")

    @staticmethod
    def from_platform(platform: MultiGPUPlatform) -> "CommCostModel":
        t_hd, t_dd, t_ru = platform.throughputs()
        return CommCostModel(t_hd=t_hd, t_dd=t_dd, t_ru=t_ru)

    def cost_seconds(self, volumes: DedupVolumes, row_bytes: Bytes) -> Seconds:
        """Eq. 4 for one epoch-layer sweep (volumes are vertex rows)."""
        host = volumes.v_ru * row_bytes / self.t_hd
        inter = volumes.inter_gpu_dedup * row_bytes / self.t_dd
        intra = volumes.intra_gpu_dedup * row_bytes / self.t_ru
        return host + inter + intra

    def vanilla_cost_seconds(self, volumes: DedupVolumes, row_bytes: Bytes) -> Seconds:
        """Cost of the no-dedup baseline: everything crosses PCIe."""
        return volumes.v_ori * row_bytes / self.t_hd


@dataclass(frozen=True)
class ClusterCostModel:
    """Inter-node collective costs: a live view of a platform's network.

    The model holds the platform and stores no rate of its own — NIC
    rates, link factors, the surviving node set, latency and topology
    are read from the platform's rate table at pricing time, so a model
    obtained before a fault state or placement change prices exactly
    like one obtained after, and predicted costs cannot drift from the
    simulated ``net_seconds`` (both read
    :meth:`~repro.hardware.platform.MultiGPUPlatform.link_rate`).

    Every cost is the *per-node busy time* of the collective: with
    non-blocking links and equal payloads, each node's NIC is busy that
    long and the collective's wall time equals it, so the executor can
    submit one ``net`` task per participating link with these seconds.

    The topology adjusts the prices for non-flat fabrics. A collective
    keeps every node's uplink busy simultaneously, so on a ``spine``
    fabric the oversubscribed core caps each flow at
    ``bandwidth / oversubscription`` — the bandwidth terms scale by the
    oversubscription factor. A ``rail`` fabric shards the payload over
    its parallel rails (each at ``bandwidth / rails``, all active
    concurrently), which reproduces the flat aggregate rate exactly, so
    rail collectives price like flat ones. ``flat`` divides by 1.0 and is
    float-identical to the pre-topology model.
    """

    platform: MultiGPUPlatform

    @staticmethod
    def from_cluster(cluster: ClusterSpec) -> "ClusterCostModel":
        """The model of a fresh, fault-free platform built from ``cluster``."""
        return ClusterCostModel(ClusterPlatform(cluster))

    @staticmethod
    def from_platform(platform: MultiGPUPlatform) -> "ClusterCostModel":
        """The view over ``platform``'s current — and future — rates."""
        return ClusterCostModel(platform)

    @property
    def latency(self) -> Seconds:
        """Fixed per-message setup cost."""
        return self.platform.cluster.network_latency

    @property
    def topology(self) -> NetworkTopology:
        return self.platform.topology

    @property
    def num_alive(self) -> int:
        """Nodes participating in collectives (all of them, or survivors)."""
        return len(self.platform.alive_nodes)

    def link_bandwidth(self, src: Optional[int] = None,
                       dst: Optional[int] = None) -> ByteRate:
        """Byte rate of the ``src → dst`` link: the slower endpoint's NIC
        times the link's degradation factor (the cluster-wide reference
        rate without endpoints) — the platform's one link formula.
        """
        return float(self.platform.link_rate(src, dst))

    @property
    def collective_bandwidth(self) -> ByteRate:
        """Per-flow byte rate when every node's uplink is busy at once.

        A synchronous collective is paced by its *slowest member's* NIC —
        every ring/tree step waits for the slow node's leg — so the
        per-flow rate is the fleet minimum (identical profiles reduce to
        the homogeneous rate exactly). Dead nodes no longer participate,
        so only surviving members are considered; a degraded link
        between two survivors paces the whole collective the same way a
        slow NIC does (factors are <= 1 with a unit diagonal, so the
        members' sub-matrix minimum is the worst surviving link).
        """
        members = self.platform.alive_nodes
        bandwidth = float(
            self.platform.node_nic_rates()[members].min()
            * self.platform.link_factors()[np.ix_(members, members)].min())
        if self.topology.kind == "spine":
            return bandwidth / self.topology.oversubscription
        return bandwidth

    def ring_allreduce_seconds(self, nbytes: BytesLike) -> Seconds:
        """Bandwidth-optimal ring all-reduce of an ``nbytes`` payload.

        2(N−1) steps (reduce-scatter + all-gather), each moving B/N bytes
        per link: 2(N−1)(α + B/(N·β)). Degenerate cases: one node costs
        nothing (nothing to synchronize); two nodes reduce to a single
        exchange-and-combine round trip, which the same formula prices as
        2(α + B/2β). The N·1-GPU configuration (one GPU per node) uses
        exactly this path for its whole gradient synchronization — no
        intra-node leg exists. N is the number of *participating* nodes:
        after a fault-injected death the ring closes over the survivors.
        """
        if self.num_alive == 1:
            return 0.0
        steps = 2 * (self.num_alive - 1)
        return steps * (self.latency
                        + nbytes / self.num_alive / self.collective_bandwidth)

    def tree_allreduce_seconds(self, nbytes: BytesLike) -> Seconds:
        """Latency-optimal binary-tree all-reduce (reduce + broadcast).

        2⌈log2 N⌉ steps, each moving the full payload over one link:
        2⌈log2 N⌉(α + B/β). Beats the ring only for small payloads or very
        large N·α; the trainer exposes both so the crossover is visible.
        """
        if self.num_alive == 1:
            return 0.0
        depth = math.ceil(math.log2(self.num_alive))
        return 2 * depth * (self.latency + nbytes / self.collective_bandwidth)

    def allreduce_seconds(self, nbytes: BytesLike,
                          algorithm: str = "ring") -> float:
        """Dispatch on :data:`ALLREDUCE_ALGORITHMS`."""
        if algorithm not in ALLREDUCE_ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {ALLREDUCE_ALGORITHMS}, "
                f"got {algorithm!r}"
            )
        if algorithm == "ring":
            return self.ring_allreduce_seconds(nbytes)
        return self.tree_allreduce_seconds(nbytes)

    def halo_exchange_seconds(self, nbytes: BytesLike,
                              src: Optional[int] = None,
                              dst: Optional[int] = None) -> float:
        """One point-to-point halo message of ``nbytes`` over one link.

        Zero-byte halos still pay the latency term if a message is sent;
        the executor simply emits no task for an empty halo, so a
        zero-halo partition crosses the network exactly never. With
        ``src``/``dst`` node ids the message is priced at that link's
        rate (the slower endpoint's NIC on a heterogeneous fleet).
        """
        return self.latency + nbytes / self.link_bandwidth(src, dst)

    def halo_volume_seconds(self, nbytes: BytesLike) -> Seconds:
        """Bulk halo traffic: per-message latency amortized away.

        The pricing the net-aware reorganization objective (Algorithm 4's
        net term) uses for cross-node halo rows: halo messages coalesce
        per node pair per batch, so the marginal cost of one more row is
        purely the bandwidth term — at the collective (congested) rate,
        since halo phases keep many links busy at once. One node has no
        network: the cost is exactly zero, whatever the payload — so a
        single-node ``placement_seconds`` can never charge phantom
        preprocessing time. One *surviving* node likewise has nobody
        left to exchange halos with.
        """
        if self.num_alive == 1:
            return 0.0
        return nbytes / self.collective_bandwidth

    def placement_seconds(self, net_rows: int, row_bytes: Bytes,
                          allreduce_bytes: BytesLike = 0.0,
                          algorithm: str = "ring") -> float:
        """Network seconds of a partition→node placement's epoch-layer.

        The objective the placement search minimizes: ``net_rows``
        cross-node halo rows (forward fetches plus staging loads and
        their mirrored gradient flushes) priced at the topology-aware
        congested rate, plus the collective legs of an
        ``allreduce_bytes`` gradient synchronization. The collective
        term is placement-invariant (it depends only on the node count),
        so it never changes which placement wins — it makes the score a
        complete per-epoch-layer network prediction rather than a bare
        halo figure. A zero-byte synchronization adds nothing (the
        trainer emits no collective task for an empty payload, so no
        latency legs exist to price). On a single node both terms are
        zero by construction — ``--placement search`` with ``nodes=1``
        is a true no-op, and this pricing path asserts the zero-payload
        side of that contract.
        """
        seconds = self.halo_volume_seconds(net_rows * row_bytes)
        if allreduce_bytes > 0:
            seconds += self.allreduce_seconds(allreduce_bytes,
                                              algorithm=algorithm)
        return seconds


def communication_cost(partition: TwoLevelPartition, row_bytes: Bytes,
                       model: CommCostModel) -> float:
    """Convenience: measure volumes and apply Eq. 4."""
    return model.cost_seconds(measure_volumes(partition), row_bytes)
