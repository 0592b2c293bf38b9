"""The simulated platform: one class, one rate table.

A platform bundles per-GPU memory pools, per-node host pools, and the
transfer/compute cost functions derived from a
:class:`~repro.hardware.spec.ClusterSpec`. Trainers ask it two kinds of
questions:

* *capacity* — allocate/free device buffers (possibly raising OOM);
* *cost* — how many seconds a transfer of B bytes or a kernel of F flops
  takes on this hardware.

There is one class body: N multi-GPU servers joined by a network, with
*global* GPU ids, one host pool per node, and ``net_seconds`` pricing
inter-node messages. ``MultiGPUPlatform(server)`` builds the paper's
standalone server as a one-node cluster whose network is never priced;
``ClusterPlatform(cluster)`` is the same class constructed from a
:class:`~repro.hardware.spec.ClusterSpec`.

Every price reads one *rate table*: per-GPU arrays (each GPU's owning
node's rates under the active placement) and per-node arrays (CPU, NIC,
directed-link factors), rebuilt whenever the placement or the fault state
changes — exactly where ``rates_version`` is bumped. A cost method is
``amount / rate[devices]``; without ``devices`` it prices at the
reference node profile (``cluster.node``, fault-free). Identical profiles
divide by the same float, so a homogeneous fleet, a one-node cluster and
a standalone server price bit-identically (``tests/test_cluster.py``,
``tests/test_costs.py``).

The NUMA model follows §7.6: with NUMA-aware vertex-data placement (possible
when each socket's GPUs only read their socket's DRAM) H2D runs at full PCIe
bandwidth; when the working set spans sockets (the paper hit this with ≤ 2
GPUs), a fraction of traffic crosses QPI at ``qpi_factor`` of PCIe speed.
The blend is the ``"h2d"`` entry of the rate table (``_profile_rates``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, FaultError, PartitionError
from repro.faults.schedule import FaultState
from repro.hardware.memory import MemoryPool
from repro.hardware.spec import (
    ClusterSpec,
    NetworkTopology,
    PlatformSpec,
    validate_node_spec,
)
from repro.units import ByteRate, Bytes, BytesLike, FlopsLike, SecondsLike

__all__ = ["SimulatedGPU", "MultiGPUPlatform", "ClusterPlatform"]

#: rate-table entries gathered per GPU (by owning node) vs kept per node
_GPU_RATES = ("h2d", "d2d", "ru", "compute")


class SimulatedGPU:
    """One device: an id, a socket, and a memory pool."""

    def __init__(self, device_id: int, socket: int, memory_bytes: Bytes):
        self.device_id = device_id
        self.socket = socket
        self.memory = MemoryPool(memory_bytes, name=f"gpu{device_id}")

    def __repr__(self) -> str:
        return f"SimulatedGPU(id={self.device_id}, socket={self.socket})"


class MultiGPUPlatform:
    """Cost + capacity model of N multi-GPU servers on a cluster network.

    Constructed from a :class:`PlatformSpec` it is the paper's standalone
    server: one node, flat topology, a network nothing ever crosses.

    By default GPU ``p`` (global id) lives on node ``p // gpus_per_node``
    as local device ``p % gpus_per_node`` — the contiguous-block
    partition→node→GPU map (also exposed as
    :func:`repro.partition.partition_nodes`). The map is *explicit*,
    not baked in: ``placement`` (or :meth:`set_placement`) installs an
    arbitrary GPU→node assignment — exactly balanced by default, or
    uneven within ``gpus_per_node ± max_imbalance`` when the
    memory-bounded placement search skews node loads — which is how the
    placement search (:func:`repro.partition.search_placement`) moves
    whole partitions between nodes. Partition p keeps global GPU id p
    everywhere, only :meth:`node_of` answers change, and with them the
    rate-table rows, the executor's link routing, rail selection and
    host-pool affinity.
    """

    def __init__(self, spec: PlatformSpec, num_gpus: Optional[int] = None,
                 numa_aware: Optional[bool] = None):
        # No network to price: infinitely fast, zero latency, never read
        # (every collective returns 0.0 for one participant).
        self._build(ClusterSpec(spec.name, 1, spec, math.inf, 0.0),
                    num_gpus, numa_aware)

    def _build(self, cluster: ClusterSpec, gpus_per_node: Optional[int],
               numa_aware: Optional[bool], placement=None,
               max_imbalance: int = 0) -> None:
        node_spec = cluster.node
        per_node = node_spec.num_gpus if gpus_per_node is None \
            else gpus_per_node
        if not 1 <= per_node <= node_spec.num_gpus:
            raise ConfigurationError(
                f"node exposes {node_spec.num_gpus} GPUs, requested {per_node}"
            )
        self.cluster = cluster
        #: the reference node profile: what ``devices=None`` prices at
        self.spec = node_spec
        #: one capability profile per node (N copies of ``cluster.node``
        #: unless the spec names per-node profiles)
        self.node_specs = cluster.resolved_node_specs
        self._fault_state = FaultState()
        #: bumped whenever per-device rates may have changed (fault state
        #: applied, placement re-installed); cost caches key on it.
        self.rates_version = 0
        self._gpus_per_node = per_node
        self.num_gpus = cluster.num_nodes * per_node
        self.gpus: List[SimulatedGPU] = [
            SimulatedGPU(device, 0, node_spec.gpu.memory_bytes)
            for device in range(self.num_gpus)
        ]
        # NUMA-aware placement needs all sockets' DRAM dedicated to their own
        # GPUs — decided by a node's local GPU count; the paper could only
        # enable it when using > 2 GPUs (§7.6).
        if numa_aware is None:
            numa_aware = per_node > node_spec.num_sockets
        self.numa_aware = numa_aware
        self.max_imbalance = max_imbalance
        # ClusterSpec validated ``node_specs``; the base profile — every
        # node of a homogeneous fleet, a wrapped standalone server, and
        # the reference rates — is validated here, once.
        validate_node_spec("node", node_spec)
        self._reference: Dict[str, float] = self._profile_rates(node_spec)
        profiles = [self._profile_rates(spec) for spec in self.node_specs]
        #: fault-free per-node rates, one ``(num_nodes,)`` array per kind
        self._base: Dict[str, np.ndarray] = {
            kind: np.array([profile[kind] for profile in profiles])
            for kind in self._reference
        }
        self.set_placement(placement)
        self.reset_memory()

    @property
    def heterogeneous(self) -> bool:
        """True when nodes price differently: distinct capability
        profiles, or an active fault state."""
        return self.cluster.heterogeneous or self.fault_state is not None

    def set_placement(self, placement=None,
                      max_imbalance: Optional[int] = None) -> None:
        """Install a GPU→node assignment (``None`` restores block map).

        ``placement[p]`` is the node hosting global GPU (= partition) p.
        It must assign every GPU exactly once, name only this cluster's
        nodes, and leave no node empty — a stale placement carried over
        from a relabeled partition raises
        :class:`~repro.errors.ConfigurationError` instead of silently
        mis-routing rails. Per-node counts must stay within
        ``gpus_per_node ± max_imbalance`` (exact balance by default;
        passing ``max_imbalance`` here updates the platform's stored
        slack); sockets follow each GPU's local rank within its node.
        Call before building communicators/trainers — tasks already
        scheduled keep the link ids they were routed with.
        """
        # Deferred import: repro.partition pulls graph/comm modules in,
        # and importing them at module scope would cycle back here.
        from repro.partition.nodes import partition_nodes

        if max_imbalance is not None:
            self.max_imbalance = max_imbalance
        nodes = self.num_nodes
        try:
            resolved = partition_nodes(self.num_gpus, nodes, placement,
                                       max_imbalance=self.max_imbalance,
                                       dead_nodes=self.dead_nodes)
        except PartitionError as error:
            raise ConfigurationError(str(error)) from error
        self._placement = resolved
        self._node_gpus: List[List[int]] = [
            np.flatnonzero(resolved == node).tolist()
            for node in range(nodes)
        ]
        self._local_rank = np.empty(self.num_gpus, dtype=np.int64)
        gpus_per_socket = max(self.spec.num_gpus // self.spec.num_sockets, 1)
        last_socket = self.spec.num_sockets - 1
        for members in self._node_gpus:
            for rank, device in enumerate(members):
                self._local_rank[device] = rank
                # An overloaded node's extra GPUs (uneven placements) pile
                # onto the last socket — ranks never invent sockets the
                # node spec does not have.
                self.gpus[device].socket = min(rank // gpus_per_socket,
                                               last_socket)
        self._rebuild_rates()

    # -- fault state --------------------------------------------------------
    @property
    def fault_state(self) -> Optional[FaultState]:
        """The active :class:`repro.faults.FaultState`, or ``None``."""
        return None if self._fault_state.inactive else self._fault_state

    @property
    def dead_nodes(self) -> frozenset:
        """Nodes whose death time has passed under the active fault state."""
        return self._fault_state.dead

    @property
    def alive_nodes(self) -> List[int]:
        """Node ids still serving compute/memory/traffic, ascending."""
        return [node for node in range(self.num_nodes)
                if node not in self.dead_nodes]

    def apply_fault_state(self, state: Optional[FaultState]) -> None:
        """Install the perturbations of one :class:`repro.faults.FaultState`.

        Straggler compute factors degrade the per-GPU kernel rate of
        every GPU placed on the struck node; NIC factors degrade the
        node's wire rate (felt by both directions of every link touching
        it); link factors additionally scale individual directed links;
        dead nodes stop holding host-data shares and are reported via
        :attr:`dead_nodes` / :attr:`alive_nodes` (evacuating their
        partitions is the trainer's elastic re-balance, not the
        platform's job). Faults only rewrite rate-table entries, so
        applying an *inactive* state (or ``None``) restores the
        fault-free table exactly — the float-identity contract
        ``tests/test_faults.py`` locks.

        Nodes already holding a placement keep it; callers re-place
        after a death (``set_placement`` refuses placements that use
        dead nodes).
        """
        if state is None:
            state = FaultState()
        if not isinstance(state, FaultState):
            raise ConfigurationError(
                f"expected a FaultState, got {type(state).__name__}")
        if state.max_node() >= self.num_nodes:
            raise FaultError(
                f"fault state references node {state.max_node()} but the "
                f"cluster has {self.num_nodes} nodes")
        if len(state.dead) >= self.num_nodes:
            raise FaultError(
                f"fault state kills all {self.num_nodes} nodes; at least "
                f"one must survive")
        if not state.dead >= self.dead_nodes:
            raise FaultError(
                "node deaths are permanent: new fault state resurrects "
                f"{sorted(self.dead_nodes - state.dead)}")
        self._fault_state = state
        self._rebuild_rates()

    # -- the rate table -----------------------------------------------------
    def _profile_rates(self, spec: PlatformSpec) -> Dict[str, float]:
        """One node profile's byte/flop rate per priced resource."""
        h2d = spec.pcie_bandwidth
        if not self.numa_aware:
            # Half the vertex data lives on the remote socket and crosses
            # QPI (§7.6).
            remote_fraction = 1.0 - 1.0 / spec.num_sockets
            h2d = ((1.0 - remote_fraction) * h2d
                   + remote_fraction * h2d * spec.qpi_factor)
        nic = spec.nic_bandwidth if spec.nic_bandwidth is not None \
            else self.cluster.network_bandwidth
        return {
            "h2d": float(h2d),
            "d2d": float(spec.nvlink_bandwidth),
            "ru": float(spec.gpu.memory_bandwidth),
            "compute": float(spec.gpu.compute_flops),
            "cpu": float(spec.cpu_accumulate_bandwidth),
            "nic": float(nic),
        }

    def _faulted(self, kind: str, factors) -> np.ndarray:
        """Per-node ``kind`` rates with ``(node, factor)`` pairs applied."""
        rates = self._base[kind].copy()
        for node, factor in factors:
            rates[node] *= factor
        return rates

    def _rebuild_rates(self) -> None:
        """Rebuild the rate table for the active placement + fault state.

        ``_rates[kind][p]`` (kind in ``_GPU_RATES``) is the rate of the
        node the placement assigns global GPU ``p`` to, so re-placing a
        partition onto a different hardware generation reprices its
        kernels and transfers; ``"cpu"`` / ``"nic"`` stay per node. GPU
        memory capacities follow the placement too — only before any
        allocations exist (placements are installed before trainers
        build their working sets).
        """
        state = self._fault_state
        self._by_node: Dict[str, np.ndarray] = dict(
            self._base, compute=self._faulted("compute", state.compute),
            nic=self._faulted("nic", state.nic))
        owner = self._placement
        self._rates: Dict[str, np.ndarray] = {
            kind: rates[owner] if kind in _GPU_RATES else rates
            for kind, rates in self._by_node.items()
        }
        self._link_factor = np.ones((self.num_nodes, self.num_nodes))
        for src, dst, factor in state.links:
            self._link_factor[src, dst] = factor
        for device in range(self.num_gpus):
            capacity = self.node_specs[owner[device]].gpu.memory_bytes
            pool = self.gpus[device].memory
            if pool.capacity == capacity:
                continue
            if pool.in_use:
                raise ConfigurationError(
                    f"cannot re-place gpu{device} onto a node with "
                    f"{capacity} B of GPU memory while {pool.in_use} B "
                    f"are allocated against its current {pool.capacity} "
                    f"B pool - call reset_memory() before re-placing "
                    f"across hardware generations"
                )
            self.gpus[device].memory = MemoryPool(capacity,
                                                  name=f"gpu{device}")
        self.rates_version += 1

    def _rate(self, kind: str, devices):
        """``kind``'s rate per element of ``devices`` (global GPU ids —
        node ids for ``"cpu"``), or the reference profile's for ``None``."""
        return (self._reference[kind] if devices is None
                else self._rates[kind][devices])

    def node_compute_rates(self) -> np.ndarray:
        """Per-node effective GPU flop rates (fault factors applied)."""
        return self._by_node["compute"].copy()

    def node_nic_rates(self) -> np.ndarray:
        """Per-node effective NIC byte rates (fault factors applied)."""
        return self._by_node["nic"].copy()

    def link_factors(self) -> np.ndarray:
        """(N, N) directed-link rate factors (all 1.0 when undegraded)."""
        return self._link_factor.copy()

    # -- transfer costs (seconds) -----------------------------------------
    # ``devices``: global GPU id(s), scalar or array, aligned elementwise
    # with ``nbytes``/``flops``; each element prices at its node's rates.
    def h2d_seconds(self, nbytes: BytesLike, devices=None) -> SecondsLike:
        """Host→GPU (or GPU→host) transfer over PCIe, NUMA-adjusted."""
        return nbytes / self._rate("h2d", devices)

    def d2d_seconds(self, nbytes: BytesLike, devices=None) -> SecondsLike:
        """GPU→GPU transfer over NVLink / P2P (rates of the reading GPU)."""
        return nbytes / self._rate("d2d", devices)

    def reuse_seconds(self, nbytes: BytesLike, devices=None) -> SecondsLike:
        """Intra-GPU in-place data reuse (HBM-bandwidth bookkeeping)."""
        return nbytes / self._rate("ru", devices)

    def gpu_compute_seconds(self, flops: FlopsLike, devices=None) -> SecondsLike:
        """Kernel time for ``flops`` floating-point operations on one GPU."""
        return flops / self._rate("compute", devices)

    def cpu_accumulate_seconds(self, nbytes: BytesLike, node=None) -> SecondsLike:
        """Host-side gradient accumulation of ``nbytes`` of gradient data."""
        return nbytes / self._rate("cpu", node)

    def link_rate(self, src=None, dst=None) -> ByteRate:
        """Byte rate of the directed ``src → dst`` link (node ids, scalar
        or array): the *slower endpoint's* NIC — traffic touching a slow
        node pays its wire speed in both directions — times the link's
        degradation factor; the cluster-wide rate without endpoints. The
        one link formula: simulated (:meth:`net_seconds`) and predicted
        (``ClusterCostModel``) prices both read it.
        """
        if src is None or dst is None:
            return self.cluster.network_bandwidth
        nic = self._by_node["nic"]
        return np.minimum(nic[src], nic[dst]) * self._link_factor[src, dst]

    def net_seconds(self, nbytes: BytesLike, src=None, dst=None) -> SecondsLike:
        """One inter-node message: fixed latency + bytes over one link.

        On a rail topology a message rides one of ``num_rails`` parallel
        rails at ``link_rate / num_rails`` each; flat and spine messages
        ride a full-rate per-pair link (spine contention is modeled as a
        shared-resource hold, :meth:`spine_hold_seconds`, not as a slower
        link). ``src``/``dst`` are node ids, elementwise with ``nbytes``.
        """
        if self.num_nodes == 1:
            raise ConfigurationError(
                f"{self.spec.name} is a single node; no network to price"
            )
        return (self.cluster.network_latency
                + nbytes / (self.link_rate(src, dst) / self.num_rails))

    def spine_hold_seconds(self, nbytes: BytesLike) -> SecondsLike:
        """Serialized spine-core occupancy of one ``nbytes`` message.

        An oversubscribed core has capacity ``N * bandwidth / F``; the
        hold is the *excess* transit time over a non-blocking core,
        ``(F - 1) * nbytes / (N * bandwidth)``, serially across all
        messages. ``F == 1`` (or a non-spine topology) holds nothing, so
        those schedules are float-identical to the flat network.
        """
        topology = self.topology
        if topology.kind != "spine" or topology.oversubscription == 1.0:
            return 0.0
        return ((topology.oversubscription - 1.0) * nbytes
                / (self.num_nodes * self.cluster.network_bandwidth))

    # -- node topology ------------------------------------------------------
    @property
    def placement(self) -> np.ndarray:
        """The active GPU→node assignment (copy; length ``num_gpus``)."""
        return self._placement.copy()

    @property
    def num_nodes(self) -> int:
        """Server count (1 for a standalone server)."""
        return self.cluster.num_nodes

    @property
    def gpus_per_node(self) -> int:
        return self._gpus_per_node

    def node_of(self, device: int) -> int:
        """Node of a global GPU id; pseudo-devices (< 0) map to node 0."""
        if device < 0:
            return 0
        return int(self._placement[device])

    def local_rank(self, device: int) -> int:
        """Rank of ``device`` among its node's GPUs (placement-aware)."""
        return int(self._local_rank[device])

    def _check_node(self, node: int) -> int:
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(
                f"no node {node} on a {self.num_nodes}-node platform")
        return node

    def node_gpus(self, node: int) -> List[int]:
        """Global GPU ids hosted on ``node``, ascending."""
        return list(self._node_gpus[self._check_node(node)])

    @property
    def topology(self) -> NetworkTopology:
        """The cluster's network topology (flat / spine / rail)."""
        return self.cluster.topology

    @property
    def num_rails(self) -> int:
        """Parallel rails per directed node pair (1 unless rail-wired)."""
        return self.topology.resolved_rails(self._gpus_per_node)

    # -- host memory, node-aware -------------------------------------------
    @property
    def host(self) -> MemoryPool:
        """Node 0's host pool (*the* host pool of a standalone server)."""
        return self.hosts[0]

    def host_pool(self, node: int = 0) -> MemoryPool:
        """The host memory pool of ``node``."""
        return self.hosts[self._check_node(node)]

    def split_host_bytes(self, nbytes: Bytes) -> List[Tuple[MemoryPool, Bytes]]:
        """(pool, bytes) shares of data sharded across node hosts.

        Shares are *proportional to host capacity*, so a small-DRAM node
        holds a small slice of the vertex data; equal capacities floor to
        the even split exactly (``n·c // (N·c) == n // N``) and one node
        holds everything. Dead nodes hold nothing: their capacity counts
        as zero and the data re-shards across the survivors. The
        remainder lands on the first alive node.
        """
        capacities = [
            0 if node in self.dead_nodes else spec.host_memory_bytes
            for node, spec in enumerate(self.node_specs)
        ]
        total = sum(capacities)
        shares = [int(nbytes) * capacity // total for capacity in capacities]
        shares[self.alive_nodes[0]] += nbytes - sum(shares)
        return list(zip(self.hosts, shares))

    def host_in_use(self) -> Bytes:
        """Bytes currently allocated across all node host pools."""
        return sum(pool.in_use for pool in self.hosts)

    # -- throughput triple for the Eq. 4 cost model --------------------------
    def throughputs(self) -> tuple:
        """(T_hd, T_dd, T_ru) in bytes/second, NUMA-adjusted."""
        t_hd = 1.0 / self.h2d_seconds(1.0)
        return (t_hd, self.spec.nvlink_bandwidth, self.spec.gpu.memory_bandwidth)

    # -- memory management -----------------------------------------------
    def reset_memory(self) -> None:
        """Drop all allocations (between experiment runs).

        Pool capacities follow the capability profiles: each GPU gets
        its *owning node's* memory size under the active placement, each
        host its node's DRAM.
        """
        for gpu in self.gpus:
            spec = self.node_specs[self.node_of(gpu.device_id)]
            gpu.memory = MemoryPool(spec.gpu.memory_bytes,
                                    name=f"gpu{gpu.device_id}")
        self.hosts: List[MemoryPool] = [
            MemoryPool(spec.host_memory_bytes, name=f"host{node}")
            for node, spec in enumerate(self.node_specs)
        ]

    def peak_gpu_memory(self) -> Bytes:
        """Max peak usage across devices."""
        return max(gpu.memory.peak for gpu in self.gpus)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(cluster={self.cluster.name!r}, "
                f"nodes={self.num_nodes}, gpus_per_node="
                f"{self._gpus_per_node}, numa_aware={self.numa_aware})")


class ClusterPlatform(MultiGPUPlatform):
    """:class:`MultiGPUPlatform` constructed from a :class:`ClusterSpec` —
    a constructor only. With ``num_nodes == 1`` every cost and capacity
    answer is identical to ``MultiGPUPlatform(cluster.node)``."""

    def __init__(self, cluster: ClusterSpec,
                 gpus_per_node: Optional[int] = None,
                 numa_aware: Optional[bool] = None,
                 placement=None, max_imbalance: int = 0):
        self._build(cluster, gpus_per_node, numa_aware, placement,
                    max_imbalance)
