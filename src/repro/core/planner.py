"""The planner: how a (partition, platform state) becomes a runnable fleet.

HongTu's preprocessing is a one-time pipeline — partition, cost-model-
guided reorganization (Algorithm 4), dedup plan — extended here with
partition→node placement and host-memory admission. :func:`plan_fleet` is
that pipeline, and the only place it is written down:

1. **partition** — METIS-seeded two-level partition (or the caller's).
2. **admission inputs** — per-node host budgets and per-partition pinned
   checkpoint bytes. Uneven assignments within ``config.max_imbalance``
   are admitted only when each node's host memory fits the checkpoints
   they pin (:mod:`repro.core.memory_model`'s rule); a heterogeneous
   fleet always plans with budgets — even balanced swaps move checkpoint
   bytes between hosts of *different* capacities there.
3. **capability matrix** — row-equivalent compute (and, for a re-plan on
   a degraded fleet, wire) cost of each partition on each node.
4. **place** — partitions map to nodes through an explicit placement
   array: the seed itself under ``"block"`` (the contiguous map
   ``p → p // gpus_per_node`` unless the caller installed another), the
   searched assignment under ``"search"``, the joint placement↔schedule
   iteration's adopted pair under ``"joint"``. A searched assignment is
   installed on the platform before any communication is planned, so
   link routing, rail selection and host-pool affinity all follow it.
5. **reorganize** — Algorithm 4 under the installed placement (the joint
   policy already iterated it in stage 4).
6. **build plan** — the deduplicated :class:`~repro.comm.plan.CommPlan`
   and the :class:`~repro.core.costs.ChunkShapes` every per-chunk cost
   formula reads.
7. **install + reserve** — the value/gradient communicator pair, built
   over *one* :class:`~repro.comm.executor.PlanStatic` (the routing
   snapshot and per-batch emission constants of this plan under this
   placement), and the run-long reservations: vertex-data shards on the
   node hosts, chunk topology on the GPUs.

Trainer construction runs every stage. An elastic re-balance passes the
``previous`` :class:`FleetPlan` and re-runs place → install → reserve
against the faulted platform: reservations are released first (so budgets
see true headroom), the schedule is not reorganized again outside the
joint loop, and the plan and shapes are rebuilt only when the partition
changed. The two callers differ in nothing but the seed placement and
``previous``: the dead nodes are the platform's, and a re-plan always
plans with admission budgets and a capability matrix that carries the
wire term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.comm.executor import DedupCommunicator, PlanStatic
from repro.comm.joint import joint_placement
from repro.comm.plan import CommPlan, build_comm_plan
from repro.comm.reorganize import ReorganizationResult, reorganize_partition
from repro.core.config import HongTuConfig
from repro.core.costs import ChunkShapes, checkpoint_dims
from repro.core.memory_model import (
    node_host_budgets,
    partition_host_bytes,
    vertex_buffer_bytes,
)
from repro.errors import ConfigurationError, DeviceOutOfMemoryError
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.memory import Allocation, reserve_all
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.nodes import LayoutSweeps
from repro.partition.placement import (
    PlacementResult,
    partition_net_weights,
    search_placement,
)
from repro.partition.two_level import TwoLevelPartition, two_level_partition
from repro.units import SCALAR_BYTES

__all__ = ["FleetPlan", "plan_fleet"]


@dataclass
class FleetPlan:
    """What one :func:`plan_fleet` run decided, built and reserved."""

    partition: TwoLevelPartition
    #: partition→node assignment the communicators route by
    placement: np.ndarray
    #: provenance of the placement search (None under "block")
    placement_result: Optional[PlacementResult]
    #: provenance of the (possibly net-aware) Algorithm 4 run
    reorganization: Optional[ReorganizationResult]
    #: the admission inputs the placement search ran with (None when
    #: exact balance was enforced) — provenance for benches/tests
    node_budgets: Optional[list]
    partition_host_bytes: Optional[np.ndarray]
    #: the capability matrix the search ran with (None: rows-only)
    compute_rows: Optional[np.ndarray]
    #: per-chunk row/edge counts every cost formula reads (rebuilt, like
    #: ``comm_plan``, only when the partition object changes)
    shapes: ChunkShapes
    comm_plan: CommPlan
    # Two buffer families: one stages representations (forward + reload),
    # one accumulates gradients (backward) — §6's transition data buffer
    # and gradient buffer. Both route by the same plan and placement, so
    # they hold the same ``static``; a re-plan builds a new pair and with
    # it a new static.
    comm_values: DedupCommunicator
    comm_grads: DedupCommunicator
    #: run-long reservations, kept so a re-plan can release them
    host_allocations: List[Allocation]
    topology_allocations: List[Allocation]

    def release(self) -> None:
        """Free the run-long host and GPU reservations."""
        for allocation in self.host_allocations + self.topology_allocations:
            allocation.free()
        self.host_allocations = []
        self.topology_allocations = []


def _admission_inputs(partition: TwoLevelPartition, model: GNNModel,
                      platform: MultiGPUPlatform, config: HongTuConfig,
                      vertex_bytes: int):
    """Per-node budgets + per-partition host bytes for uneven moves.

    Budgets come from :func:`~repro.core.memory_model.node_host_budgets`
    over the platform's *actual* host pools — per-node-spec capacities
    and capacity-proportional vertex-data shards on a heterogeneous
    fleet — so nothing here assumes uniform hosts. The per-partition
    bytes are the hybrid policy's checkpoint footprint (zero under
    ``recompute``, which pins nothing placement-dependent on the host).
    """
    budgets = node_host_budgets(platform, vertex_bytes)
    sizes = np.bincount(partition.assignment, minlength=platform.num_gpus)
    per_partition = partition_host_bytes(
        sizes, checkpoint_dims(model, config.intermediate_policy))
    return budgets, per_partition


def _capability_matrix(partition: TwoLevelPartition, shapes: ChunkShapes,
                       model: GNNModel, platform: MultiGPUPlatform,
                       row_bytes: int, replan: bool) -> np.ndarray:
    """``(m, num_nodes)`` row-equivalent placement-cost matrix.

    Entry ``[p, n]`` is the kernel seconds of running partition p's
    per-epoch forward flops on node n's GPU generation, expressed in the
    same integer unit the placement objective counts halo rows in (one
    unit = the congested network seconds of one row). On a fleet with
    identical per-node rates every column is identical, so all swap/move
    gains from this term are exactly zero and the search stays
    bit-identical to the rows-only objective.

    A ``replan`` adds the re-balance's NIC cost, the wire term:
    partition p's halo rows all ride its home node's NIC, so placing p
    on node n additionally costs p's total exchanged rows times the
    *excess* per-row wire seconds of n's NIC over the fastest one. The
    total is a linear-in-placement surrogate (it prices every halo row
    as cross-node, an upper bound — co-located pairs ride NVLink for
    free), which is exactly the shape the search's
    per-``(partition, node)`` capability hook supports. On uniform
    effective NICs the wire term is identically zero.
    """
    flops = shapes.partition_flops(model).astype(np.float64)
    # Per-node *effective* rates: the platform folds any active fault
    # state's compute factors in, so an elastic re-balance weighs a
    # straggling node exactly as slow as its kernels now run.
    seconds = flops[:, None] / platform.node_compute_rates()[None, :]
    row_seconds = row_bytes / platform.collective_bandwidth
    rows = np.rint(seconds / row_seconds).astype(np.int64)
    if not replan:
        return rows
    nic = platform.node_nic_rates()
    if nic.max() > nic.min():
        weights = partition_net_weights(partition)
        total_rows = weights.sum(axis=1) + weights.sum(axis=0)
        excess = row_bytes / nic - row_bytes / nic.max()
        rows = rows + np.rint(
            total_rows[:, None] * excess[None, :] / row_seconds
        ).astype(np.int64)
    return rows


def _reserve(vertex_bytes: int, shapes: ChunkShapes,
             platform: MultiGPUPlatform):
    """Reserve vertex-data host shards and per-chunk GPU topology, all or
    nothing.

    Vertex data shards across node hosts (one share per node; a
    single-node platform yields exactly one full-size share); each
    chunk's topology stays resident on its GPU for the whole run. A
    :class:`~repro.errors.DeviceOutOfMemoryError` leaves no byte of
    either charged.
    """
    host_pools, shares = zip(*platform.split_host_bytes(vertex_bytes))
    host = reserve_all(host_pools, "vertex_data", shares)
    rows = shapes.topology_bytes().tolist()
    gpu_pools = [gpu.memory for gpu, row in zip(platform.gpus, rows)
                 for _ in row]
    try:
        topology = reserve_all(gpu_pools, "topology",
                               [nbytes for row in rows for nbytes in row])
    except DeviceOutOfMemoryError:
        for allocation in host:
            allocation.free()
        raise
    return host, topology


def plan_fleet(graph: Graph, model: GNNModel, platform: MultiGPUPlatform,
               config: HongTuConfig, *,
               partition: Optional[TwoLevelPartition] = None,
               seed_placement: Optional[np.ndarray] = None,
               previous: Optional[FleetPlan] = None) -> FleetPlan:
    """Run the planning pipeline (module docstring) and return its result.

    The defaults are construction's: partition from scratch, seed from
    the platform's active placement, compute-only capability on
    heterogeneous fleets, budgets only for uneven or heterogeneous
    placements. A re-plan hands in ``previous`` (released here, its
    partition carried over) and the faulted fleet's seed; it always
    plans with budgets and with the wire term. Dead nodes are the
    platform's.
    """
    nodes = platform.num_nodes
    replan = previous is not None
    row_bytes = max(model.dims) * SCALAR_BYTES
    vertex_bytes = vertex_buffer_bytes(graph.num_vertices, model.dims)
    policy = config.placement if nodes > 1 else "block"
    if replan:
        # Budgets must not double-count reservations about to be
        # re-homed, and GPU pools must be empty before a
        # cross-generation capacity swap. A re-plan exists to move
        # partitions, so it searches even under the block policy.
        previous.release()
        partition = previous.partition
        policy = "joint" if policy == "joint" else "search"
    elif partition is None:
        partition = two_level_partition(graph, platform.num_gpus,
                                        config.num_chunks, seed=config.seed)
    elif partition.num_partitions != platform.num_gpus:
        raise ConfigurationError(
            f"partition has {partition.num_partitions} partitions, "
            f"platform exposes {platform.num_gpus} GPUs"
        )
    if seed_placement is None:
        seed_placement = platform.placement

    hetero = platform.heterogeneous
    node_budgets = per_partition_bytes = compute_rows = None
    if nodes > 1 and (replan or hetero or config.max_imbalance > 0):
        node_budgets, per_partition_bytes = _admission_inputs(
            partition, model, platform, config, vertex_bytes)
    if nodes > 1 and (replan or hetero):
        compute_rows = _capability_matrix(
            partition,
            previous.shapes if replan else ChunkShapes.of(partition),
            model, platform, row_bytes, replan)

    placement, placement_result = seed_placement, None
    reorganization = previous.reorganization if replan else None
    # The search and the reorganization price the same layouts.
    sweeps = LayoutSweeps(partition)
    if policy != "block":
        # Search the placement from its seed — refined, never regressed.
        # Under "joint" the search alternates with schedule
        # reorganization to a fixed point of the combined predicted cost;
        # iteration 1 is exactly the single-pass "search" pipeline.
        search_args = dict(
            seed_placement=seed_placement,
            max_imbalance=config.max_imbalance,
            node_budgets=node_budgets,
            partition_host_bytes=per_partition_bytes,
            compute_rows=compute_rows,
        )
        if policy == "joint":
            joint = joint_placement(
                partition, platform, row_bytes=row_bytes,
                allreduce_bytes=model.parameter_nbytes(),
                allreduce_algorithm=config.allreduce, **search_args,
            )
            partition = joint.partition
            placement_result = joint.placement_result
            reorganization = joint.reorganization
        else:
            placement_result = search_placement(
                partition, nodes, dead_nodes=platform.dead_nodes,
                sweeps=sweeps, **search_args)
        placement = placement_result.placement
        platform.set_placement(placement, max_imbalance=config.max_imbalance)
    if not replan and config.reorganize and policy != "joint":
        # On a cluster the objective gains the net term: cross-node halo
        # rows priced at network seconds (Algorithm 4 extension), counted
        # against the active placement.
        reorganization = reorganize_partition(partition, platform, row_bytes,
                                              placement=placement,
                                              sweeps=sweeps)
        partition = reorganization.partition

    if replan and partition is previous.partition:
        comm_plan, shapes = previous.comm_plan, previous.shapes
    else:
        dedup_inter, dedup_intra = config.dedup_flags
        comm_plan = build_comm_plan(partition, dedup_inter=dedup_inter,
                                    dedup_intra=dedup_intra)
        shapes = ChunkShapes.of(partition)
    # One static for the pair: routing snapshot and per-batch emission
    # constants depend on (plan, placement) only, both final here.
    static = PlanStatic(comm_plan, platform)
    comm_values, comm_grads = (
        DedupCommunicator(comm_plan, platform, static=static)
        for _ in range(2))
    host_allocations, topology_allocations = _reserve(
        vertex_bytes, shapes, platform)
    return FleetPlan(
        partition=partition, placement=placement,
        placement_result=placement_result, reorganization=reorganization,
        node_budgets=node_budgets,
        partition_host_bytes=per_partition_bytes,
        compute_rows=compute_rows, shapes=shapes, comm_plan=comm_plan,
        comm_values=comm_values, comm_grads=comm_grads,
        host_allocations=host_allocations,
        topology_allocations=topology_allocations,
    )
