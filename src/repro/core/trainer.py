"""The HongTu trainer: Algorithm 1 on the simulated multi-GPU platform.

Numerics are real — every epoch computes exactly the same parameters a
monolithic full-graph trainer would (the paper's central semantics-preserving
claim, tested in ``tests/test_equivalence.py``) — while the hardware effects
(transfer seconds, kernel seconds, per-GPU memory) are charged to the
simulated platform.

Execution structure per epoch (paper Algorithm 1):

1. **Forward**, layer by layer; within a layer, batch by batch; within a
   batch, the m chunks run concurrently on the m GPUs. Neighbor
   representations arrive through the deduplicated communication framework;
   outputs are copied back to the host vertex buffer h^{l+1}; for cacheable
   layers under the ``hybrid`` policy the AGGREGATE output is checkpointed
   to host memory; all other intermediates are dropped (``no_grad``).
2. **Downstream task** on the host: masked cross-entropy on h^L seeds ∇h^L.
3. **Backward**, last layer to first. Cacheable layers reload the cached
   aggregate and the destinations' own rows, recompute only the UPDATE under
   a fresh tape, and propagate neighbor gradients through the closed-form
   aggregate adjoint. Non-cacheable layers re-gather their input neighbor
   set (a second deduplicated forward load) and recompute the full layer.
   Neighbor gradients return to the host ∇h^l buffer through the
   deduplicated backward communication.
4. **Parameter update**: gradients all-reduce across GPUs (parameters are
   replicated; the volume is tiny) and a global optimizer step.

Timing is an event-timeline DAG: every load/compute/writeback unit of work
becomes a task of an :class:`~repro.hardware.clock.EventTimeline` keyed by
``(layer, batch, gpu)``. Under ``overlap="barrier"`` a global barrier
follows every phase, which reproduces the paper's barrier-synchronized
Algorithms (and this reproduction's original serialized accounting) to
float precision. Under ``overlap="pipeline"``, batch j+1's host loads
prefetch under batch j's kernels inside every layer sweep (transition
buffers are double-buffered to make that safe), and the epoch time is the
critical-path makespan. Layer sweeps are separated by barriers in both
modes — layer l+1 reads rows that layer l writes back. The simulated numpy
work itself always runs eagerly in program order, so the choice of overlap
policy cannot change any number the model computes.

On a :class:`~repro.hardware.platform.ClusterPlatform` the same epoch
spans N nodes: cross-node neighbor traffic becomes halo-exchange ``net``
tasks (emitted by the communicator), and the epoch ends with an
inter-node gradient all-reduce (ring or tree, ``config.allreduce``)
chained after each node's intra-node reduce. The fleet's shape (nodes,
topology) is the platform's alone; with one node, the code path and
every simulated second are identical to the single-server trainer.

What the epoch runs *on* — partition, placement, communication plan,
communicator pair, resident reservations — is decided by
:mod:`repro.core.planner` and, between epochs of a fault-injected fleet,
re-decided through :mod:`repro.core.elastic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.functional import (
    accuracy,
    masked_cross_entropy_value_and_grad,
)
from repro.autograd.optim import Adam, Optimizer
from repro.comm.cost_model import ClusterCostModel
from repro.core.config import HongTuConfig
from repro.core.elastic import ElasticController
from repro.core.planner import FleetPlan, plan_fleet
from repro.errors import ConfigurationError, FaultError
from repro.faults.schedule import RebalanceEvent
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline, TimeBreakdown
from repro.hardware.memory import Allocation
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.two_level import TwoLevelPartition
from repro.runtime.task import net_link

__all__ = ["HongTuTrainer", "EpochResult"]


@dataclass
class EpochResult:
    """Outcome of one training epoch — of any trainer in the repo.

    The scheduled :class:`~repro.hardware.clock.EventTimeline` *is* the
    epoch's timing and traffic: ``clock``, ``epoch_seconds`` and the
    ``*_bytes`` counts read through to it. The baselines fill the fields
    their system has (the DistGNN cost model computes no loss), emit no
    bytes with their transfers, and subclass only to add one field of
    their own.
    """

    epoch: int
    #: the scheduled event timeline of this epoch
    timeline: EventTimeline
    #: training loss (``None``: the trainer is a pure cost model)
    loss: Optional[float] = None
    peak_gpu_bytes: int = 0
    host_bytes: int = 0
    #: the elastic re-balance that preceded this epoch, if one fired
    rebalance: Optional[RebalanceEvent] = None

    @property
    def clock(self) -> TimeBreakdown:
        """Per-channel serialized-phase seconds of the timeline."""
        return self.timeline.breakdown

    @property
    def epoch_seconds(self) -> float:
        """Simulated wall time: the timeline's makespan."""
        return self.timeline.makespan

    @property
    def h2d_bytes(self) -> int:
        """Host→GPU bytes: forward loads + backward reloads."""
        return self.timeline.bytes_view()["h2d"]

    @property
    def d2d_bytes(self) -> int:
        """Inter-GPU bytes the communicators moved."""
        return self.timeline.bytes_view()["d2d"]

    @property
    def d2h_bytes(self) -> int:
        """GPU→host bytes: writebacks + gradient flushes."""
        return self.timeline.bytes_view()["d2h"]

    @property
    def net_bytes(self) -> int:
        """Inter-node bytes: halo, all-reduce and migration."""
        return self.timeline.bytes_view()["net"]

    @property
    def migration_bytes(self) -> int:
        """Bytes of the re-balance before this epoch (in ``net_bytes``)."""
        return 0 if self.rebalance is None else self.rebalance.migration_bytes

    @property
    def pcie_bytes(self) -> int:
        """Both PCIe directions together (the pre-split ``h2d_bytes``)."""
        return self.h2d_bytes + self.d2h_bytes


class HongTuTrainer:
    """Partition-based CPU-offloaded full-graph GNN trainer.

    Parameters
    ----------
    graph:
        Input property graph (features + labels + masks required for
        training).
    model:
        The GNN stack; ``model.dims[0]`` must equal the feature width.
    platform:
        Simulated multi-GPU platform; its GPU count is the paper's ``m``.
    config:
        Framework knobs (chunks, communication mode, recompute policy,
        overlap policy).
    optimizer:
        Optional; defaults to Adam(lr=0.01) over the model parameters.
    partition:
        Optional precomputed two-level partition (e.g. an adversarially
        relabeled ordering for placement experiments); must expose one
        partition per platform GPU. Defaults to METIS-seeded
        :func:`~repro.partition.two_level.two_level_partition`.
    """

    def __init__(self, graph: Graph, model: GNNModel,
                 platform: MultiGPUPlatform, config: HongTuConfig,
                 optimizer: Optional[Optimizer] = None,
                 partition: Optional[TwoLevelPartition] = None):
        if graph.features is None or graph.labels is None:
            raise ConfigurationError("training requires features and labels")
        if model.dims[0] != graph.feature_dim:
            raise ConfigurationError(
                f"model input dim {model.dims[0]} != feature dim "
                f"{graph.feature_dim}"
            )
        if config.faults is not None:
            # The fleet-level fault rules live here, where the platform
            # (and so the fleet's shape) is known.
            nodes = platform.num_nodes
            if config.faults and nodes == 1:
                raise ConfigurationError(
                    "a fault schedule needs more than one node: a one-node "
                    "fleet has no survivors to re-balance onto"
                )
            try:
                config.faults.validate_for(nodes)
            except FaultError as error:
                raise ConfigurationError(
                    f"fault schedule invalid for {nodes} node(s): {error}"
                ) from error
        self.graph = graph
        self.model = model
        self.platform = platform
        self.config = config
        self.optimizer = optimizer or Adam(model.parameters(), lr=0.01)
        self._epoch = 0
        self._pipelined = config.overlap == "pipeline"
        #: wave arrays are in GPU order; ``devices=_gpu_ids`` prices each
        #: element at its owning node's rates
        self._gpu_ids = np.arange(platform.num_gpus, dtype=np.int64)
        #: a live view of the platform's network — never stale
        self._cluster_cost = ClusterCostModel.from_platform(platform)
        self._elastic = ElasticController(self)

        self.adopt(plan_fleet(graph, model, platform, config,
                              partition=partition))

        # ---- host-resident vertex data (h^l and ∇h^l for every layer) -----
        dims = model.dims
        n = graph.num_vertices
        dtype = config.dtype
        self._h: List[np.ndarray] = [
            np.zeros((n, dim), dtype=dtype) for dim in dims
        ]
        self._grad_h: List[np.ndarray] = [
            np.zeros((n, dim), dtype=dtype) for dim in dims
        ]
        self._h[0][:] = graph.features.astype(dtype)
        # Host-side checkpoint store for cached AGGREGATE outputs. The
        # host allocation behind each (layer, gpu, batch) slot is created
        # once and resized/reused across epochs.
        self._checkpoints: Dict[tuple, np.ndarray] = {}
        self._checkpoint_allocations: Dict[tuple, Allocation] = {}

    def adopt(self, fleet: FleetPlan) -> None:
        """Install a planner result as this trainer's planning state.

        Called once at construction and by the elastic controller after
        every re-balance; the public planning attributes below are views
        of the adopted :class:`~repro.core.planner.FleetPlan`.
        """
        #: the adopted plan itself (what a re-balance hands back to the
        #: planner as ``previous``)
        self.fleet = fleet
        self.partition: TwoLevelPartition = fleet.partition
        self.plan = fleet.comm_plan
        self.placement = fleet.placement
        self.placement_result = fleet.placement_result
        self.reorganization = fleet.reorganization
        self._comm_values = fleet.comm_values
        self._comm_grads = fleet.comm_grads

    @property
    def fleet_seconds(self) -> float:
        """Simulated wall clock across epochs (the fault schedule's axis)."""
        return self._elastic.fleet_seconds

    @property
    def rebalances(self) -> List[RebalanceEvent]:
        """Provenance of every elastic re-balance this trainer performed."""
        return self._elastic.rebalances

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def _new_timeline(self) -> EventTimeline:
        return EventTimeline(barrier_all=not self._pipelined)

    def train_epoch(self) -> EpochResult:
        """One full-graph epoch: forward, loss, backward, update.

        On a fault-injected fleet (``config.faults``) the epoch boundary
        is where faults become visible: the schedule is sampled at the
        accumulated :attr:`fleet_seconds`, the platform's rates are
        perturbed accordingly, a node death (or a pending
        makespan-trigger detection from the previous epoch) runs the
        elastic re-balance — whose migration traffic is charged as
        ``net`` tasks at the head of this epoch's timeline — and only
        then does the epoch execute. With no schedule (or an inactive
        one) every code path below is byte-for-byte the fault-free one.
        """
        timeline = self._new_timeline()
        rebalance = self._elastic.begin_epoch(timeline)

        self.model.zero_grad()
        self._forward(timeline)
        loss = self._seed_output_gradient(timeline)
        timeline.barrier()
        self._backward(timeline)
        timeline.barrier()
        self._all_reduce_and_step(timeline)
        self._epoch += 1

        result = EpochResult(
            epoch=self._epoch,
            loss=loss,
            peak_gpu_bytes=self.platform.peak_gpu_memory(),
            host_bytes=self.platform.host_in_use(),
            rebalance=rebalance,
            timeline=timeline,
        )
        self._elastic.end_epoch(result)
        return result

    def train(self, num_epochs: int) -> List[EpochResult]:
        """Run ``num_epochs`` epochs, returning per-epoch results."""
        return [self.train_epoch() for _ in range(num_epochs)]

    def logits(self) -> np.ndarray:
        """Final-layer representations from the last forward pass."""
        return self._h[-1]

    def evaluate(self) -> Dict[str, float]:
        """Inference forward + accuracy on each available mask.

        No backward pass follows, so no aggregate checkpoints are stored
        (and no host memory or D2H writeback volume is charged for them).
        """
        timeline = self._new_timeline()  # throwaway; evaluation is not timed
        self._forward(timeline, training=False)
        logits = self._h[-1]
        metrics: Dict[str, float] = {}
        for split in ("train", "val", "test"):
            mask = getattr(self.graph, f"{split}_mask")
            if mask is not None:
                metrics[f"{split}_accuracy"] = accuracy(
                    logits, self.graph.labels, mask
                )
        return metrics

    def checkpointed_columns(self) -> set:
        """(layer, batch) pairs whose aggregate checkpoints are complete.

        A pair counts only when *every* GPU's chunk of that batch column
        has a host-resident checkpoint — the serving engine's embedding
        cache treats exactly these pairs as warm (a partial column still
        needs the staging front for its missing chunks). Empty until a
        training epoch has run under the hybrid policy.
        """
        m = self.plan.num_gpus
        return {
            (l, j)
            for l in range(len(self.model.layers))
            for j in range(self.plan.num_batches)
            if all((l, i, j) in self._checkpoints for i in range(m))
        }

    def serving_engine(self, cache_budget_bytes: Optional[int] = None):
        """A :class:`~repro.serving.engine.ServingEngine` over this trainer.

        The engine reuses this trainer's plan, partition, platform and
        config, and pre-warms its embedding cache from the aggregate
        checkpoints of any hybrid-policy epochs already trained.
        ``cache_budget_bytes`` bounds that cache (LRU eviction); ``None``
        keeps it unbounded.
        """
        from repro.serving.engine import ServingEngine

        return ServingEngine(self, cache_budget_bytes=cache_budget_bytes)

    # ------------------------------------------------------------------
    # forward pass (Algorithm 1, lines 4-9)
    # ------------------------------------------------------------------
    def _forward(self, timeline: EventTimeline, training: bool = True) -> None:
        hybrid = self.config.intermediate_policy == "hybrid"
        bps = self.config.bytes_per_scalar
        platform = self.platform

        # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
        for l, layer in enumerate(self.model.layers):
            self._comm_values.start_sweep(self.model.dims[l],
                                          dtype=self.config.dtype,
                                          double_buffer=self._pipelined)
            cache_layer = training and hybrid and layer.cacheable_aggregate
            # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
            for j in range(self.plan.num_batches):
                inputs = self._comm_values.load_batch_forward(
                    j, self._h[l], timeline
                )
                input_deps = self._comm_values.batch_input_dep_ids()
                costs = self.fleet.shapes.forward(layer, j, bps)
                workspace = costs.workspace_bytes.tolist()
                # repro-lint: allow-loop — per-GPU numerics + workspace reservation over python chunk objects; emission below is batched
                for i in range(self.plan.num_gpus):
                    chunk = self.partition.chunks[i][j]
                    block = chunk.block
                    with platform.gpus[i].memory.scoped("forward_workspace",
                                                        workspace[i]):
                        with no_grad():
                            h_in = Tensor(inputs[i])
                            agg = layer.aggregate(block, h_in)
                            h_dst = (Tensor(inputs[i][block.dst_pos])
                                     if layer.update_uses_self else h_in)
                            out = layer.update(block, agg, h_dst)
                        if cache_layer:
                            self._store_checkpoint(l, i, j, agg.data)
                        self._h[l + 1][chunk.dst_global] = out.data
                d2h = costs.writeback_bytes
                if cache_layer:
                    d2h = d2h + costs.checkpoint_bytes
                compute_ids = timeline.submit_batch(
                    "gpu",
                    platform.gpu_compute_seconds(costs.flops,
                                                 devices=self._gpu_ids),
                    deps_by_device=input_deps, label=f"compute[l{l}b{j}]",
                )
                timeline.submit_batch(
                    "d2h", platform.h2d_seconds(d2h, devices=self._gpu_ids),
                    deps_by_device=compute_ids, nbytes=d2h,
                    label=f"writeback[l{l}b{j}]",
                )
            self._comm_values.end_sweep()
            # Layer l+1's loads read the h^{l+1} rows written back above.
            timeline.barrier()

    # ------------------------------------------------------------------
    # downstream task (Algorithm 1, lines 10-11)
    # ------------------------------------------------------------------
    def _seed_output_gradient(self, timeline: EventTimeline) -> float:
        for grad in self._grad_h:
            grad[:] = 0.0
        loss, seed = masked_cross_entropy_value_and_grad(
            self._h[-1], self.graph.labels, self.graph.train_mask
        )
        self._grad_h[-1][:] = seed.astype(self.config.dtype)
        logits_bytes = self._h[-1].shape[0] * self._h[-1].shape[1] \
            * self.config.bytes_per_scalar
        # The downstream task runs on node 0's host (the loss is a single
        # global reduction; on one node the argument is a no-op).
        timeline.add("cpu",
                     self.platform.cpu_accumulate_seconds(logits_bytes,
                                                          node=0),
                     label="loss")
        return loss

    # ------------------------------------------------------------------
    # backward pass (Algorithm 1, lines 12-19)
    # ------------------------------------------------------------------
    def _backward(self, timeline: EventTimeline) -> None:
        hybrid = self.config.intermediate_policy == "hybrid"
        # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
        for l in range(len(self.model.layers) - 1, -1, -1):
            layer = self.model.layers[l]
            use_cache = hybrid and layer.cacheable_aggregate
            # Gradient buffers accumulate in place across batches, so
            # double buffering cannot apply to them (scatter j must wait
            # for flush j-1 regardless); only the staging/value buffers
            # alternate parity under the pipeline policy.
            self._comm_grads.start_sweep(self.model.dims[l],
                                         dtype=self.config.dtype)
            if not use_cache:
                self._comm_values.start_sweep(self.model.dims[l],
                                              dtype=self.config.dtype,
                                              double_buffer=self._pipelined)
            # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
            for j in range(self.plan.num_batches):
                self._backward_batch(l, j, timeline, use_cache)
            if not use_cache:
                self._comm_values.end_sweep()
            self._comm_grads.end_sweep()
            # Layer l-1's backward reads the ∇h^l rows accumulated above.
            timeline.barrier()

    def _backward_batch(self, l: int, j: int, timeline: EventTimeline,
                        use_cache: bool) -> None:
        """One backward batch: gradient load → kernels → accumulate.

        The hybrid path (``use_cache``) recomputes only UPDATE from the
        cached aggregate; the recompute path re-gathers the layer's
        inputs and recomputes it whole. Each GPU's kernel waits for its
        own ∇h^{l+1} load and, on the recompute path, for the tasks that
        re-gathered its inputs; the neighbor gradients then return to
        the host through the deduplicated backward communication.
        """
        layer = self.model.layers[l]
        shapes, bps = self.fleet.shapes, self.config.bytes_per_scalar
        inputs = input_deps = None
        if use_cache:
            costs = shapes.backward_cached(layer, j, bps)
        else:
            costs = shapes.backward_recompute(layer, j, bps)
            inputs = self._comm_values.load_batch_forward(j, self._h[l],
                                                          timeline)
            input_deps = self._comm_values.batch_input_dep_ids()
        workspace = costs.workspace_bytes.tolist()
        neighbor_grads: List[np.ndarray] = []

        # repro-lint: allow-loop — per-GPU numerics + workspace reservation over python chunk objects; emission below is batched
        for i in range(self.plan.num_gpus):
            chunk = self.partition.chunks[i][j]
            grad_out = self._grad_h[l + 1][chunk.dst_global] \
                .astype(self.config.dtype)
            with self.platform.gpus[i].memory.scoped("backward_workspace",
                                                     workspace[i]):
                if use_cache:
                    grads = self._cached_chunk_grads(l, i, j, grad_out)
                else:
                    h_t = Tensor(inputs[i], requires_grad=True)
                    layer.forward(chunk.block, h_t).backward(grad_out)
                    grads = h_t.grad if h_t.grad is not None else \
                        np.zeros_like(inputs[i])
                neighbor_grads.append(grads)

        load_ids = timeline.submit_batch(
            "h2d",
            self.platform.h2d_seconds(costs.load_bytes,
                                      devices=self._gpu_ids),
            nbytes=costs.load_bytes, label=f"grad_load[l{l}b{j}]",
        )
        compute_deps = load_ids if input_deps is None else [
            np.concatenate([deps, load_ids[i:i + 1]])
            for i, deps in enumerate(input_deps)
        ]
        compute_ids = timeline.submit_batch(
            "gpu",
            self.platform.gpu_compute_seconds(costs.flops,
                                              devices=self._gpu_ids),
            deps_by_device=compute_deps,
            label=f"grad_compute[l{l}b{j}]",
        )
        self._comm_grads.accumulate_batch_backward(
            j, neighbor_grads, self._grad_h[l], timeline,
            deps_by_device=compute_ids,
        )

    def _cached_chunk_grads(self, l: int, i: int, j: int,
                            grad_out: np.ndarray) -> np.ndarray:
        """Neighbor gradients of chunk (i, j) from its cached aggregate:
        UPDATE re-runs under a fresh tape, AGGREGATE's adjoint is closed
        form."""
        layer = self.model.layers[l]
        chunk = self.partition.chunks[i][j]
        block = chunk.block
        agg_data = self._take_checkpoint(l, i, j)
        if layer.update_uses_self:
            h_dst_data = self._h[l][chunk.dst_global]
        else:
            h_dst_data = np.zeros((block.num_dst, layer.in_dim),
                                  dtype=self.config.dtype)
        agg_t = Tensor(agg_data, requires_grad=True)
        h_dst_t = Tensor(h_dst_data, requires_grad=True)
        layer.update(block, agg_t, h_dst_t).backward(grad_out)
        grad_agg = agg_t.grad if agg_t.grad is not None else \
            np.zeros_like(agg_data)
        grads = layer.aggregate_backward(block, grad_agg)
        if layer.update_uses_self and h_dst_t.grad is not None:
            grads[block.dst_pos] += h_dst_t.grad  # dst_pos is duplicate-free
        return grads

    # ------------------------------------------------------------------
    # parameter update (Algorithm 1, lines 20-21)
    # ------------------------------------------------------------------
    def _all_reduce_and_step(self, timeline: EventTimeline) -> None:
        param_bytes = self.model.parameter_nbytes()
        nodes = self.platform.num_nodes
        # Hierarchical all-reduce: each node ring-reduces over its own
        # GPUs on NVLink (ring volume 2 (g-1)/g of the parameter payload),
        # then the nodes run the configured inter-node collective over
        # the network; every participating link gets one task of the
        # collective's per-node busy time so pipeline scheduling sees the
        # real dependency structure. Under an uneven placement each
        # node's ring spans however many GPUs the placement put there (a
        # single-GPU node has no intra leg). A standalone server is the
        # one-node case: one intra leg on device 0, no network wave.
        intra_legs = []
        for node in range(nodes):
            members = self.platform.node_gpus(node)
            if len(members) > 1:
                volume = 2 * param_bytes * (len(members) - 1) \
                    / len(members)
                intra_legs.append((members[0], volume))
        intra_ids = np.empty(0, dtype=np.int64)
        # The intra legs carry no bytes: d2d_bytes counts the
        # communicators' P2P traffic only.
        if intra_legs:
            leg_devices = np.array([device for device, _ in intra_legs],
                                   dtype=np.int64)
            intra_ids = timeline.submit_batch(
                "d2d",
                self.platform.d2d_seconds(
                    np.array([volume for _, volume in intra_legs]),
                    devices=leg_devices,
                ),
                devices=leg_devices,
                label="all_reduce_intra",
            )
        # The collective spans the *alive* fleet: every node on a
        # fault-free cluster (the alive ring's successor map is
        # (node + 1) % nodes exactly); after a death the ring closes
        # over the survivors.
        alive = self.platform.alive_nodes
        if len(alive) > 1:
            seconds = self._cluster_cost.allreduce_seconds(
                param_bytes, algorithm=self.config.allreduce
            )
            # Encode ring links with the platform's rail fan-out so
            # the ids share the halo tasks' device space (on a rail
            # fabric the collective's per-pair leg rides rail 0;
            # spine pricing already folds the core contention into
            # ``seconds``).
            # 2 (N-1) payloads cross the network (ring and tree alike),
            # split over the N links to the byte.
            share, extra = divmod(2 * param_bytes * (len(alive) - 1),
                                  len(alive))
            num_rails = self.platform.num_rails
            timeline.submit_batch(
                "net", np.full(len(alive), seconds),
                devices=np.array(
                    [net_link(node, alive[(k + 1) % len(alive)],
                              nodes, 0, num_rails)
                     for k, node in enumerate(alive)],
                    dtype=np.int64,
                ),
                deps=intra_ids,
                nbytes=share + (np.arange(len(alive)) < extra),
                label=f"all_reduce_{self.config.allreduce}",
            )
        self.optimizer.step()

    # ------------------------------------------------------------------
    # checkpoint store
    # ------------------------------------------------------------------
    def _store_checkpoint(self, l: int, i: int, j: int,
                          data: np.ndarray) -> None:
        key = (l, i, j)
        nbytes = data.shape[0] * data.shape[1] * self.config.bytes_per_scalar
        allocation = self._checkpoint_allocations.get(key)
        if allocation is None:
            # Checkpoints live on the host of the GPU that wrote them
            # (node 0's pool on a single-node platform).
            pool = self.platform.host_pool(self.platform.node_of(i))
            self._checkpoint_allocations[key] = pool.alloc(
                "aggregate_cache", nbytes
            )
        elif allocation.nbytes != nbytes:
            allocation.resize(nbytes)
        self._checkpoints[key] = data.copy()

    def _take_checkpoint(self, l: int, i: int, j: int) -> np.ndarray:
        key = (l, i, j)
        if key not in self._checkpoints:
            raise ConfigurationError(
                f"missing aggregate checkpoint for layer {l}, gpu {i}, "
                f"batch {j} — was the forward pass run with the hybrid "
                f"policy?"
            )
        return self._checkpoints[key]

    def free_checkpoints(self) -> None:
        """Release all cached aggregates and their host allocations."""
        for allocation in self._checkpoint_allocations.values():
            allocation.free()
        self._checkpoint_allocations.clear()
        self._checkpoints.clear()

    @property
    def _checkpoint_bytes(self) -> int:
        """Host bytes currently reserved for aggregate checkpoints."""
        return sum(allocation.nbytes
                   for allocation in self._checkpoint_allocations.values())
