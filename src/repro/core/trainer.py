"""The HongTu trainer: Algorithm 1 on the simulated multi-GPU platform.

Numerics are real — every epoch computes exactly the same parameters a
monolithic full-graph trainer would (the paper's central semantics-preserving
claim, tested in ``tests/test_equivalence.py``) — while the hardware effects
(transfer seconds, kernel seconds, per-GPU memory) are charged to the
simulated platform.

Execution structure per epoch (paper Algorithm 1):

1. **Forward**, layer by layer; within a layer, batch by batch; within a
   batch, the m chunks run concurrently on the m GPUs. Neighbor
   representations are staged through the deduplicated communication
   framework, which emits every transfer and returns what each GPU's
   compute waits on; a staged row is the host row it came from, so the
   numerics read h^l on the host. A cacheable layer's AGGREGATE is one
   product per batch over h^l, and its UPDATE runs per chunk on row
   views of that product; the other layers (GAT, GGNN) run whole per
   chunk on its input rows of h^l. Outputs are copied
   back to the host vertex buffer h^{l+1}; under the ``hybrid`` policy a
   cacheable layer's batch product is kept, read-only, as the (layer,
   batch) checkpoint in host memory; all other intermediates are dropped
   (``no_grad``).
2. **Downstream task** on the host: masked cross-entropy on h^L seeds ∇h^L.
3. **Backward**, last layer to first. Cacheable layers take their batch
   aggregate — the host checkpoint under ``hybrid``, the forward's
   staging again under ``recompute`` — and the destinations' own rows,
   recompute only the UPDATE under a fresh tape, and propagate neighbor
   gradients through the closed-form aggregate adjoint. Non-cacheable
   layers re-stage their input neighbor set (a second deduplicated
   forward load) and recompute the full layer under the tape. The
   forward and the backward build a chunk's layer with one function,
   each backward chunk under a tape of its own.
   For l ≥ 1, ∇h^l returns to the host buffer through the deduplicated
   backward communication. Layer 0's inputs are the constant features,
   whose gradient nothing reads: its tape takes them as constants, no
   aggregate adjoint runs, and it emits its gradient traffic (every task,
   byte and dependency) but moves no rows and keeps no ∇h⁰ buffer.
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
modes — layer l+1 reads rows that layer l writes back — and no task of a
sweep waits on one outside it. So under a fixed plan and rate table a
sweep's waves are the same every epoch, and each is priced once: a sweep
is recorded into a :class:`~repro.runtime.scheduler.WaveProgram` keyed
``("forward" | "backward", layer)`` the first time an epoch runs it
under the adopted plan and the platform's ``rates_version``, and every
epoch, that one included, replays it
(:meth:`~repro.hardware.clock.EventTimeline.submit_program`, bit for bit
what emission schedules). :meth:`HongTuTrainer.adopt` and any move of
``rates_version`` — a fault's rate change, a placement, a re-balance —
drop the programs. The loss task and the all-reduce are emitted every
epoch. The numpy work itself always runs eagerly in program order, so
neither the overlap policy nor a replay can change any number the model
computes. Every GPU's workspace of a (layer, batch) is reserved in its
own pool before the batch's chunks run and released after them, so each
pool's peak is that of its chunk; reservations follow the numerics,
whether the sweep records or replays.

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

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.functional import (
    masked_cross_entropy_value_and_grad,
    split_accuracies,
)
from repro.autograd.optim import Adam, Optimizer
from repro.core.config import HongTuConfig
from repro.core.elastic import ElasticController
from repro.core.planner import FleetPlan, plan_fleet
from repro.errors import ConfigurationError, FaultError
from repro.faults.schedule import RebalanceEvent
from repro.gnn.block import Block
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline, TimeBreakdown
from repro.hardware.memory import reserve_all
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.two_level import TwoLevelPartition
from repro.runtime.scheduler import DepLists, WaveProgram, WaveRecorder
from repro.runtime.task import net_link
from repro.units import SCALAR_BYTES

__all__ = ["HongTuTrainer", "EpochResult", "require_trainable"]

#: where a layer sweep's waves go: a recorder, or nowhere (``None``: the
#: sweep is recorded already, or nothing is timed)
Sink = Optional[WaveRecorder]


def require_trainable(graph: Graph, model: GNNModel) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``graph``
    carries features and labels and ``model`` reads its feature width:
    the one construction check of HongTu's and every baseline trainer."""
    if graph.features is None or graph.labels is None:
        raise ConfigurationError("training requires features and labels")
    if model.dims[0] != graph.feature_dim:
        raise ConfigurationError(
            f"model input dim {model.dims[0]} != feature dim "
            f"{graph.feature_dim}"
        )


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
        Its parameters must share one floating dtype
        (:attr:`~repro.gnn.models.GNNModel.dtype`), which the numerics
        run in; transfers and reservations are priced at
        :data:`~repro.units.SCALAR_BYTES` per scalar whatever it is.
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
        require_trainable(graph, model)
        #: the numerics dtype: host vertex data, transition buffers and
        #: gradients all run in the model's own parameter dtype
        self.dtype = model.dtype
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
        self._elastic = ElasticController(self)

        self.adopt(plan_fleet(graph, model, platform, config,
                              partition=partition))

        # ---- host-resident vertex data: h^l for every layer, ∇h^l for
        # l ≥ 1 (nothing reads the gradient of the input features) -------
        dims = model.dims
        n = graph.num_vertices
        dtype = self.dtype
        self._h: List[np.ndarray] = [
            np.zeros((n, dim), dtype=dtype) for dim in dims
        ]
        self._grad_h: Dict[int, np.ndarray] = {
            l: np.zeros((n, dims[l]), dtype=dtype)
            for l in range(1, len(dims))
        }
        self._h[0][:] = graph.features.astype(dtype)
        # The hybrid policy's host checkpoints: (layer, batch) → its
        # AGGREGATE product and the per-GPU host slots behind it.
        self._checkpoints: Dict[tuple, tuple] = {}

    def adopt(self, fleet: FleetPlan) -> None:
        """Install a planner result as this trainer's planning state.

        Called once at construction and by the elastic controller after
        every re-balance; the public planning attributes below are views
        of the adopted :class:`~repro.core.planner.FleetPlan`. The sweep
        programs recorded under the previous plan are dropped.
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
        #: batch → its chunks as one block over the host's h^l
        #: (:meth:`_batch_block`); the partition outlives this plan (a
        #: planner may share it), so the blocks live here, not on it
        self._batch_blocks: Dict[int, Block] = {}
        #: layer sweep → its recorded waves (:meth:`_sweep_sink`), priced
        #: for this plan at rate table ``_programs_version``
        self._programs: Dict[tuple, WaveProgram] = {}
        self._programs_version: Optional[int] = None

    @property
    def rebalances(self) -> List[RebalanceEvent]:
        """Provenance of every elastic re-balance this trainer performed."""
        return self._elastic.rebalances

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def train_epoch(self) -> EpochResult:
        """One full-graph epoch: forward, loss, backward, update.

        On a fault-injected fleet (``config.faults``) the epoch boundary
        is where faults become visible: the schedule is sampled at the
        simulated seconds of the epochs so far (the elastic controller's
        ``fleet_seconds``), the platform's rates are
        perturbed accordingly, a node death (or a pending
        makespan-trigger detection from the previous epoch) runs the
        elastic re-balance — whose migration traffic is charged as
        ``net`` tasks at the head of this epoch's timeline — and only
        then does the epoch execute. With no schedule (or an inactive
        one) every code path below is byte-for-byte the fault-free one.
        """
        timeline = EventTimeline(barrier_all=not self._pipelined)
        rebalance = self._elastic.begin_epoch(timeline)
        self._sync_programs()

        self.model.zero_grad()
        with self._ending_sweeps():
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

        Evaluation is not timed: the forward runs its numerics and its
        workspace reservations and emits, records and replays nothing.
        No backward pass follows, so no aggregate checkpoints are stored
        (and no host memory is charged for them).
        """
        with self._ending_sweeps():
            self._forward(None, training=False)
        return split_accuracies(self._h[-1], self.graph)

    @contextlib.contextmanager
    def _ending_sweeps(self) -> Iterator[None]:
        """End both communicators' sweeps if the body raises (a buffer or
        workspace that does not fit), so the next epoch can start its own."""
        try:
            yield
        except BaseException:
            self._comm_values.end_sweep()
            self._comm_grads.end_sweep()
            raise

    def checkpointed_columns(self) -> set:
        """(layer, batch) pairs whose aggregate checkpoint is host-resident.

        The serving engine's embedding cache treats exactly these pairs as
        warm. Empty until a training epoch has run under the hybrid
        policy.
        """
        return set(self._checkpoints)

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
    # sweep programs: record on first use, then replay
    # ------------------------------------------------------------------
    def _sync_programs(self) -> None:
        """Drop the sweep programs if the rate table moved since they
        were priced (a fault state or a placement bumps the platform's
        ``rates_version``)."""
        version = self.platform.rates_version
        if version != self._programs_version:
            self._programs, self._programs_version = {}, version

    def _sweep_sink(self, timeline: Optional[EventTimeline],
                    key: tuple) -> Sink:
        """Where layer sweep ``key`` — ``("forward" | "backward", l)`` —
        emits its waves: a fresh recorder on its first run under the plan
        and rate table, else nowhere (``None``: it is recorded, or
        nothing is timed, as in :meth:`evaluate`)."""
        if timeline is None or key in self._programs:
            return None
        return WaveRecorder()

    def _close_sweep(self, timeline: Optional[EventTimeline], key: tuple,
                     sink: Sink) -> None:
        """End layer sweep ``key`` on ``timeline``: keep what ``sink``
        recorded, replay the sweep's program (it names no task outside
        the sweep: no external slot), then the barrier between sweeps."""
        if timeline is None:
            return
        if sink is not None:
            self._programs[key] = sink.finish()
        timeline.submit_program(self._programs[key])
        timeline.barrier()

    # ------------------------------------------------------------------
    # forward pass (Algorithm 1, lines 4-9)
    # ------------------------------------------------------------------
    def _forward(self, timeline: Optional[EventTimeline],
                 training: bool = True) -> None:
        hybrid = self.config.intermediate_policy == "hybrid"
        platform = self.platform

        # repro-lint: allow-loop — one layer sweep: numerics per (layer, batch), emission batched
        for l, layer in enumerate(self.model.layers):
            key = ("forward", l)
            sink = self._sweep_sink(timeline, key)
            self._comm_values.start_sweep(self.model.dims[l],
                                          dtype=self.dtype,
                                          double_buffer=self._pipelined)
            cache_layer = training and hybrid and layer.cacheable_aggregate
            # repro-lint: allow-loop — one layer sweep: numerics per (layer, batch), emission batched
            for j in range(self.plan.num_batches):
                input_deps, aggregate = self._stage_batch(l, j, sink)
                costs = self.fleet.shapes.forward(layer, j)
                stop = 0
                with self._workspaces("forward_workspace",
                                      costs.workspace_bytes), no_grad():
                    # repro-lint: allow-loop — per-GPU numerics over python chunk objects; emission below is batched
                    for i in range(self.plan.num_gpus):
                        chunk = self.partition.chunks[i][j]
                        start, stop = stop, stop + chunk.num_dst
                        self._h[l + 1][chunk.dst_global] = self._chunk_pass(
                            l, i, j, None if aggregate is None
                            else aggregate[start:stop], None)
                d2h = costs.writeback_bytes
                if cache_layer:
                    self._store_checkpoint(l, j, aggregate,
                                           costs.checkpoint_bytes)
                    d2h = d2h + costs.checkpoint_bytes
                if sink is None:
                    continue
                compute_ids = sink.submit_batch(
                    "gpu",
                    platform.gpu_compute_seconds(costs.flops,
                                                 devices=self._gpu_ids),
                    deps_by_device=input_deps, label=f"compute[l{l}b{j}]",
                )
                sink.submit_batch(
                    "d2h", platform.h2d_seconds(d2h, devices=self._gpu_ids),
                    deps_by_device=compute_ids, nbytes=d2h,
                    label=f"writeback[l{l}b{j}]",
                )
            self._comm_values.end_sweep()
            # Layer l+1's loads read the h^{l+1} rows written back above.
            self._close_sweep(timeline, key, sink)

    # ------------------------------------------------------------------
    # downstream task (Algorithm 1, lines 10-11)
    # ------------------------------------------------------------------
    def _seed_output_gradient(self, timeline: EventTimeline) -> float:
        for grad in self._grad_h.values():
            grad[:] = 0.0
        loss, seed = masked_cross_entropy_value_and_grad(
            self._h[-1], self.graph.labels, self.graph.train_mask
        )
        self._grad_h[len(self.model.layers)][:] = seed.astype(self.dtype)
        logits_bytes = self._h[-1].shape[0] * self._h[-1].shape[1] \
            * SCALAR_BYTES
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
        # repro-lint: allow-loop — one layer sweep: numerics per (layer, batch), emission batched
        for l in range(len(self.model.layers) - 1, -1, -1):
            layer = self.model.layers[l]
            key = ("backward", l)
            sink = self._sweep_sink(timeline, key)
            use_cache = hybrid and layer.cacheable_aggregate
            # Gradient buffers accumulate in place across batches, so
            # double buffering cannot apply to them (scatter j must wait
            # for flush j-1 regardless); only the staging/value buffers
            # alternate parity under the pipeline policy.
            self._comm_grads.start_sweep(self.model.dims[l],
                                         dtype=self.dtype)
            if not use_cache:
                self._comm_values.start_sweep(self.model.dims[l],
                                              dtype=self.dtype,
                                              double_buffer=self._pipelined)
            # repro-lint: allow-loop — one layer sweep: numerics per (layer, batch), emission batched
            for j in range(self.plan.num_batches):
                self._backward_batch(l, j, sink, use_cache)
            if not use_cache:
                self._comm_values.end_sweep()
            self._comm_grads.end_sweep()
            # Layer l-1's backward reads the ∇h^l rows accumulated above.
            self._close_sweep(timeline, key, sink)

    def _backward_batch(self, l: int, j: int, sink: Sink,
                        use_cache: bool) -> None:
        """One backward batch: gradient load → kernels → accumulate.

        A cacheable layer recomputes only UPDATE, from the cached batch
        aggregate (``use_cache``) or the forward's staging again
        (:meth:`_stage_batch`); a non-cacheable layer re-stages its inputs
        and recomputes it whole. Each GPU's kernel waits for its own
        ∇h^{l+1} load and, without the cache, for the tasks that re-staged
        its inputs; the neighbor gradients then return to the host through
        the deduplicated backward communication: the rows move, and the
        traffic is recorded into ``sink`` unless it is ``None``. At layer 0
        the kernels compute parameter gradients only, and no row moves.
        """
        layer = self.model.layers[l]
        shapes = self.fleet.shapes
        input_deps = None
        if use_cache:
            costs = shapes.backward_cached(layer, j)
            aggregate = self._take_checkpoint(l, j)
        else:
            costs = shapes.backward_recompute(layer, j)
            input_deps, aggregate = self._stage_batch(l, j, sink)
        # per GPU, its input rows' gradient (empty at layer 0)
        neighbor_grads: List[np.ndarray] = []

        stop = 0
        with self._workspaces("backward_workspace", costs.workspace_bytes):
            # repro-lint: allow-loop — per-GPU numerics over python chunk objects; emission below is batched
            for i in range(self.plan.num_gpus):
                chunk = self.partition.chunks[i][j]
                start, stop = stop, stop + chunk.num_dst
                grads = self._chunk_pass(
                    l, i, j,
                    None if aggregate is None else aggregate[start:stop],
                    self._grad_h[l + 1][chunk.dst_global])
                if grads is not None:
                    neighbor_grads.append(grads)
        # ∇h⁰ is the gradient of the constant features: nothing reads it
        if l > 0:
            self._comm_grads.accumulate_batch_backward(
                j, neighbor_grads, self._grad_h[l])
        if sink is None:
            return

        load_ids = sink.submit_batch(
            "h2d",
            self.platform.h2d_seconds(costs.load_bytes,
                                      devices=self._gpu_ids),
            nbytes=costs.load_bytes, label=f"grad_load[l{l}b{j}]",
        )
        compute_deps = load_ids if input_deps is None else DepLists.join(
            self.plan.num_gpus, input_deps, load_ids)
        compute_ids = sink.submit_batch(
            "gpu",
            self.platform.gpu_compute_seconds(costs.flops,
                                              devices=self._gpu_ids),
            deps_by_device=compute_deps,
            label=f"grad_compute[l{l}b{j}]",
        )
        self._comm_grads.submit_batch_backward(j, sink,
                                               deps_by_device=compute_ids)

    @contextlib.contextmanager
    def _workspaces(self, tag: str, nbytes: np.ndarray) -> Iterator[None]:
        """Hold every GPU's workspace of one (layer, batch)
        (:func:`~repro.hardware.memory.reserve_all`) for the body."""
        allocations = reserve_all(
            [gpu.memory for gpu in self.platform.gpus], tag, nbytes.tolist())
        try:
            yield
        finally:
            for allocation in allocations:
                allocation.free()

    def _stage_batch(self, l: int, j: int, sink: Sink
                     ) -> Tuple[Optional[DepLists], Optional[np.ndarray]]:
        """Emit the staging of batch ``j`` of layer ``l`` onto ``sink``,
        for the forward and the recompute backward alike: per GPU, the
        tasks its compute waits for
        (:meth:`~repro.comm.executor.DedupCommunicator.submit_batch_forward`;
        ``None`` when ``sink`` is), and a cacheable layer's batch
        AGGREGATE (``None`` for GAT and GGNN, whose chunks read their
        input rows of h^l when they run).

        The AGGREGATE is one product over the host's h^l, chunk (i, j)'s
        being its row range, chunks in GPU order. A transition buffer
        holds the host rows it stages, so no row is copied, and the rows
        equal the per-chunk products to the bit
        (:meth:`~repro.gnn.block.Block.in_slots`).
        """
        input_deps = None if sink is None else \
            self._comm_values.submit_batch_forward(j, sink)
        layer = self.model.layers[l]
        if not layer.cacheable_aggregate:
            return input_deps, None
        with no_grad():
            return input_deps, layer.aggregate(self._batch_block(j),
                                               Tensor(self._h[l])).data

    def _batch_block(self, j: int) -> Block:
        """Batch ``j``'s chunks as one block over the host's h^l, built
        on first use after each :meth:`adopt`."""
        block = self._batch_blocks.get(j)
        if block is None:
            blocks = [chunks[j].block for chunks in self.partition.chunks]
            block = self._batch_blocks[j] = Block.in_slots(
                blocks, [chunk.src_global for chunk in blocks],
                self.graph.num_vertices)
        return block

    def _chunk_pass(self, l: int, i: int, j: int,
                    aggregate: Optional[np.ndarray],
                    grad_out: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Layer ``l`` over chunk (i, j), in the forward and the backward.

        A cacheable layer runs UPDATE on ``aggregate``, the chunk's rows
        of the batch AGGREGATE; an UPDATE that ignores h_dst gets the
        aggregate as a placeholder. The other layers run whole on the
        chunk's input rows of h^l. Without ``grad_out`` (the forward, under
        ``no_grad``) the result is the chunk's output rows. With it, the
        pass runs under a tape of its own, back-propagates ``grad_out`` and
        returns the gradient of the chunk's input rows — a cacheable
        layer's through the closed-form AGGREGATE adjoint. At layer 0 the
        tape takes its inputs as constants and computes the parameter
        gradients only: the result is ``None``.
        """
        layer = self.model.layers[l]
        chunk = self.partition.chunks[i][j]
        block = chunk.block
        needs_input_grad = grad_out is not None and l > 0
        if aggregate is None:
            x = Tensor(self._h[l][block.src_global],
                       requires_grad=needs_input_grad)
            out = layer.forward(block, x)
        else:
            x = Tensor(aggregate, requires_grad=needs_input_grad)
            h_dst = (Tensor(self._h[l][chunk.dst_global],
                            requires_grad=needs_input_grad)
                     if layer.update_uses_self else x)
            out = layer.update(block, x, h_dst)
        if grad_out is None:
            return out.data
        out.backward(grad_out)
        # the tape holds every intermediate's rows and gradient: free it
        # before the adjoint allocates the neighbor gradient
        del out
        if not needs_input_grad:
            return None
        grads = x.grad if x.grad is not None else np.zeros_like(x.data)
        if aggregate is None:
            return grads
        grads = layer.aggregate_backward(block, grads)
        if layer.update_uses_self and h_dst.grad is not None:
            grads[block.dst_pos] += h_dst.grad  # dst_pos is duplicate-free
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
            seconds = self.platform.allreduce_seconds(
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
                devices=net_link(np.array(alive), np.roll(alive, -1),
                                 nodes, 0, num_rails),
                deps=intra_ids,
                nbytes=share + (np.arange(len(alive)) < extra),
                label=f"all_reduce_{self.config.allreduce}",
            )
        self.optimizer.step()

    # ------------------------------------------------------------------
    # checkpoint store
    # ------------------------------------------------------------------
    def _store_checkpoint(self, l: int, j: int, aggregate: np.ndarray,
                          nbytes: np.ndarray) -> None:
        """Keep layer ``l``'s AGGREGATE product of batch ``j``, read-only.

        GPU i's ``nbytes[i]`` rows take a slot on its node's host pool,
        reserved on the first store
        (:func:`~repro.hardware.memory.reserve_all`) and reused by later
        epochs: a slot's size is fixed by its chunk, and a re-plan frees
        every slot.
        """
        aggregate.flags.writeable = False
        entry = self._checkpoints.get((l, j))
        slots = entry[1] if entry else reserve_all(
            [self.platform.host_pool(self.platform.node_of(i))
             for i in range(len(nbytes))],
            "aggregate_cache", nbytes.tolist())
        self._checkpoints[(l, j)] = aggregate, slots

    def _take_checkpoint(self, l: int, j: int) -> np.ndarray:
        entry = self._checkpoints.get((l, j))
        if entry is None:
            raise ConfigurationError(
                f"missing aggregate checkpoint for layer {l}, batch {j} — "
                f"was the forward pass run with the hybrid policy?"
            )
        return entry[0]

    def free_checkpoints(self) -> None:
        """Release all cached aggregates and their host allocations."""
        for _, allocations in self._checkpoints.values():
            for allocation in allocations:
                allocation.free()
        self._checkpoints.clear()
