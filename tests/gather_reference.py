"""The trainer's earlier AGGREGATE forms — its oracles.

:class:`~repro.core.trainer.HongTuTrainer` computes a cacheable layer's
AGGREGATE (GCN, GraphSAGE, GIN, CommNet) as one product per (layer,
batch) over the host's h^l, through a block whose sources are vertex ids
(:meth:`~repro.gnn.block.Block.in_slots` over the chunks' ``src_global``);
no row is staged or gathered. Its recompute backward of those layers is
the hybrid path fed the recomputed aggregate. Two earlier forms are kept
here, each as it was written at the commit before it was replaced, apart
from three edits since: the staging call returns each GPU's input
dependencies, so they come from
:meth:`~repro.comm.executor.DedupCommunicator.submit_batch_forward` and
the inputs are the host rows of every GPU's needed set, which is what
:meth:`~repro.comm.executor.DedupCommunicator.load_batch_forward` returns;
``accumulate_batch_backward`` moves rows only, so every layer's gradient
traffic is emitted by
:meth:`~repro.comm.executor.DedupCommunicator.submit_batch_backward`; and
both emit every epoch (:class:`trainer_reference.EmitsEveryEpoch`), so
the trainer's replayed epochs are compared with emitted ones:

* :class:`SlotTrainer` — the slot-space AGGREGATE: each batch's rows are
  staged into one stacked transition buffer (the loads copied in, reused
  rows left in place) and the product runs over that buffer, through a
  block whose sources are buffer slots (the plan's ``source_slots``);
* :class:`GatherTrainer` — before that: every layer gathers each GPU's
  input before its chunks run, runs
  its aggregate per chunk, and the recompute backward re-runs the whole
  layer under the tape; it reserves each chunk's workspace on its own,
  and the hybrid policy copies each chunk's aggregate into a checkpoint
  of its own (:class:`ChunkCheckpoints`).

CSR products build each output row from its own entries in order, and a
staged row is the host row it copies, so all three must agree to the last
bit: losses, timelines, host h and ∇h, final parameters and accuracies.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.core import HongTuTrainer
from repro.core.planner import FleetPlan
from repro.errors import ConfigurationError
from repro.gnn.block import Block
from repro.hardware.clock import EventTimeline
from repro.runtime.scheduler import DepLists
from repro.units import SCALAR_BYTES
from trainer_reference import EmitsEveryEpoch

__all__ = ["ChunkCheckpoints", "GatherTrainer", "SlotTrainer"]


class SlotTrainer(EmitsEveryEpoch, HongTuTrainer):
    """HongTu's trainer with the slot-space AGGREGATE over a staged
    stacked buffer."""

    def adopt(self, fleet: FleetPlan) -> None:
        super().adopt(fleet)
        #: batch → its chunks as one block over the stacked buffer
        self._slot_blocks = {}

    def _stage_batch(self, l: int, j: int, timeline: EventTimeline):
        if not self.model.layers[l].cacheable_aggregate:
            return super()._stage_batch(l, j, timeline)
        input_deps = self._comm_values.submit_batch_forward(j, timeline)
        plans = self.plan.plans[j]
        if j == 0:  # every sweep starts at batch 0, on a fresh buffer
            self._stacked = np.zeros(
                (int(self.plan.buffer_offsets[-1]), self.model.dims[l]),
                dtype=self.dtype)
        self._stacked[np.concatenate([p.load_slots for p in plans])] = \
            self._h[l][np.concatenate([p.load_vertices for p in plans])]
        block = self._slot_blocks.get(j)
        if block is None:
            block = self._slot_blocks[j] = Block.in_slots(
                [chunks[j].block for chunks in self.partition.chunks],
                [plan.source_slots for plan in plans],
                int(self.plan.buffer_offsets[-1]))
        with no_grad():
            return input_deps, self.model.layers[l].aggregate(
                block, Tensor(self._stacked)).data


class ChunkCheckpoints:
    """The hybrid policy's checkpoint store as it was before the trainer
    kept one product per (layer, batch): each chunk's aggregate is copied
    into a checkpoint keyed ``(layer, gpu, batch)``, its host slot sized
    from the array's shape, and a column counts as checkpointed only when
    every GPU's chunk of it is."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._checkpoint_allocations = {}

    def checkpointed_columns(self) -> set:
        m = self.plan.num_gpus
        return {
            (l, j)
            for l in range(len(self.model.layers))
            for j in range(self.plan.num_batches)
            if all((l, i, j) in self._checkpoints for i in range(m))
        }

    def _store_checkpoint(self, l: int, i: int, j: int,
                          data: np.ndarray) -> None:
        key = (l, i, j)
        nbytes = data.shape[0] * data.shape[1] * SCALAR_BYTES
        if key not in self._checkpoint_allocations:
            # Checkpoints live on the host of the GPU that wrote them
            # (node 0's pool on a single-node platform). A slot's size
            # is fixed by its chunk, and a re-plan frees every slot.
            pool = self.platform.host_pool(self.platform.node_of(i))
            self._checkpoint_allocations[key] = pool.alloc(
                "aggregate_cache", nbytes
            )
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
        for allocation in self._checkpoint_allocations.values():
            allocation.free()
        self._checkpoint_allocations.clear()
        self._checkpoints.clear()


class GatherTrainer(EmitsEveryEpoch, ChunkCheckpoints, HongTuTrainer):
    """HongTu's trainer with the per-GPU input gather and per-chunk
    aggregate of every layer, and a checkpoint per chunk."""

    def _forward(self, timeline: EventTimeline, training: bool = True) -> None:
        hybrid = self.config.intermediate_policy == "hybrid"
        platform = self.platform

        for l, layer in enumerate(self.model.layers):
            self._comm_values.start_sweep(self.model.dims[l],
                                          dtype=self.dtype,
                                          double_buffer=self._pipelined)
            cache_layer = training and hybrid and layer.cacheable_aggregate
            for j in range(self.plan.num_batches):
                input_deps = self._comm_values.submit_batch_forward(
                    j, timeline)
                inputs = [self._h[l][plan.needed]
                          for plan in self.plan.plans[j]]
                costs = self.fleet.shapes.forward(layer, j)
                workspace = costs.workspace_bytes.tolist()
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

    def _backward_batch(self, l: int, j: int, timeline: EventTimeline,
                        use_cache: bool) -> None:
        layer = self.model.layers[l]
        shapes = self.fleet.shapes
        inputs = input_deps = None
        if use_cache:
            costs = shapes.backward_cached(layer, j)
        else:
            costs = shapes.backward_recompute(layer, j)
            input_deps = self._comm_values.submit_batch_forward(j, timeline)
            inputs = [self._h[l][plan.needed] for plan in self.plan.plans[j]]
        workspace = costs.workspace_bytes.tolist()
        # ∇h⁰ is the gradient of the constant features: nothing reads it
        needs_input_grad = l > 0
        # per GPU, its input rows' gradient (empty at layer 0)
        neighbor_grads: List[np.ndarray] = []

        for i in range(self.plan.num_gpus):
            chunk = self.partition.chunks[i][j]
            grad_out = self._grad_h[l + 1][chunk.dst_global]
            with self.platform.gpus[i].memory.scoped("backward_workspace",
                                                     workspace[i]):
                if use_cache:
                    grads = self._cached_chunk_grads(l, i, j, grad_out,
                                                     needs_input_grad)
                else:
                    h_t = Tensor(inputs[i], requires_grad=needs_input_grad)
                    layer.forward(chunk.block, h_t).backward(grad_out)
                    grads = h_t.grad
                    if grads is None and needs_input_grad:
                        grads = np.zeros_like(inputs[i])
                if needs_input_grad:
                    neighbor_grads.append(grads)

        load_ids = timeline.submit_batch(
            "h2d",
            self.platform.h2d_seconds(costs.load_bytes,
                                      devices=self._gpu_ids),
            nbytes=costs.load_bytes, label=f"grad_load[l{l}b{j}]",
        )
        compute_deps = load_ids if input_deps is None else DepLists.join(
            self.plan.num_gpus, input_deps, load_ids)
        compute_ids = timeline.submit_batch(
            "gpu",
            self.platform.gpu_compute_seconds(costs.flops,
                                              devices=self._gpu_ids),
            deps_by_device=compute_deps,
            label=f"grad_compute[l{l}b{j}]",
        )
        if needs_input_grad:
            self._comm_grads.accumulate_batch_backward(
                j, neighbor_grads, self._grad_h[l])
        self._comm_grads.submit_batch_backward(
            j, timeline, deps_by_device=compute_ids)

    def _cached_chunk_grads(self, l: int, i: int, j: int,
                            grad_out: np.ndarray,
                            needs_input_grad: bool) -> Optional[np.ndarray]:
        layer = self.model.layers[l]
        chunk = self.partition.chunks[i][j]
        block = chunk.block
        agg_t = Tensor(self._take_checkpoint(l, i, j),
                       requires_grad=needs_input_grad)
        # An UPDATE that ignores h_dst gets a placeholder, as in the forward.
        h_dst_t = (Tensor(self._h[l][chunk.dst_global],
                          requires_grad=needs_input_grad)
                   if layer.update_uses_self else agg_t)
        layer.update(block, agg_t, h_dst_t).backward(grad_out)
        if not needs_input_grad:
            return None
        grad_agg = agg_t.grad if agg_t.grad is not None else \
            np.zeros_like(agg_t.data)
        grads = layer.aggregate_backward(block, grad_agg)
        if layer.update_uses_self and h_dst_t.grad is not None:
            grads[block.dst_pos] += h_dst_t.grad  # dst_pos is duplicate-free
        return grads
