"""Two earlier forms of the trainer — its oracles.

:class:`EmittingTrainer` is the trainer before a steady epoch replayed
its recorded sweeps: every epoch emits every layer sweep onto its own
timeline, and ``evaluate()`` prices its forward on a throwaway one
(:class:`EmitsEveryEpoch`; the other trainer oracles of ``tests/`` mix it
in, so each still emits as it was written). Replaying a recorded sweep
schedules what emitting it does, so the two must agree to the last bit.

:class:`GradInputTrainer` is the trainer's backward before layer 0
stopped computing ∇h⁰.
:class:`~repro.core.trainer.HongTuTrainer` takes layer 0's inputs (the
input features) as constants: its backward computes parameter gradients
only, runs no aggregate adjoint, and emits the layer's gradient traffic
without moving a row. :class:`GradInputTrainer` keeps the form the
backward was written in, verbatim from the commit before that change:
every layer's tape takes its inputs as variables, the hybrid path runs
the closed-form aggregate adjoint, and every layer's neighbor gradients
flow through :meth:`~repro.comm.executor.DedupCommunicator.accumulate_batch_backward`
into a host ∇h buffer — ∇h⁰ included.

Nothing reads ∇h⁰, so the two must agree on everything else to the last
bit: losses, timelines, byte ledgers, peak memory and final parameters.
Three edits since: a chunk's cached aggregate is its row range of the
trainer's (layer, batch) checkpoint (:meth:`GradInputTrainer._chunk_checkpoint`),
where it used to be a checkpoint of its own; the staging call returns
each GPU's input dependencies, so they come from
:meth:`~repro.comm.executor.DedupCommunicator.submit_batch_forward` and
the inputs are the host rows of every GPU's needed set, which is what
:meth:`~repro.comm.executor.DedupCommunicator.load_batch_forward` returns;
and ``accumulate_batch_backward`` moves rows only, so the gradient
traffic is emitted by
:meth:`~repro.comm.executor.DedupCommunicator.submit_batch_backward`
beside it.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import split_accuracies
from repro.core import HongTuTrainer
from repro.hardware.clock import EventTimeline
from repro.runtime.scheduler import DepLists

__all__ = ["EmitsEveryEpoch", "EmittingTrainer", "GradInputTrainer"]


class EmitsEveryEpoch:
    """Mix-in: every layer sweep of every epoch emits onto the epoch's
    timeline, and ``evaluate()`` emits its forward onto a throwaway
    timeline — nothing is recorded or replayed, so a sweep ends with the
    barrier between layer sweeps alone."""

    def _sweep_sink(self, timeline, key):
        return timeline

    def _close_sweep(self, timeline, key, sink):
        if timeline is not None:
            timeline.barrier()

    def evaluate(self) -> Dict[str, float]:
        # throwaway; evaluation is not timed
        timeline = EventTimeline(barrier_all=not self._pipelined)
        self._forward(timeline, training=False)
        return split_accuracies(self._h[-1], self.graph)


class EmittingTrainer(EmitsEveryEpoch, HongTuTrainer):
    """HongTu's trainer emitting every sweep of every epoch."""


class GradInputTrainer(EmitsEveryEpoch, HongTuTrainer):
    """HongTu's trainer with a ∇h⁰ buffer that layer 0's backward fills."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # zeroed with the others at every epoch's loss
        self._grad_h[0] = np.zeros_like(self._h[0])

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
        neighbor_grads: List[np.ndarray] = []

        for i in range(self.plan.num_gpus):
            chunk = self.partition.chunks[i][j]
            grad_out = self._grad_h[l + 1][chunk.dst_global]
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
        compute_deps = load_ids if input_deps is None else DepLists.join(
            self.plan.num_gpus, input_deps, load_ids)
        compute_ids = timeline.submit_batch(
            "gpu",
            self.platform.gpu_compute_seconds(costs.flops,
                                              devices=self._gpu_ids),
            deps_by_device=compute_deps,
            label=f"grad_compute[l{l}b{j}]",
        )
        self._comm_grads.accumulate_batch_backward(
            j, neighbor_grads, self._grad_h[l])
        self._comm_grads.submit_batch_backward(j, timeline,
                                               deps_by_device=compute_ids)

    def _cached_chunk_grads(self, l: int, i: int, j: int,
                            grad_out: np.ndarray) -> np.ndarray:
        layer = self.model.layers[l]
        chunk = self.partition.chunks[i][j]
        block = chunk.block
        agg_data = self._chunk_checkpoint(l, i, j)
        if layer.update_uses_self:
            h_dst_data = self._h[l][chunk.dst_global]
        else:
            h_dst_data = np.zeros((block.num_dst, layer.in_dim),
                                  dtype=self.dtype)
        agg_t = Tensor(agg_data, requires_grad=True)
        h_dst_t = Tensor(h_dst_data, requires_grad=True)
        layer.update(block, agg_t, h_dst_t).backward(grad_out)
        grad_agg = agg_t.grad if agg_t.grad is not None else \
            np.zeros_like(agg_data)
        grads = layer.aggregate_backward(block, grad_agg)
        if layer.update_uses_self and h_dst_t.grad is not None:
            grads[block.dst_pos] += h_dst_t.grad  # dst_pos is duplicate-free
        return grads

    def _chunk_checkpoint(self, l: int, i: int, j: int) -> np.ndarray:
        """Chunk (i, j)'s rows of the (layer, batch) checkpoint: the chunks
        of a batch stack in GPU order."""
        rows = np.cumsum([0] + [chunks[j].num_dst
                                for chunks in self.partition.chunks])
        return self._take_checkpoint(l, j)[rows[i]:rows[i + 1]]
