"""The executor before the stacked transition buffer — the oracle for it.

:class:`~repro.comm.executor.DedupCommunicator` moves a batch's rows with
one indexed op per GPU over one stacked buffer, at slots the plan fixed in
preprocessing, and builds its per-batch emission constants
(``_BatchStatic`` / ``_HaloSplit``) with array ops. This module keeps both
in the form they were *written* in, verbatim from the commit before that
change: one ``(rows, dim)`` array per GPU, a Python walk of each plan's
fetch segments with one fancy-indexed read or ``+=`` per (reader GPU,
source GPU) pair, and dict-coalesced halo splits built contribution by
contribution.

The plan no longer stores fetch segments — its routing is the slot arrays
— so the per-segment builder lives here too
(:func:`reference_fetch_segments`, the planner's "Fetch segments" block
from the same commit). It reads a plan's vertex sets and buffer
positions and never a slot array: the oracle shares no routing with the
executor it checks.

Per buffer slot the ``+=`` order is reader-GPU order in both forms, and
every other op is a copy, so the two agree to the last bit and the tests
compare with ``np.array_equal`` — never ``allclose``.

:class:`ReferenceCommunicator` is the drop-in: the real communicator's
emission (timeline tasks, byte ledgers) with the old mover's *values*, so
a trainer built on it trains on reference numbers end to end.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.comm.executor import DedupCommunicator
from repro.errors import CommunicationPlanError
from repro.runtime.task import net_link

__all__ = ["ReferenceMover", "ReferenceCommunicator", "ReferenceSegment",
           "reference_fetch_segments", "reference_flush_split",
           "reference_batch_static", "HALO_FIELDS"]


class ReferenceSegment(NamedTuple):
    """Rows of one GPU's transition buffer feeding another GPU's input."""

    #: GPU owning the transition buffer being read
    source_gpu: int
    #: positions inside the source transition buffer
    source_positions: np.ndarray
    #: rows of the reading chunk's local input matrix
    local_rows: np.ndarray


def reference_fetch_segments(comm_plan, batch: int
                             ) -> List[List[ReferenceSegment]]:
    """Per reader GPU, the fetch segments assembling its ``batch`` input.

    For each reader GPU, split its needed set by the owner GPU staging
    each vertex this batch: one stable sort groups the needed set by
    owner in the interleaved order (Algorithm 2 line 6: start from the
    reader, wrap); transition sets are sorted, so per-segment buffer
    positions resolve by binary search.
    """
    batch_plans = comm_plan.plans[batch]
    m = len(batch_plans)
    assignment = comm_plan.partition.assignment
    per_gpu: List[List[ReferenceSegment]] = []
    for i in range(m):
        plan = batch_plans[i]
        needed = plan.needed
        segments: List[ReferenceSegment] = []
        per_gpu.append(segments)
        if len(needed) == 0:
            continue
        owner_of_needed = (assignment[needed] if comm_plan.dedup_inter
                           else np.full(len(needed), i, dtype=np.int64))
        step_of = (owner_of_needed - i) % m
        order = np.argsort(step_of, kind="stable")
        sorted_steps = step_of[order]
        boundaries = np.flatnonzero(np.diff(sorted_steps)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(order)]])
        for start, end in zip(starts.tolist(), ends.tolist()):
            rows = order[start:end]
            k = int((sorted_steps[start] + i) % m)
            vertices = needed[rows]
            staged = batch_plans[k].transition
            idx = np.searchsorted(staged, vertices)
            found = idx < len(staged)
            if len(staged):
                found &= staged[np.minimum(idx, len(staged) - 1)] \
                    == vertices
            if not found.all():
                missing = int(vertices[~found][0])
                raise CommunicationPlanError(
                    f"vertex {missing} needed by GPU {i} is not staged "
                    f"on GPU {k} in batch {batch}"
                )
            segments.append(ReferenceSegment(
                source_gpu=k,
                source_positions=batch_plans[k].positions[idx],
                local_rows=rows,
            ))
    return per_gpu


def reference_flush_split(comm_plan, batch: int
                          ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-GPU (vertices, buffer positions) flushed after ``batch``."""
    plans = comm_plan.plans[batch]
    flush_vertices: List[np.ndarray] = []
    flush_positions: List[np.ndarray] = []
    is_last = batch == comm_plan.num_batches - 1
    for plan in plans:
        if is_last:
            flush_mask = np.ones(len(plan.transition), dtype=bool)
        else:
            next_plan = comm_plan.plans[batch + 1][plan.gpu]
            kept = next_plan.transition[next_plan.reuse_mask]
            flush_mask = ~np.isin(plan.transition, kept,
                                  assume_unique=True)
        flush_vertices.append(plan.transition[flush_mask])
        flush_positions.append(plan.positions[flush_mask])
    return flush_vertices, flush_positions


class ReferenceMover:
    """One array per GPU, one indexed op per fetch segment."""

    def __init__(self, comm_plan, dim: int, dtype) -> None:
        self.plan = comm_plan
        self.dim = dim
        self.buffers = [np.zeros((rows, dim), dtype=dtype)
                        for rows in comm_plan.buffer_rows]
        self._segments = [reference_fetch_segments(comm_plan, batch)
                         for batch in range(comm_plan.num_batches)]

    def load_batch_forward(self, batch: int,
                           host_values: np.ndarray) -> List[np.ndarray]:
        buffers = self.buffers
        plans = self.plan.plans[batch]
        for plan in plans:
            buffers[plan.gpu][plan.positions[~plan.reuse_mask]] = \
                host_values[plan.transition[~plan.reuse_mask]]
        outputs: List[np.ndarray] = []
        for plan, segments in zip(plans, self._segments[batch]):
            local = np.empty((len(plan.needed), self.dim),
                             dtype=host_values.dtype)
            for segment in segments:
                local[segment.local_rows] = (
                    buffers[segment.source_gpu][segment.source_positions]
                )
            outputs.append(local)
        return outputs

    def accumulate_batch_backward(self, batch: int,
                                  neighbor_grads: List[np.ndarray],
                                  host_grads: np.ndarray) -> None:
        buffers = self.buffers
        plans = self.plan.plans[batch]
        for plan in plans:
            buffers[plan.gpu][plan.positions[~plan.reuse_mask]] = 0.0
        for segments, grads in zip(self._segments[batch], neighbor_grads):
            for segment in segments:
                buffers[segment.source_gpu][segment.source_positions] += \
                    grads[segment.local_rows]
        flush_vertices, flush_positions = reference_flush_split(self.plan,
                                                                batch)
        for plan, vertices, positions in zip(
                plans, flush_vertices, flush_positions):
            host_grads[vertices] += buffers[plan.gpu][positions]


class ReferenceCommunicator(DedupCommunicator):
    """The real emission, the old mover's values.

    Forward returns the reference mover's inputs (the real call still runs,
    for its tasks and ledgers); backward lets the real call emit, then
    overwrites ``host_grads`` with what the reference mover accumulates
    from the same starting rows.
    """

    def start_sweep(self, dim, dtype=np.float64, double_buffer=False):
        super().start_sweep(dim, dtype, double_buffer)
        self._mover = ReferenceMover(self.plan, dim, dtype)

    def load_batch_forward(self, batch, host_values, timeline):
        super().load_batch_forward(batch, host_values, timeline)
        return self._mover.load_batch_forward(batch, host_values)

    def accumulate_batch_backward(self, batch, neighbor_grads, host_grads,
                                  timeline, deps_by_device=None):
        reference = host_grads.copy()
        self._mover.accumulate_batch_backward(batch, neighbor_grads,
                                              reference)
        super().accumulate_batch_backward(batch, neighbor_grads, host_grads,
                                          timeline, deps_by_device)
        host_grads[:] = reference


# ----------------------------------------------------------------------
# loop-built emission constants
# ----------------------------------------------------------------------
#: the ``_HaloSplit`` fields, in declaration order
HALO_FIELDS = ("rows", "devices", "by_reader", "key_gpus",
               "src_nodes", "dst_nodes")


class _LoopStatic:
    """``_batch_static`` as a walk of the plans and their segments."""

    def __init__(self, comm_plan, platform) -> None:
        self.plan = comm_plan
        m = comm_plan.num_gpus
        self._num_nodes = platform.num_nodes
        self._node_of_gpu = [platform.node_of(i) for i in range(m)]
        self._rail_topology = platform.topology.kind == "rail"
        self._num_rails = platform.num_rails
        self._local_rank = [platform.local_rank(i) for i in range(m)]
        if self._num_nodes > 1:
            node_map = np.asarray(self._node_of_gpu, dtype=np.int64)
            self._vertex_node = node_map[comm_plan.partition.assignment]
        else:
            self._vertex_node = None

    def _rail_of(self, gpu: int) -> int:
        if not self._rail_topology:
            return 0
        return self._local_rank[gpu] % self._num_rails

    def _link_key(self, src_node, dst_node, gpu):
        return (src_node, dst_node, self._rail_of(gpu))

    def _build_halo(self, contributions) -> Dict[str, object]:
        rows: Dict[Tuple[int, int, int], int] = {}
        gpus: Dict[Tuple[int, int, int], List[int]] = {}
        for key, gpu, count in contributions:
            rows[key] = rows.get(key, 0) + count
            gpus.setdefault(key, []).append(gpu)
        keys = sorted(rows)
        by_reader: List[List[int]] = [[] for _ in range(self.plan.num_gpus)]
        key_gpus: List[List[int]] = []
        for index, key in enumerate(keys):
            deduped = list(dict.fromkeys(gpus[key]))
            key_gpus.append(deduped)
            for gpu in deduped:
                by_reader[gpu].append(index)
        devices = np.array(
            [net_link(src, dst, self._num_nodes, rail, self._num_rails)
             for src, dst, rail in keys],
            dtype=np.int64,
        )
        return dict(
            rows=np.array([rows[key] for key in keys], dtype=np.int64),
            devices=devices,
            by_reader=by_reader,
            key_gpus=key_gpus,
            src_nodes=np.array([key[0] for key in keys], dtype=np.int64),
            dst_nodes=np.array([key[1] for key in keys], dtype=np.int64),
        )

    def _vertex_halo(self, vertex_lists, toward_owner: bool):
        contributions = []
        if self._vertex_node is not None:
            for gpu, vertices in enumerate(vertex_lists):
                if len(vertices) == 0:
                    continue
                gpu_node = self._node_of_gpu[gpu]
                owner_nodes = self._vertex_node[vertices]
                remote = owner_nodes != gpu_node
                if not remote.any():
                    continue
                counts = np.bincount(owner_nodes[remote],
                                     minlength=self._num_nodes)
                for owner_node in np.flatnonzero(counts):
                    key = self._link_key(gpu_node, int(owner_node), gpu) \
                        if toward_owner \
                        else self._link_key(int(owner_node), gpu_node, gpu)
                    contributions.append(
                        (key, gpu, int(counts[owner_node]))
                    )
        return self._build_halo(contributions)

    def batch_static(self, batch: int) -> Dict[str, object]:
        plans = self.plan.plans[batch]
        loaded_rows = np.array(
            [int((~plan.reuse_mask).sum()) for plan in plans],
            dtype=np.int64)
        reused_rows = np.array(
            [int(plan.reuse_mask.sum()) for plan in plans], dtype=np.int64)
        load_halo = self._vertex_halo(
            [plan.transition[~plan.reuse_mask] for plan in plans],
            toward_owner=False,
        )
        local_gpu: List[int] = []
        local_rows: List[int] = []
        d2d_gpu: List[int] = []
        d2d_rows: List[int] = []
        fetch_contrib = []
        push_contrib = []
        for plan, segments in zip(
                plans, reference_fetch_segments(self.plan, batch)):
            reader_node = self._node_of_gpu[plan.gpu]
            for segment in segments:
                count = len(segment.local_rows)
                if segment.source_gpu == plan.gpu:
                    local_gpu.append(plan.gpu)
                    local_rows.append(count)
                elif self._node_of_gpu[segment.source_gpu] != reader_node:
                    owner_node = self._node_of_gpu[segment.source_gpu]
                    fetch_contrib.append((
                        self._link_key(owner_node, reader_node, plan.gpu),
                        plan.gpu, count,
                    ))
                    push_contrib.append((
                        self._link_key(reader_node, owner_node, plan.gpu),
                        plan.gpu, count,
                    ))
                else:
                    d2d_gpu.append(plan.gpu)
                    d2d_rows.append(count)
        flush_vertices, flush_positions = reference_flush_split(self.plan,
                                                                batch)
        return dict(
            loaded_rows=loaded_rows,
            reused_rows=reused_rows,
            load_halo=load_halo,
            local_gpu=np.array(local_gpu, dtype=np.int64),
            local_rows=np.array(local_rows, dtype=np.int64),
            d2d_gpu=np.array(d2d_gpu, dtype=np.int64),
            d2d_rows=np.array(d2d_rows, dtype=np.int64),
            fetch_halo=self._build_halo(fetch_contrib),
            push_halo=self._build_halo(push_contrib),
            flush_rows=np.array([len(v) for v in flush_vertices],
                                dtype=np.int64),
            flush_vertices=flush_vertices,
            flush_positions=flush_positions,
            flush_halo=self._vertex_halo(flush_vertices, toward_owner=True),
        )


def reference_batch_static(comm_plan, platform, batch: int
                           ) -> Dict[str, object]:
    """The loop-built ``_BatchStatic`` of ``batch`` as a field dict (halo
    splits as dicts of :data:`HALO_FIELDS`)."""
    return _LoopStatic(comm_plan, platform).batch_static(batch)
