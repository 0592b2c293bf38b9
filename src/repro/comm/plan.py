"""Deduplicated-communication plans (paper §5.1, §5.2, §6).

For every batch ``j`` (the m concurrently-scheduled chunks) the planner
computes, per GPU ``i``:

* ``needed``      — N_ij, the chunk's full input vertex set;
* ``transition``  — 𝒩_ij, the slice of the batch union ∪_k N_kj whose
  vertices partition i *owns*; each vertex of the union is transferred from
  the host exactly once, to its owner GPU's transition buffer;
* ``reuse/load split`` — 𝒩^gpu_ij = 𝒩_ij ∩ 𝒩_i,j-1 is reused in place,
  𝒩^cpu_ij = 𝒩_ij \\ 𝒩_i,j-1 is loaded from the host;
* ``positions``   — write positions inside a single per-GPU transition
  buffer, assigned so duplicated vertices of adjacent batches keep their
  slot ("in-place transition data management", §6);
* ``fetch segments`` — for assembling h_{N_ij}: which rows to read from
  which GPU's transition buffer (local reads are intra-GPU, remote reads are
  P2P).

Disabling inter-GPU dedup (``dedup_inter=False``) degenerates the transition
set to the GPU's own needed set (every GPU loads everything it needs — the
vanilla DeepSpeed-style baseline); disabling intra-GPU dedup
(``dedup_intra=False``) clears the reuse split. The four combinations give
the paper's Baseline / +P2P / +RU / full-HongTu ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import CommunicationPlanError
from repro.partition.two_level import TwoLevelPartition

__all__ = ["FetchSegment", "BatchGpuPlan", "CommPlan", "build_comm_plan"]


@dataclass
class FetchSegment:
    """Rows of one GPU's transition buffer feeding another GPU's input."""

    #: GPU owning the transition buffer being read
    source_gpu: int
    #: positions inside the source transition buffer
    source_positions: np.ndarray
    #: rows of the reading chunk's local input matrix
    local_rows: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.local_rows)


@dataclass
class BatchGpuPlan:
    """Everything GPU ``i`` does for batch ``j``."""

    gpu: int
    batch: int
    #: N_ij — sorted global ids the chunk's input matrix must contain
    needed: np.ndarray
    #: 𝒩_ij — sorted global ids this GPU stages in its transition buffer
    transition: np.ndarray
    #: positions of ``transition`` inside the persistent transition buffer
    positions: np.ndarray
    #: boolean mask over ``transition``: True = reused in place (𝒩^gpu_ij)
    reuse_mask: np.ndarray
    #: fetch instructions to assemble the local input h_{N_ij}
    fetch_segments: List[FetchSegment] = field(default_factory=list)

    @property
    def load_vertices(self) -> np.ndarray:
        """𝒩^cpu_ij — global ids loaded from the host this batch."""
        return self.transition[~self.reuse_mask]

    @property
    def load_positions(self) -> np.ndarray:
        return self.positions[~self.reuse_mask]

    @property
    def num_loaded(self) -> int:
        return int((~self.reuse_mask).sum())

    @property
    def num_reused(self) -> int:
        return int(self.reuse_mask.sum())


@dataclass
class CommPlan:
    """Full per-epoch communication plan for an ``m × n`` partition."""

    partition: TwoLevelPartition
    #: plans[j][i] — batch j, GPU i
    plans: List[List[BatchGpuPlan]]
    #: per-GPU transition buffer capacity, in vertex rows
    buffer_rows: List[int]
    dedup_inter: bool
    dedup_intra: bool

    @property
    def num_batches(self) -> int:
        return len(self.plans)

    @property
    def num_gpus(self) -> int:
        return len(self.plans[0]) if self.plans else 0

    def gpu_schedule(self, gpu: int) -> List[BatchGpuPlan]:
        """The batch sequence executed by one GPU."""
        return [batch[gpu] for batch in self.plans]

    def validate(self) -> None:
        """Internal-consistency checks (used by tests)."""
        for batch in self.plans:
            for plan in batch:
                if len(plan.transition) != len(plan.positions):
                    raise CommunicationPlanError("positions not parallel")
                if len(plan.transition) != len(plan.reuse_mask):
                    raise CommunicationPlanError("reuse mask not parallel")
                if len(np.unique(plan.positions)) != len(plan.positions):
                    raise CommunicationPlanError("duplicate buffer positions")
                covered = np.concatenate(
                    [segment.local_rows for segment in plan.fetch_segments]
                ) if plan.fetch_segments else np.empty(0, dtype=np.int64)
                if len(covered) != len(plan.needed) or (
                    len(covered) and not np.array_equal(
                        np.sort(covered), np.arange(len(plan.needed)))
                ):
                    raise CommunicationPlanError(
                        f"fetch segments do not cover needed set exactly "
                        f"(gpu={plan.gpu}, batch={plan.batch})"
                    )


def build_comm_plan(partition: TwoLevelPartition,
                    dedup_inter: bool = True,
                    dedup_intra: bool = True) -> CommPlan:
    """Construct the deduplicated communication plan for ``partition``."""
    m = partition.num_partitions
    n = partition.num_chunks
    assignment = partition.assignment

    plans: List[List[BatchGpuPlan]] = []
    # Per-GPU in-place buffer state: vertex -> position, plus a free list.
    position_of: List[Dict[int, int]] = [dict() for _ in range(m)]
    free_slots: List[List[int]] = [[] for _ in range(m)]
    next_slot = [0] * m
    previous_transition: List[Optional[np.ndarray]] = [None] * m

    for j in range(n):
        needed_sets = [partition.chunks[i][j].neighbor_global for i in range(m)]

        if dedup_inter:
            union = np.unique(np.concatenate(needed_sets))
            owners = assignment[union]
            transitions = [union[owners == i] for i in range(m)]
        else:
            transitions = [needed.copy() for needed in needed_sets]

        batch_plans: List[BatchGpuPlan] = []
        for i in range(m):
            transition = transitions[i]
            previous = previous_transition[i]
            reuse_mask = (np.isin(transition, previous, assume_unique=True)
                          if dedup_intra and previous is not None
                          else np.zeros(len(transition), dtype=bool))

            positions = _assign_positions(
                transition, reuse_mask, position_of[i], free_slots[i],
                next_slot, i,
            )
            plan = BatchGpuPlan(
                gpu=i, batch=j,
                needed=needed_sets[i],
                transition=transition,
                positions=positions,
                reuse_mask=reuse_mask,
            )
            _require_distinct(plan)
            batch_plans.append(plan)
            previous_transition[i] = transition

        # Fetch segments: for each reader GPU, split its needed set by the
        # owner GPU staging each vertex this batch. Rather than probing
        # all m candidate owners per reader (quadratic in m), group the
        # needed set by owner with one stable sort; transition sets are
        # sorted, so per-segment buffer positions resolve by binary
        # search instead of dict lookups.
        for i in range(m):
            plan = batch_plans[i]
            needed = plan.needed
            if len(needed) == 0:
                continue
            owner_of_needed = (assignment[needed] if dedup_inter
                               else np.full(len(needed), i, dtype=np.int64))
            # Interleaved order (Algorithm 2 line 6): start from i, wrap.
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
                        f"on GPU {k} in batch {j}"
                    )
                plan.fetch_segments.append(FetchSegment(
                    source_gpu=k,
                    source_positions=batch_plans[k].positions[idx],
                    local_rows=rows,
                ))
        plans.append(batch_plans)

    buffer_rows = list(next_slot)
    return CommPlan(partition, plans, buffer_rows, dedup_inter, dedup_intra)


def _require_distinct(plan: BatchGpuPlan) -> None:
    """Refuse a plan whose index sets could repeat an entry.

    The executor's backward accumulates with ``buf[idx] += rows``, which
    drops all but one of a repeated index. Its index sets are gathers of
    these three arrays at distinct offsets (a fetch segment's
    ``source_positions``, the flush ``vertices`` and ``positions``), so
    duplicate-free here is duplicate-free there — checked once per plan,
    never per call.
    """
    for what, vertices in (("needed", plan.needed),
                           ("transition", plan.transition)):
        if (vertices[1:] <= vertices[:-1]).any():
            raise CommunicationPlanError(
                f"{what} vertices are not sorted and duplicate-free "
                f"(gpu={plan.gpu}, batch={plan.batch})"
            )
    if len(plan.positions) and np.bincount(plan.positions).max() > 1:
        raise CommunicationPlanError(
            f"duplicate buffer positions (gpu={plan.gpu}, "
            f"batch={plan.batch})"
        )


def _assign_positions(transition: np.ndarray, reuse_mask: np.ndarray,
                      position_of: Dict[int, int], free_slots: List[int],
                      next_slot: List[int], gpu: int) -> np.ndarray:
    """In-place slot assignment for one GPU's batch transition set.

    Reused vertices keep their slot; retired vertices free theirs; new
    vertices fill freed slots before extending the buffer. This reproduces
    the paper's preprocessing that makes duplicated vertices of
    adjacently-scheduled subgraphs share write positions (Fig. 7 a).
    """
    keep = set(transition[reuse_mask].tolist())
    retired = [v for v in position_of if v not in keep]
    for vertex in retired:
        free_slots.append(position_of.pop(vertex))
    free_slots.sort(reverse=True)  # deterministic reuse order

    positions = np.empty(len(transition), dtype=np.int64)
    for index, vertex in enumerate(transition.tolist()):
        if reuse_mask[index]:
            positions[index] = position_of[vertex]
            continue
        if free_slots:
            slot = free_slots.pop()
        else:
            slot = next_slot[gpu]
            next_slot[gpu] += 1
        position_of[vertex] = slot
        positions[index] = slot
    return positions
