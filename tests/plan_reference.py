"""The transition-buffer plan staged GPU by GPU — the oracle for
``repro.comm.plan.build_comm_plan``.

This is the planner in the form it was *written* in, verbatim as it
shipped before it staged a batch in one pass: the batch union comes from
``np.unique``, each GPU's transition slice from one boolean mask per GPU,
each reuse mask from one ``np.isin`` per GPU, and ``_assign_positions``
walks one GPU's transition set vertex by vertex with a ``dict`` from
vertex to slot and a Python free list. ``_route`` — the second pass that
turns positions into stacked-buffer slots — is the shipped one, kept here
verbatim so the oracle shares no routing with what it checks.

``repro.comm.plan.build_comm_plan`` must return the same arrays for every
input — every plan array is an integer or bool array, so
``tests/test_plan_reference.py`` compares them with ``np.array_equal``
and equal dtypes. The plan types and ``_require_distinct`` are the
shipped module's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.comm.plan import (
    BatchGpuPlan,
    CommPlan,
    _require_distinct,
)
from repro.errors import CommunicationPlanError
from repro.partition.two_level import TwoLevelPartition

__all__ = ["reference_build_comm_plan"]


def reference_build_comm_plan(partition: TwoLevelPartition,
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

        plans.append(batch_plans)

    comm_plan = CommPlan(partition, plans, list(next_slot), dedup_inter,
                         dedup_intra)
    _route(comm_plan)
    return comm_plan


def _route(comm_plan: CommPlan) -> None:
    """Second pass: every plan's routing, as slot arrays.

    Runs once ``buffer_rows`` — hence ``buffer_offsets`` — is final. Per
    batch, one vertex→slot lookup covers every staged row (under inter-GPU
    dedup each vertex of the batch union is staged exactly once, on its
    owner), so a reader's ``source_slots`` is one gather of the lookup at
    its needed set; without inter-GPU dedup every GPU stages its own needed
    set and reads nothing else.
    """
    offsets = comm_plan.buffer_offsets
    m = comm_plan.num_gpus
    assignment = comm_plan.partition.assignment
    dedup_inter = comm_plan.dedup_inter
    if dedup_inter:
        slot_of = np.empty(len(assignment), dtype=np.int64)
        staged_in = np.full(len(assignment), -1, dtype=np.int64)
    for j, batch_plans in enumerate(comm_plan.plans):
        if dedup_inter:
            staged = np.concatenate([plan.transition for plan in batch_plans])
            slot_of[staged] = (
                np.concatenate([plan.positions for plan in batch_plans])
                + np.repeat(offsets[:-1],
                            [len(plan.transition) for plan in batch_plans]))
            staged_in[staged] = j
        for plan in batch_plans:
            i, needed = plan.gpu, plan.needed
            plan.load_slots = offsets[i] + plan.load_positions
            if not dedup_inter:  # transition is the needed set
                plan.source_slots = offsets[i] + plan.positions
                continue
            unstaged = staged_in[needed] != j
            if unstaged.any():
                vertex = int(needed[np.flatnonzero(unstaged)[0]])
                raise CommunicationPlanError(
                    f"vertex {vertex} needed by GPU {i} is not staged on "
                    f"GPU {int(assignment[vertex]) % m} in batch {j}"
                )
            plan.source_slots = slot_of[needed]


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
