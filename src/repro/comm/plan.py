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
  slot ("in-place transition data management", §6). The rule runs on
  arrays for all m GPUs of a batch at once: the last batch's staged rows
  with their slots, and every GPU's free slots as one sorted array;
* ``slots``       — the routing for assembling h_{N_ij}, stored once, as
  flat addresses. The m transition buffers are one address space (GPU i's
  buffer is the row range ``[buffer_offsets[i], buffer_offsets[i+1])`` of
  the stacked buffer), and every plan stores the stacked-buffer slot of
  each needed row (``source_slots``) and of each loaded row
  (``load_slots``) — what the executor indexes with, one gather/scatter
  per GPU. They come out of one per-batch vertex→slot lookup in a second
  pass over the plans, once the buffer sizes are final
  (:meth:`CommPlan.validate` checks them against the staging);
* ``fetch segments`` — which rows a GPU reads from which GPU's transition
  buffer (local reads are intra-GPU, remote reads are P2P) is not stored:
  a slot's buffer names its source, so :meth:`CommPlan.segments` derives
  the (reader, source, rows) triples of a batch from the slots.

A batch is staged in one pass: its union is a row of vertex marks, one
stable sort by owner cuts it into the m transition sets, and the reuse
split reads the previous union's marks (each vertex has one owner, so a
vertex the previous union held was staged on the same GPU).

Disabling inter-GPU dedup (``dedup_inter=False``) degenerates the transition
set to the GPU's own needed set (every GPU loads everything it needs — the
vanilla DeepSpeed-style baseline); disabling intra-GPU dedup
(``dedup_intra=False``) clears the reuse split. The four combinations give
the paper's Baseline / +P2P / +RU / full-HongTu ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import CommunicationPlanError
from repro.partition.two_level import TwoLevelPartition

__all__ = ["BatchGpuPlan", "CommPlan", "build_comm_plan"]


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
    # Derived once — a plan is immutable after ``build_comm_plan``.
    #: 𝒩^cpu_ij — global ids loaded from the host this batch
    load_vertices: np.ndarray = field(init=False, repr=False)
    #: positions of ``load_vertices`` inside this GPU's transition buffer
    load_positions: np.ndarray = field(init=False, repr=False)
    num_loaded: int = field(init=False)
    num_reused: int = field(init=False)
    #: stacked-buffer slot of every ``load_vertices`` row
    #: (``buffer_offsets[gpu] + load_positions``)
    load_slots: np.ndarray = field(init=False, repr=False, default=None)
    #: stacked-buffer slot of every ``needed`` row, in ``needed`` order
    #: (``buffer_offsets[source_gpu] + source_position``) — duplicate-free,
    #: so one indexed gather assembles h_{N_ij} and one indexed ``+=``
    #: pushes its gradient
    source_slots: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        loaded = ~self.reuse_mask
        self.load_vertices = self.transition[loaded]
        self.load_positions = self.positions[loaded]
        self.num_loaded = len(self.load_vertices)
        self.num_reused = len(self.transition) - self.num_loaded


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
    #: ``(m + 1,)`` row offsets of the per-GPU buffers inside the stacked
    #: transition buffer — the address space of every plan's slot arrays
    buffer_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.buffer_offsets = np.concatenate(
            [[0], np.cumsum(self.buffer_rows, dtype=np.int64)])

    @property
    def num_batches(self) -> int:
        return len(self.plans)

    @property
    def num_gpus(self) -> int:
        return len(self.plans[0]) if self.plans else 0

    def segments(self, batch: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``batch``'s fetch segments as ``(reader, source, rows)`` arrays.

        A segment is the ``rows[s]`` needed rows GPU ``reader[s]`` takes
        from GPU ``source[s]``'s transition buffer — the buffer a slot
        lies in names its source. Segments come in reader order, then the
        interleave step from the reader's own buffer onward (Algorithm 2
        line 6): the sort order of the composite code below.
        """
        plans = self.plans[batch]
        m = len(plans)
        reader = np.repeat(np.arange(m, dtype=np.int64),
                           [len(plan.needed) for plan in plans])
        source = np.searchsorted(
            self.buffer_offsets,
            np.concatenate([plan.source_slots for plan in plans]),
            side="right") - 1
        segments, rows = np.unique(reader * m + (source - reader) % m,
                                   return_counts=True)
        reader, step = np.divmod(segments, m)
        return reader, (reader + step) % m, rows

    def validate(self) -> None:
        """Internal-consistency checks (used by tests)."""
        offsets = self.buffer_offsets
        for batch in self.plans:
            for plan in batch:
                if len(plan.transition) != len(plan.positions):
                    raise CommunicationPlanError("positions not parallel")
                if len(plan.transition) != len(plan.reuse_mask):
                    raise CommunicationPlanError("reuse mask not parallel")
                if len(np.unique(plan.positions)) != len(plan.positions):
                    raise CommunicationPlanError("duplicate buffer positions")
            # What each slot of the stacked buffer holds during this batch.
            resident = np.full(offsets[-1], -1, dtype=np.int64)
            for plan in batch:
                resident[offsets[plan.gpu] + plan.positions] = plan.transition
            for plan in batch:
                self._validate_slots(plan, resident)

    def _validate_slots(self, plan: BatchGpuPlan,
                        resident: np.ndarray) -> None:
        """The slot arrays must address what the staging put there."""
        where = f"(gpu={plan.gpu}, batch={plan.batch})"
        loaded = ~plan.reuse_mask
        if not (np.array_equal(plan.load_vertices, plan.transition[loaded])
                and np.array_equal(plan.load_positions,
                                   plan.positions[loaded])
                and plan.num_loaded == int(loaded.sum())
                and plan.num_reused == int(plan.reuse_mask.sum())):
            raise CommunicationPlanError(
                f"stored load split disagrees with the reuse mask {where}")
        if not np.array_equal(
                plan.load_slots,
                self.buffer_offsets[plan.gpu] + plan.load_positions):
            raise CommunicationPlanError(
                f"load slots disagree with load positions {where}")
        slots = plan.source_slots
        if len(np.unique(slots)) != len(slots):
            raise CommunicationPlanError(
                f"needed rows share a buffer slot {where}")
        inside = (0 <= slots) & (slots < len(resident))
        if not (inside.all()
                and np.array_equal(resident[slots], plan.needed)):
            raise CommunicationPlanError(
                f"source slots do not hold the needed vertices {where}")


def build_comm_plan(partition: TwoLevelPartition,
                    dedup_inter: bool = True,
                    dedup_intra: bool = True) -> CommPlan:
    """Construct the deduplicated communication plan for ``partition``.

    Each batch is staged in one pass over all m GPUs: its staged rows
    are one array ordered by (GPU, vertex), and each GPU's transition
    set, positions and reuse mask are slices of it.
    """
    m = partition.num_partitions
    num_vertices = partition.graph.num_vertices
    assignment = partition.assignment
    # A vertex no GPU of the plan owns is staged nowhere (``_route``
    # refuses a plan that needs one).
    stray = (assignment < 0) | (assignment >= m)
    if not stray.any():
        stray = None

    plans: List[List[BatchGpuPlan]] = []
    buffers = _Buffers(m, num_vertices)
    seen = None  # what the last batch staged, to test reuse against
    for j, chunks in enumerate(zip(*partition.chunks)):
        needed_sets = [chunk.neighbor_global for chunk in chunks]
        reuse_now = dedup_intra and j > 0
        if dedup_inter:
            # The batch union as vertex marks. Each vertex is staged once,
            # on its owner, and reused there when the last union held it
            # (it had the same owner then).
            marks = np.zeros(num_vertices, dtype=bool)
            marks[np.concatenate(needed_sets)] = True
            if stray is not None:
                marks[stray] = False
            union = np.flatnonzero(marks)
            owners = assignment[union]
            order = np.argsort(owners, kind="stable")
            staged, gpus = union[order], owners[order]
            counts = np.bincount(owners, minlength=m)
            if reuse_now:
                reuse, kept = seen[staged], marks[buffers.vertices]
            seen = marks
        else:
            # Every GPU stages its own needed set; (GPU, vertex) codes
            # keep one GPU's rows apart from another's.
            counts = np.array([len(needed) for needed in needed_sets],
                              dtype=np.int64)
            staged = np.concatenate(needed_sets)
            gpus = np.repeat(np.arange(m, dtype=np.int64), counts)
            codes = gpus * num_vertices + staged
            if reuse_now:
                reuse = np.isin(codes, seen, assume_unique=True)
                kept = np.isin(seen, codes, assume_unique=True)
            seen = codes
        if not reuse_now:
            reuse = np.zeros(len(staged), dtype=bool)
            kept = np.zeros(len(buffers.vertices), dtype=bool)
        positions = buffers.assign(staged, gpus, reuse, kept)

        cuts = np.cumsum(counts)[:-1]
        batch_plans = [
            BatchGpuPlan(gpu=i, batch=j, needed=needed,
                         transition=transition, positions=slots,
                         reuse_mask=mask)
            for i, needed, transition, slots, mask in zip(
                range(m), needed_sets, np.split(staged, cuts),
                np.split(positions, cuts), np.split(reuse, cuts))
        ]
        for plan in batch_plans:
            _require_distinct(plan)
        plans.append(batch_plans)

    comm_plan = CommPlan(partition, plans, buffers.next_slot.tolist(),
                         dedup_inter, dedup_intra)
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


def _require_distinct(plan: BatchGpuPlan) -> None:
    """Refuse a plan whose index sets could repeat an entry.

    The executor's backward accumulates with ``buf[idx] += rows``, which
    drops all but one of a repeated index. Its index sets are gathers of
    these three arrays at distinct offsets (``source_slots``, the flush
    ``vertices`` and slots), so duplicate-free here is duplicate-free
    there — checked once per plan, never per call.
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


class _Buffers:
    """Every GPU's in-place transition buffer, batch after batch (Fig. 7 a).

    The slot rule: reused vertices keep their slot, retired vertices free
    theirs, and new vertices, in transition order, take their GPU's
    smallest free slots before extending its buffer. This reproduces the
    paper's preprocessing that makes duplicated vertices of
    adjacently-scheduled subgraphs share write positions. The state is
    the last batch's staged rows with their slots, ordered by (GPU,
    vertex), the free slots as sorted ``gpu * num_vertices + slot``
    codes (a buffer never outgrows ``num_vertices`` rows), and each
    buffer's size.
    """

    def __init__(self, num_gpus: int, num_vertices: int):
        self.base = max(num_vertices, 1)
        self.vertices = np.zeros(0, dtype=np.int64)
        self.gpus = np.zeros(0, dtype=np.int64)
        self.positions = np.zeros(0, dtype=np.int64)
        self.free = np.zeros(0, dtype=np.int64)
        self.next_slot = np.zeros(num_gpus, dtype=np.int64)

    def assign(self, vertices: np.ndarray, gpus: np.ndarray,
               reuse_mask: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Positions of one batch's staged rows (ordered by GPU, vertex).

        ``reuse_mask`` marks the rows reused in place and ``kept`` the
        last batch's rows they are: the same (GPU, vertex) pairs in the
        same order, so the reused rows read their slots off ``kept``.
        """
        m, base = len(self.next_slot), self.base
        positions = np.empty(len(vertices), dtype=np.int64)
        positions[reuse_mask] = self.positions[kept]
        retired = ~kept
        free = np.sort(np.concatenate([
            self.free, self.gpus[retired] * base + self.positions[retired]]))
        free_gpus = free // base
        have = np.bincount(free_gpus, minlength=m)
        have_from = np.cumsum(have) - have

        new = np.flatnonzero(~reuse_mask)
        new_gpus = gpus[new]
        wanted = np.bincount(new_gpus, minlength=m)
        rank = np.arange(len(new)) - (np.cumsum(wanted) - wanted)[new_gpus]
        spare = have[new_gpus]
        from_free = rank < spare
        positions[new[from_free]] = free[
            have_from[new_gpus[from_free]] + rank[from_free]] % base
        grow = ~from_free
        positions[new[grow]] = (self.next_slot[new_gpus[grow]]
                                + rank[grow] - spare[grow])
        self.next_slot += np.maximum(wanted - have, 0)
        self.free = free[np.arange(len(free)) - have_from[free_gpus]
                         >= wanted[free_gpus]]
        self.vertices, self.gpus, self.positions = vertices, gpus, positions
        return positions
