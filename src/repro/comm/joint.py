"""Joint placement↔schedule iteration (the Algorithm-4 cost-model loop
closed over both axes).

The single-pass pipeline searches the partition→node placement once — on
the *pre-reorganization* chunk schedule — and then reorganizes the
schedule under that placement. But the two optimizations feed each
other: the placement objective's load term (``partition_load_matrix``)
depends on the chunk schedule, and the net-aware reorganization's
objective depends on the placement it prices cross-node rows against. A
schedule adopted for one placement can open placement moves the first
search could not see, and vice versa.

:func:`joint_placement` closes the loop by block-coordinate descent:

1. ``search_placement`` with the schedule fixed (seeded from the current
   assignment, so the placement is refined, never restarted), then
2. ``reorganize_partition`` with the placement fixed (the net term is
   re-priced against the *current* assignment each iteration),

repeating until the combined predicted cost — the Eq. 4 compute/host
term plus the cluster net term plus the placement-invariant collective
legs — stops strictly improving, with a deterministic iteration cap.

Monotonicity makes the loop safe: the placement step cannot change the
Eq. 4 term (it depends only on the schedule) and never raises the net
term (the search is never worse than its seed), and the reorganization
step's cost guard keeps the incumbent schedule whenever no candidate
beats it under the active placement. The combined cost is therefore
non-increasing across iterations, and iteration 1 *is* the single-pass
pipeline — so the joint result is never worse than single-pass by
construction; the best (placement, schedule) pair seen is tracked and
returned regardless, as a belt-and-braces guarantee.

Uneven placements thread straight through: ``max_imbalance`` /
``node_budgets`` / ``partition_host_bytes`` are handed to every
``search_placement`` call, so each iteration may only skew node loads
the memory model admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.comm.analysis import DedupVolumes
from repro.comm.reorganize import (
    ReorganizationResult,
    _require_size,
    reorganize_partition,
)
from repro.errors import ConfigurationError
from repro.hardware.platform import ALLREDUCE_ALGORITHMS, MultiGPUPlatform
from repro.partition.nodes import LayoutSweeps
from repro.partition.placement import PlacementResult, search_placement
from repro.partition.two_level import TwoLevelPartition

__all__ = ["joint_placement", "JointResult", "JointIteration"]

#: placement→reorganization rounds a joint loop runs at most
MAX_ITERATIONS = 4


@dataclass(frozen=True)
class JointIteration:
    """Provenance of one placement→reorganization round."""

    #: 1-based iteration index
    index: int
    #: cross-node halo rows under the placement found this round
    #: (before / after the search step)
    rows_before: int
    rows_after: int
    #: swaps + moves the search step applied
    swaps: int
    moves: int
    #: True if the reorganization guard kept the incoming schedule
    reorg_kept_schedule: bool
    #: combined predicted cost (Eq. 4 + net + collective legs) after
    #: this round
    cost: float


@dataclass(kw_only=True)
class JointPlacementResult(PlacementResult):
    """A :class:`~repro.partition.placement.PlacementResult` that also
    prices its endpoints and records the joint loop's per-iteration
    provenance.

    ``rows_block``/``cost_block`` report the *initial* (block-seeded)
    placement on the *initial* schedule; ``rows_search``/``cost_search``
    the adopted pair — so ``rows_saved`` measures the whole
    loop, and ``iterations`` shows where each row went.
    """

    #: combined predicted cost (Eq. 4 + net + collective legs) of the
    #: initial and the adopted (schedule, placement) pair
    cost_block: float
    cost_search: float
    iterations: List[JointIteration]
    #: iterations actually run before the cost stopped improving
    converged_after: int


@dataclass
class JointResult:
    """Adopted (schedule, placement) pair plus full provenance."""

    partition: TwoLevelPartition
    placement_result: JointPlacementResult
    reorganization: ReorganizationResult

    @property
    def iterations(self) -> List[JointIteration]:
        return self.placement_result.iterations


def _combined_cost(volumes: DedupVolumes, net_rows: int,
                   platform: MultiGPUPlatform, row_bytes: int,
                   allreduce_bytes: float, allreduce_algorithm: str,
                   compute_rows_placed: int = 0) -> float:
    """Eq. 4 + cluster net term + (constant) collective legs, seconds.

    A capability-aware loop also prices the placement's row-equivalent
    compute term (``compute_rows_placed``, from the search's objective)
    at the same congested rate, so trading halo rows for faster kernels
    moves the convergence criterion the same way it moves the search's
    integer objective. Zero (the homogeneous case) adds nothing.
    ``volumes`` are the layout's Eq. 4 volumes as the reorganization
    guard measured them.
    """
    eq4 = platform.dedup_seconds(volumes, row_bytes)
    net = platform.placement_seconds(
        net_rows, row_bytes, allreduce_bytes=allreduce_bytes,
        algorithm=allreduce_algorithm,
    )
    if compute_rows_placed:
        net += (compute_rows_placed * row_bytes
                / platform.collective_bandwidth)
    return eq4 + net


def joint_placement(partition: TwoLevelPartition,
                    platform: MultiGPUPlatform,
                    row_bytes: int = 4 * 128,
                    allreduce_bytes: float = 0.0,
                    allreduce_algorithm: str = "ring",
                    seed_placement: Optional[np.ndarray] = None,
                    max_imbalance: int = 0,
                    node_budgets: Optional[Sequence[Optional[float]]] = None,
                    partition_host_bytes: Optional[np.ndarray] = None,
                    compute_rows: Optional[np.ndarray] = None
                    ) -> JointResult:
    """Alternate placement search and schedule reorganization to a
    fixed point of the combined predicted cost.

    Runs at most :data:`MAX_ITERATIONS` rounds of ``search_placement`` (the
    schedule fixed, the placement seeded from the previous round) then
    ``reorganize_partition`` (the placement fixed, the net term priced
    against it), stopping as soon as a round fails to *strictly* lower
    the combined cost. Deterministic: every component breaks ties on
    lowest ids, and the loop state is a pure function of its inputs.

    Returns the best (schedule, placement) pair seen. Iteration 1 is
    exactly the single-pass ``placement="search"`` pipeline, so the
    adopted pair's ``cost_search`` never exceeds ``iterations[0].cost``.

    ``platform`` supplies the node count, the dead nodes and every price
    (Eq. 4 and the network); it must have at least two nodes (with one,
    both axes are no-ops). ``compute_rows`` (an ``(m, num_nodes)``
    row-equivalent compute matrix, see
    :func:`~repro.partition.placement.search_placement`)
    makes every search step capability-aware on a heterogeneous fleet;
    the convergence cost then includes the placed compute term at the
    same congested rate, and identical per-node rates leave the loop
    bit-identical to the homogeneous one.

    A platform with dead nodes runs the whole loop in evacuation mode
    (the elastic re-balancer's path): every search step refuses them and
    balances over the survivors, and the reorganization prices the
    evacuating placements it is handed.

    Every scalar is checked before the first search: a malformed one
    raises :class:`~repro.errors.ConfigurationError` naming it.

    Each chunk layout is priced once per call: one
    :class:`~repro.partition.nodes.LayoutSweeps` serves every round, so
    the fetch matrix is built once, and the load matrix, the Eq. 4
    volumes and the paper's greedy layout once per distinct layout —
    the layout a round adopts is the one its guard already measured.
    """
    if not (isinstance(platform, MultiGPUPlatform)
            and platform.num_nodes > 1):
        raise ConfigurationError(
            f"platform must be a MultiGPUPlatform of at least 2 nodes, "
            f"got {platform!r}")
    _require_size("row_bytes", row_bytes)
    _require_size("allreduce_bytes", allreduce_bytes, allow_zero=True)
    if allreduce_algorithm not in ALLREDUCE_ALGORITHMS:
        raise ConfigurationError(
            f"allreduce_algorithm must be one of {ALLREDUCE_ALGORITHMS}, "
            f"got {allreduce_algorithm!r}")

    num_nodes = platform.num_nodes
    placement = seed_placement
    current = partition
    # Round k+1 searches the layout round k adopted, which its guard
    # already priced: one holder runs each sweep once per layout.
    sweeps = LayoutSweeps(partition)
    iterations: List[JointIteration] = []
    total_swaps = 0
    total_moves = 0
    total_refinements = 0

    best_cost = np.inf
    best_partition = current
    best_placement: Optional[np.ndarray] = None
    best_reorganization: Optional[ReorganizationResult] = None
    best_rows = 0
    converged_after = 0

    for index in range(1, MAX_ITERATIONS + 1):
        placed = search_placement(
            current, num_nodes,
            seed_placement=placement, max_imbalance=max_imbalance,
            node_budgets=node_budgets,
            partition_host_bytes=partition_host_bytes,
            compute_rows=compute_rows,
            dead_nodes=platform.dead_nodes, sweeps=sweeps,
        )
        placement = placed.placement
        total_swaps += placed.swaps
        total_moves += placed.moves
        total_refinements += placed.refinement_passes

        reorganized = reorganize_partition(current, platform, row_bytes,
                                           placement=placement, sweeps=sweeps)
        current = reorganized.partition
        if index == 1:
            # The caller's layout under the seed placement.
            rows_initial = placed.rows_block
            cost_initial = _combined_cost(
                reorganized.volumes_before, placed.rows_block,
                platform, row_bytes, allreduce_bytes,
                allreduce_algorithm,
                compute_rows_placed=placed.compute_rows_block or 0,
            )

        net_rows = reorganized.net_rows_after
        cost = _combined_cost(
            reorganized.volumes_after, net_rows, platform,
            row_bytes, allreduce_bytes, allreduce_algorithm,
            compute_rows_placed=placed.compute_rows_search or 0,
        )
        iterations.append(JointIteration(
            index=index,
            rows_before=placed.rows_block, rows_after=placed.rows_search,
            swaps=placed.swaps, moves=placed.moves,
            reorg_kept_schedule=reorganized.kept_original,
            cost=cost,
        ))
        if cost < best_cost:
            best_cost = cost
            best_partition = current
            best_placement = placement
            best_reorganization = reorganized
            best_rows = net_rows
            converged_after = index
        else:
            break  # fixed point: the round did not strictly improve

    assert best_placement is not None  # MAX_ITERATIONS >= 1 ran one round
    placement_result = JointPlacementResult(
        placement=best_placement, num_nodes=num_nodes,
        rows_block=rows_initial, rows_search=best_rows,
        cost_block=cost_initial, cost_search=best_cost,
        swaps=total_swaps, refinement_passes=total_refinements,
        moves=total_moves,
        max_imbalance=max_imbalance,
        iterations=iterations, converged_after=converged_after,
    )
    return JointResult(
        partition=best_partition,
        placement_result=placement_result,
        reorganization=best_reorganization,
    )
