"""The joint placement↔schedule loop pricing every layout afresh — the
oracle for ``repro.comm.joint.joint_placement``.

This is the loop verbatim as it shipped before its rounds shared one
:class:`~repro.partition.nodes.LayoutSweeps`: every
``search_placement`` and every ``reorganize_partition`` builds its own,
so each round sweeps the fetch matrix, the load matrices, the Eq. 4
volumes and the paper's greedy layout again, including those of the
layout the previous round's guard already priced.

``repro.comm.joint.joint_placement`` must return the same result for
every input: every row count is an integer and every cost the same float
expression of the same values, so ``tests/test_joint_reference.py``
compares with ``==``. The result types and ``_combined_cost`` are the
shipped module's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.comm.joint import (
    JointIteration,
    JointPlacementResult,
    JointResult,
    _combined_cost,
)
from repro.comm.reorganize import (
    ReorganizationResult,
    _require_size,
    reorganize_partition,
)
from repro.errors import ConfigurationError, require_count
from repro.hardware.platform import ALLREDUCE_ALGORITHMS, MultiGPUPlatform
from repro.partition.placement import search_placement
from repro.partition.two_level import TwoLevelPartition

__all__ = ["reference_joint_placement"]


def reference_joint_placement(partition: TwoLevelPartition,
                    platform: MultiGPUPlatform,
                    row_bytes: int = 4 * 128,
                    allreduce_bytes: float = 0.0,
                    allreduce_algorithm: str = "ring",
                    max_iterations: int = 4,
                    seed_placement: Optional[np.ndarray] = None,
                    max_imbalance: int = 0,
                    node_budgets: Optional[Sequence[Optional[float]]] = None,
                    partition_host_bytes: Optional[np.ndarray] = None,
                    compute_rows: Optional[np.ndarray] = None
                    ) -> JointResult:
    """Alternate placement search and schedule reorganization to a
    fixed point of the combined predicted cost.

    Runs at most ``max_iterations`` rounds of ``search_placement`` (the
    schedule fixed, the placement seeded from the previous round) then
    ``reorganize_partition`` (the placement fixed, the net term priced
    against it), stopping as soon as a round fails to *strictly* lower
    the combined cost. Deterministic: every component breaks ties on
    lowest ids, and the loop state is a pure function of its inputs.

    Returns the best (schedule, placement) pair seen. Iteration 1 is
    exactly the single-pass ``placement="search"`` pipeline, so
    ``cost_joint <= cost_single_pass`` always holds.

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
    """
    if not (isinstance(platform, MultiGPUPlatform)
            and platform.num_nodes > 1):
        raise ConfigurationError(
            f"platform must be a MultiGPUPlatform of at least 2 nodes, "
            f"got {platform!r}")
    _require_size("row_bytes", row_bytes)
    require_count("max_iterations", max_iterations, 1)
    _require_size("allreduce_bytes", allreduce_bytes, allow_zero=True)
    if allreduce_algorithm not in ALLREDUCE_ALGORITHMS:
        raise ConfigurationError(
            f"allreduce_algorithm must be one of {ALLREDUCE_ALGORITHMS}, "
            f"got {allreduce_algorithm!r}")

    num_nodes = platform.num_nodes
    placement = seed_placement
    current = partition
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

    for index in range(1, max_iterations + 1):
        placed = search_placement(
            current, num_nodes,
            seed_placement=placement, max_imbalance=max_imbalance,
            node_budgets=node_budgets,
            partition_host_bytes=partition_host_bytes,
            compute_rows=compute_rows,
            dead_nodes=platform.dead_nodes,
        )
        placement = placed.placement
        total_swaps += placed.swaps
        total_moves += placed.moves
        total_refinements += placed.refinement_passes

        reorganized = reorganize_partition(current, platform, row_bytes,
                                           placement=placement)
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

    assert best_placement is not None  # max_iterations >= 1 ran one round
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
