"""Algorithm 4 and the Eq. 4 volumes on Python sets — the oracle for
``repro.comm.reorganize`` and ``repro.comm.analysis.measure_volumes``.

This is the reorganization in the form it is *defined* in, verbatim as it
shipped before the greedy phases learned to read vertex marks: every
chunk's neighbour set is a Python ``set``, Phase 1 and Phase 2 intersect
sets and keep the first strictly better candidate of an ascending scan,
each reuse chain builds a set of remotely-owned rows per chunk, and
:func:`reference_measure_volumes` asks ``np.unique`` for every batch
union. :func:`reference_reorganize_partition` is the shipped guard around
them, verbatim but for its prices: Eq. 4 and the net term are the
platform's, and ``placement=None`` reads the platform's installed map.

``repro.comm.reorganize_partition`` and ``measure_volumes`` must return
the same values for every input: every overlap is an integer row count
and every score the same float expression of it, so
``tests/test_reorganize_reference.py`` compares results with ``==``.
The result types, ``_remote_row_weight`` and ``_materialize`` are the
shipped module's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.comm.analysis import DedupVolumes
from repro.comm.reorganize import (
    ReorganizationResult,
    _materialize,
    _remote_row_weight,
)
from repro.errors import ConfigurationError
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.nodes import (
    partition_halo_matrix,
    partition_load_matrix,
    partition_nodes,
)
from repro.partition.two_level import TwoLevelPartition

__all__ = ["reference_reorganize_partition", "reference_measure_volumes"]


def reference_measure_volumes(partition: TwoLevelPartition) -> DedupVolumes:
    """Compute the (v_ori, v_p2p, v_ru) triple for ``partition``."""
    m = partition.num_partitions
    n = partition.num_chunks

    v_ori = 0
    v_p2p = 0
    v_ru = 0
    union_sizes: List[int] = []
    previous_union: np.ndarray | None = None

    for j in range(n):
        needed = [partition.chunks[i][j].neighbor_global for i in range(m)]
        v_ori += sum(len(s) for s in needed)
        union = np.unique(np.concatenate(needed))
        v_p2p += len(union)
        union_sizes.append(len(union))
        if previous_union is None:
            v_ru += len(union)
        else:
            overlap = np.intersect1d(union, previous_union, assume_unique=True)
            v_ru += len(union) - len(overlap)
        previous_union = union

    return DedupVolumes(
        v_ori=v_ori, v_p2p=v_p2p, v_ru=v_ru,
        num_vertices=partition.graph.num_vertices,
        batch_union_sizes=union_sizes,
    )


def reference_reorganize_partition(partition: TwoLevelPartition,
                                   platform: MultiGPUPlatform,
                                   row_bytes: int = 4 * 128,
                                   placement: Optional[np.ndarray] = None
                                   ) -> ReorganizationResult:
    """Run Algorithm 4 on ``partition`` (see the shipped docstring)."""
    if not row_bytes > 0:
        raise ConfigurationError(
            f"row_bytes must be > 0 (it prices every guard cost), got "
            f"{row_bytes}"
        )
    m = partition.num_partitions
    n = partition.num_chunks

    neighbor_sets: List[List[Set[int]]] = [
        [set(partition.chunks[i][j].neighbor_global.tolist()) for j in range(n)]
        for i in range(m)
    ]

    # Candidate layouts as (grid, batch order): the input, the paper's
    # greedy one and, on a cluster, the net-aware one.
    net_aware = platform.num_nodes > 1
    layouts: List[Tuple[List[List[int]], List[int]]] = [
        ([list(range(n)) for _ in range(m)], list(range(n))),
        _paper_greedy(neighbor_sets),
    ]
    if net_aware:
        node_map = partition_nodes(
            m, platform.num_nodes,
            platform.placement if placement is None else placement,
            max_imbalance=None, dead_nodes=platform.dead_nodes)
        layouts.append((_reuse_chain_grid(
            partition, neighbor_sets, node_map,
            _remote_row_weight(platform, row_bytes),
        ), list(range(n))))
    candidates = [partition] + [_materialize(partition, grid, order)
                                for grid, order in layouts[1:]]

    # The guard: adopt the cheapest candidate under the net term (when
    # net-aware) plus Eq. 4; the input wins ties (first minimum).
    rows = net_seconds = None
    if net_aware:
        # The net term is the cross-node entries of W = F + 2·L
        # (``partition_net_weights``). Reordering a partition's chunks
        # changes what it freshly loads (L), never what it fetches (F) or
        # where it lives: F and the node map are the guard's, not the
        # candidate's.
        cross = node_map[:, None] != node_map[None, :]
        fetch = partition_halo_matrix(partition)
        rows = [int((fetch + 2 * partition_load_matrix(candidate))[cross]
                    .sum())
                for candidate in candidates]
        net_seconds = [platform.halo_volume_seconds(count * row_bytes)
                       for count in rows]
    costs = list(net_seconds) if net_aware else [0.0] * len(candidates)
    volumes = [reference_measure_volumes(candidate)
               for candidate in candidates]
    for k, measured in enumerate(volumes):
        costs[k] += platform.dedup_seconds(measured, row_bytes)
    best = min(range(len(costs)), key=costs.__getitem__)

    def before_after(values):
        return (None, None) if values is None else (values[0], values[best])

    cost_before, cost_after = before_after(costs)
    net_rows_before, net_rows_after = before_after(rows)
    net_seconds_before, net_seconds_after = before_after(net_seconds)
    volumes_before, volumes_after = before_after(volumes)
    return ReorganizationResult(
        candidates[best], *layouts[best],
        cost_before, cost_after, kept_original=best == 0,
        net_aware=net_aware,
        net_rows_before=net_rows_before, net_rows_after=net_rows_after,
        net_seconds_before=net_seconds_before,
        net_seconds_after=net_seconds_after,
        volumes_before=volumes_before, volumes_after=volumes_after,
    )


# ----------------------------------------------------------------------
# the paper's two greedy phases (net-blind)
# ----------------------------------------------------------------------
def _paper_greedy(neighbor_sets: Sequence[Sequence[Set[int]]]
                  ) -> Tuple[List[List[int]], List[int]]:
    """Phases 1 and 2 of Algorithm 4 exactly as the paper states them."""
    m = len(neighbor_sets)
    n = len(neighbor_sets[0])

    # ---- Phase 1: per-partition chunk-to-batch assignment -----------------
    # grid[i][j] = original chunk id of partition i assigned to batch j.
    grid: List[List[int]] = [[j for j in range(n)]]  # partition 0 fixed
    unions: List[Set[int]] = [set(neighbor_sets[0][j]) for j in range(n)]
    for i in range(1, m):
        remaining = set(range(n))
        row: List[int] = [0] * n
        for j in range(n):
            best_k, best_overlap = -1, -1
            for k in sorted(remaining):
                overlap = len(neighbor_sets[i][k] & unions[j])
                if overlap > best_overlap:
                    best_k, best_overlap = k, overlap
            row[j] = best_k
            unions[j] |= neighbor_sets[i][best_k]
            remaining.discard(best_k)
        grid.append(row)

    # ---- Phase 2: batch ordering ------------------------------------------
    order: List[int] = [0]
    remaining = set(range(1, n))
    while remaining:
        previous_union = unions[order[-1]]
        best_k, best_overlap = -1, -1
        for k in sorted(remaining):
            overlap = len(unions[k] & previous_union)
            if overlap > best_overlap:
                best_k, best_overlap = k, overlap
        order.append(best_k)
        remaining.discard(best_k)
    return grid, order


# ----------------------------------------------------------------------
# the net-aware candidate (cluster extension)
# ----------------------------------------------------------------------
def _reuse_chain_grid(partition: TwoLevelPartition,
                      neighbor_sets: Sequence[Sequence[Set[int]]],
                      node_map: np.ndarray, weight: float
                      ) -> List[List[int]]:
    """Per-partition greedy reuse chains with net-weighted overlap.

    Batch-to-batch reuse is independent across partitions (GPU i reuses
    rows *it* staged last batch), so the net-relevant objective decomposes:
    for every partition, order its chunks so consecutive neighbor sets
    overlap maximally, scoring each shared row 1 and each shared
    *remotely-owned* row ``weight`` (> 1: a reused remote row skips the
    network, not just PCIe). Batch order is the identity afterwards — the
    chains already are the schedule.
    """
    m = partition.num_partitions
    n = partition.num_chunks
    assignment = partition.assignment

    grid: List[List[int]] = []
    for i in range(m):
        home = node_map[i]
        remote_sets = [
            {v for v in neighbor_sets[i][j] if node_map[assignment[v]] != home}
            for j in range(n)
        ]
        row = [0]
        remaining = set(range(1, n))
        while remaining:
            last = row[-1]
            best_k, best_score = -1, -1.0
            for k in sorted(remaining):
                score = (
                    len(neighbor_sets[i][last] & neighbor_sets[i][k])
                    + (weight - 1.0) * len(remote_sets[last] & remote_sets[k])
                )
                if score > best_score:
                    best_k, best_score = k, score
            row.append(best_k)
            remaining.discard(best_k)
        grid.append(row)
    return grid
