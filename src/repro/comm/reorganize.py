"""Cost-model-guided subgraph reorganization (paper §5.3, Algorithm 4).

Finding the vertex-level optimal layout is NP-hard (reducible to a TSP
variant), so the paper reorganizes at *subgraph* granularity with a 2-phase
greedy heuristic:

* **Phase 1 — maximize inter-GPU duplication.** Partition 0's chunk order is
  fixed; for every other partition, each batch slot greedily picks the
  not-yet-placed chunk sharing the most neighbors with the batch's running
  transition union. Chunks never change partition (they stay on their GPU),
  only their schedule slot.
* **Phase 2 — maximize intra-GPU duplication.** Whole batches are reordered
  so consecutive batches' transition unions overlap maximally.

On a cluster the paper's Eq. 4 objective is blind to the dominant cost —
cross-node halo bytes — so on a multi-node platform
``reorganize_partition`` extends it with a **net term** (the scale-out
extension of Algorithm 4): cross-node halo rows are priced at network
seconds via the halo analyses of :mod:`repro.partition.nodes`, and a
*net-aware* candidate layout is grown alongside the paper's greedy one.
Every price — Eq. 4, the net term and the partition→node map it reads —
is the one platform's. The net-aware heuristic exploits the
fact that batch-to-batch reuse decomposes per partition: each partition's
chunks are chained greedily so consecutive neighbor sets overlap
maximally, with remotely-owned rows weighted up by how much more a
network crossing costs than a PCIe load. The cost guard then adopts
whichever layout (original, greedy, net-aware) minimizes the combined
Eq. 4 + net cost, so the reorganization shrinks network halos, not just
PCIe traffic.

The greedy phases run on vertex marks (a batch union is a row of one
``(n, V)`` bool table), never on Python sets, and every tie goes to the
lowest chunk or batch id.

``reorganize_partition`` returns a new :class:`TwoLevelPartition` — an
ordering of the input's chunk objects, never copies: Algorithm 4 moves a
chunk to another schedule slot, not its content — plus what the guard
measured. The result is a pure function of the inputs; Table 9's
preprocessing overhead is the caller's wall clock around the call
(``benchmarks/bench_table9_preprocess.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.analysis import DedupVolumes, measure_volumes
from repro.errors import ConfigurationError
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.nodes import LayoutSweeps, partition_nodes
from repro.partition.two_level import TwoLevelPartition

__all__ = ["reorganize_partition", "ReorganizationResult"]


@dataclass
class ReorganizationResult:
    """Reorganized partition + provenance.

    When the reorganization ran net-aware (on a ``platform`` of more
    than one node), ``net_rows_before``/``net_rows_after``
    hold the *predicted* cross-node halo rows per epoch-layer of the input
    and adopted layouts (forward fetches plus staging loads and their
    mirrored gradient flushes, from :func:`~repro.partition.halo_volumes`
    and :func:`~repro.partition.halo_load_volumes`), and
    ``net_seconds_before``/``net_seconds_after`` price them. The static
    prediction is exact, so the *achieved* reduction — what
    ``DedupCommunicator.net_bytes_by_flow`` measures when the layout
    runs — matches it row for row (cross-checked in
    ``tests/test_topology.py``).
    """

    partition: TwoLevelPartition
    #: phase1_assignments[i][j] = original chunk id of partition i placed
    #: in (pre-phase-2) batch j (of the adopted layout)
    phase1_assignments: List[List[int]]
    #: phase2_order[j] = pre-phase-2 batch id scheduled at slot j
    phase2_order: List[int]
    #: guard costs of the input and the adopted layout: Eq. 4, plus the
    #: net term when net-aware
    cost_before: Optional[float] = None
    cost_after: Optional[float] = None
    #: True if every candidate layout was rejected by the cost model
    kept_original: bool = False
    #: True if the net term participated in objective and guard
    net_aware: bool = False
    #: predicted cross-node halo rows per epoch-layer (net-aware only)
    net_rows_before: Optional[int] = None
    net_rows_after: Optional[int] = None
    #: the same rows priced at network seconds
    net_seconds_before: Optional[float] = None
    net_seconds_after: Optional[float] = None
    #: Eq. 4 volumes of the input and the adopted layout (Table 8's
    #: triple)
    volumes_before: Optional[DedupVolumes] = None
    volumes_after: Optional[DedupVolumes] = None

    @property
    def predicted_net_rows_saved(self) -> Optional[int]:
        """Predicted cross-node halo rows removed per epoch-layer."""
        if self.net_rows_before is None or self.net_rows_after is None:
            return None
        return self.net_rows_before - self.net_rows_after


def reorganize_partition(partition: TwoLevelPartition,
                         platform: MultiGPUPlatform,
                         row_bytes: int = 4 * 128,
                         placement: Optional[np.ndarray] = None,
                         sweeps: Optional[LayoutSweeps] = None
                         ) -> ReorganizationResult:
    """Run Algorithm 4 on ``partition``, priced by ``platform``.

    The result is *cost-model guided*: a greedy layout is adopted only if
    it lowers the Eq. 4 communication cost
    (:meth:`~repro.hardware.platform.MultiGPUPlatform.dedup_seconds`,
    ``row_bytes`` bytes per vertex row); otherwise the input layout is
    kept. Graphs whose initial range order already has strong locality
    (e.g. crawl-ordered web graphs) can be hurt by the greedy phases, and
    the cost model is exactly the guard the paper's design calls for.

    When ``platform`` has more than one node, the objective gains the
    **net term**: cross-node halo rows priced at the platform's
    :meth:`~repro.hardware.platform.MultiGPUPlatform.halo_volume_seconds`
    join the guard, and an additional net-aware candidate layout
    (per-partition reuse chains with remotely-owned rows weighted up)
    competes with the paper's greedy layout. With one node the guard is
    Eq. 4 alone.

    The net term prices halo rows against the platform's installed
    partition→node map (:attr:`~MultiGPUPlatform.placement`) — the one
    the executor routes with — unless ``placement`` names another one:
    the joint loop prices a candidate before installing it (the
    platform's dead nodes admit evacuating placements that leave them
    empty).

    ``sweeps`` holds what the calling planner already measured of
    ``partition``'s layouts (:class:`~repro.partition.nodes.LayoutSweeps`):
    every candidate's load matrix and Eq. 4 volumes, and the paper's
    greedy layout of each input, are computed once per call of the
    planner, not once per reorganization. By default the reorganization
    builds its own.

    A ``platform`` that is not a
    :class:`~repro.hardware.platform.MultiGPUPlatform`, a ``row_bytes``
    that is not a finite real > 0, or — on a multi-node platform — a
    partition count other than ``platform.num_gpus`` raises
    ``ConfigurationError`` before any work.
    """
    if not isinstance(platform, MultiGPUPlatform):
        raise ConfigurationError(
            f"platform must be a MultiGPUPlatform, got {platform!r}")
    _require_size("row_bytes", row_bytes)  # it prices every guard cost
    m = partition.num_partitions
    n = partition.num_chunks
    net_aware = platform.num_nodes > 1
    if net_aware and m != platform.num_gpus:
        raise ConfigurationError(
            f"partition has {m} partitions, platform exposes "
            f"{platform.num_gpus} GPUs")
    if sweeps is None:
        sweeps = LayoutSweeps(partition)
    neighbors = [[chunk.neighbor_global for chunk in row]
                 for row in partition.chunks]

    # Candidate layouts as (grid, batch order): the input, the paper's
    # greedy one and, on a cluster, the net-aware one.
    layouts: List[Tuple[List[List[int]], List[int]]] = [
        ([list(range(n)) for _ in range(m)], list(range(n))),
        sweeps.memo(partition, "greedy", lambda layout: _paper_greedy(
            neighbors, layout.graph.num_vertices)),
    ]
    if net_aware:
        node_map = partition_nodes(
            m, platform.num_nodes,
            platform.placement if placement is None else placement,
            max_imbalance=None, dead_nodes=platform.dead_nodes)
        layouts.append((_reuse_chain_grid(
            neighbors, node_map, node_map[partition.assignment],
            _remote_row_weight(platform, row_bytes),
        ), list(range(n))))
    candidates = [partition] + [_materialize(partition, grid, order)
                                for grid, order in layouts[1:]]

    # The guard: adopt the cheapest candidate under Eq. 4 plus, when
    # net-aware, the net term; the input wins ties (first minimum).
    volumes = [sweeps.memo(candidate, "volumes", measure_volumes)
               for candidate in candidates]
    costs = [platform.dedup_seconds(measured, row_bytes)
             for measured in volumes]
    rows = net_seconds = None
    if net_aware:
        # The net term is the cross-node entries of W = F + 2·L
        # (``partition_net_weights``). Reordering a partition's chunks
        # changes what it freshly loads (L), never what it fetches (F) or
        # where it lives: F and the node map are the guard's, not the
        # candidate's.
        cross = node_map[:, None] != node_map[None, :]
        fetch = sweeps.fetch()
        rows = [int((fetch + 2 * sweeps.load(candidate))[cross].sum())
                for candidate in candidates]
        net_seconds = [platform.halo_volume_seconds(count * row_bytes)
                       for count in rows]
        costs = [net + eq4 for net, eq4 in zip(net_seconds, costs)]
    best = min(range(len(costs)), key=costs.__getitem__)

    def before_after(values):
        return (None, None) if values is None else (values[0], values[best])

    net_rows_before, net_rows_after = before_after(rows)
    net_seconds_before, net_seconds_after = before_after(net_seconds)
    return ReorganizationResult(
        candidates[best], *layouts[best],
        costs[0], costs[best], kept_original=best == 0,
        net_aware=net_aware,
        net_rows_before=net_rows_before, net_rows_after=net_rows_after,
        net_seconds_before=net_seconds_before,
        net_seconds_after=net_seconds_after,
        volumes_before=volumes[0], volumes_after=volumes[best],
    )


def _require_size(name: str, value, allow_zero: bool = False) -> None:
    """``value`` is a finite real, not a bool, > 0 (>= 0 if ``allow_zero``)."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not 0 <= value < math.inf or (value == 0 and not allow_zero)):
        raise ConfigurationError(f"{name} must be a finite number "
                                 f"{'>=' if allow_zero else '>'} 0, got {value!r}")


def _take_best(remaining: List[int], scores: Iterable[float]) -> int:
    """Pop the lowest ``remaining`` id of top score; ``scores`` follows the
    ascending ``remaining`` lazily, so a lone candidate is not scored."""
    at = 0 if len(remaining) == 1 else int(np.argmax(list(scores)))
    return remaining.pop(at)


# ----------------------------------------------------------------------
# the paper's two greedy phases (net-blind)
# ----------------------------------------------------------------------
def _paper_greedy(neighbors: Sequence[Sequence[np.ndarray]],
                  num_vertices: int) -> Tuple[List[List[int]], List[int]]:
    """Phases 1 and 2 of Algorithm 4 exactly as the paper states them."""
    n = len(neighbors[0])

    # ---- Phase 1: per-partition chunk-to-batch assignment -----------------
    # grid[i][j] = original chunk id of partition i assigned to batch j;
    # unions[j] marks batch j's running transition union.
    grid: List[List[int]] = [list(range(n))]  # partition 0 fixed
    unions = np.zeros((n, num_vertices), dtype=bool)
    for union, needed in zip(unions, neighbors[0]):
        union[needed] = True
    for chunks in neighbors[1:]:
        remaining = list(range(n))
        row: List[int] = []
        for union in unions:
            k = _take_best(remaining, (np.count_nonzero(union[chunks[c]])
                                       for c in remaining))
            union[chunks[k]] = True
            row.append(k)
        grid.append(row)

    # ---- Phase 2: batch ordering ------------------------------------------
    order: List[int] = [0]
    remaining = list(range(1, n))
    while remaining:
        previous = unions[order[-1]]
        order.append(_take_best(remaining, (
            np.count_nonzero(unions[k] & previous) for k in remaining)))
    return grid, order


# ----------------------------------------------------------------------
# the net-aware candidate (cluster extension)
# ----------------------------------------------------------------------
def _remote_row_weight(platform: MultiGPUPlatform, row_bytes: int) -> float:
    """How much more a remotely-owned row is worth reusing than a local one.

    Reusing any staged row saves its PCIe load; reusing a remotely-owned
    row additionally saves a network load *and* the mirrored gradient
    flush, so its weight is ``1 + 2·(net row seconds / PCIe row seconds)``.
    With one surviving node the network prices nothing and the ratio
    defaults to the A100 ballpark (network ≈ PCIe seconds per row,
    weight 3).
    """
    net_row = platform.halo_volume_seconds(row_bytes)
    if net_row == 0.0:
        return 3.0
    return 1.0 + 2.0 * net_row / platform.h2d_seconds(row_bytes)


def _reuse_chain_grid(neighbors: Sequence[Sequence[np.ndarray]],
                      node_map: np.ndarray, vertex_nodes: np.ndarray,
                      weight: float) -> List[List[int]]:
    """Per-partition greedy reuse chains with net-weighted overlap.

    Batch-to-batch reuse is independent across partitions (GPU i reuses
    rows *it* staged last batch), so the net-relevant objective decomposes:
    for every partition, order its chunks so consecutive neighbor sets
    overlap maximally, scoring each shared row 1 and each shared
    *remotely-owned* row ``weight`` (> 1: a reused remote row skips the
    network, not just PCIe; ``vertex_nodes[v]`` is the node owning v).
    Batch order is the identity afterwards — the chains are the schedule.
    """
    grid: List[List[int]] = []
    for home, chunks in zip(node_map, neighbors):
        row = [0]
        remaining = list(range(1, len(chunks)))
        while remaining:
            last = chunks[row[-1]]
            shared = (np.intersect1d(last, chunks[k], assume_unique=True)
                      for k in remaining)
            row.append(_take_best(remaining, (
                len(rows) + (weight - 1.0)
                * np.count_nonzero(vertex_nodes[rows] != home)
                for rows in shared)))
        grid.append(row)
    return grid


def _materialize(partition: TwoLevelPartition, grid: List[List[int]],
                 order: List[int]) -> TwoLevelPartition:
    """Apply a (grid, batch order) layout: the same chunks, reordered."""
    rows = [[row[cells[batch]] for batch in order]
            for row, cells in zip(partition.chunks, grid)]
    return TwoLevelPartition(partition.graph, rows, partition.assignment)
