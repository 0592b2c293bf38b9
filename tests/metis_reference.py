"""The multilevel partitioner, one boundary vertex at a time — the oracle
for ``repro.partition.metis``.

This is the partitioner in the form it is *defined* in, verbatim as it
shipped before refinement learned which vertices can move: a level is a
COO edge list re-sorted into CSR by each of its three readers, duplicate
edges merge through ``np.add.at``, and a refinement pass scores *every*
boundary vertex — a weighted ``bincount`` over its neighbours' parts, the
balance check, the first-argmax — to learn, almost always, "stay".

``repro.partition.metis`` must return the same array for every input:
every weight at every level is a sum of ones (integer-valued float64), so
no reordering of additions can change a sum or a comparison, and
``tests/test_metis_reference.py`` compares with ``np.array_equal`` — never
a cut-quality tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph

__all__ = ["reference_metis_partition"]


@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    # Symmetric weighted adjacency in COO form (both directions present).
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    vertex_weight: np.ndarray
    # Mapping from this level's vertices to the *coarser* level (filled when
    # the next level is built).
    coarse_map: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_weight)


def reference_metis_partition(graph: Graph, num_parts: int, seed: int = 0,
                              balance_slack: float = 0.05,
                              refinement_passes: int = 4) -> np.ndarray:
    """Partition ``graph`` into ``num_parts`` balanced, low-cut parts.

    Returns a (num_vertices,) int array of part ids in [0, num_parts).

    Parameters
    ----------
    balance_slack:
        Each part's vertex weight may exceed the perfect average by this
        fraction (METIS' load imbalance tolerance, default 5 %).
    refinement_passes:
        Boundary-refinement sweeps per uncoarsening level.
    """
    if num_parts < 1:
        raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts == 1:
        return np.zeros(graph.num_vertices, dtype=np.int64)
    if num_parts > graph.num_vertices:
        raise PartitionError(
            f"cannot split {graph.num_vertices} vertices into {num_parts} parts"
        )

    rng = np.random.default_rng(seed)
    levels = [_build_base_level(graph)]

    # ---- coarsening ---------------------------------------------------
    coarsen_target = max(64, 24 * num_parts)
    while levels[-1].num_vertices > coarsen_target:
        coarser = _coarsen(levels[-1], rng)
        if coarser is None:  # matching made no progress
            break
        levels.append(coarser)

    # ---- initial partition on the coarsest level -----------------------
    coarsest = levels[-1]
    assignment = _greedy_growing(coarsest, num_parts, rng)

    # ---- uncoarsen + refine --------------------------------------------
    for level_index in range(len(levels) - 1, -1, -1):
        level = levels[level_index]
        if level_index < len(levels) - 1:
            assignment = assignment[levels[level_index].coarse_map]
        assignment = _refine(level, assignment, num_parts,
                             balance_slack, refinement_passes)
    return assignment


# ----------------------------------------------------------------------
# hierarchy construction
# ----------------------------------------------------------------------

def _build_base_level(graph: Graph) -> _Level:
    src, dst = graph.edge_arrays()
    # Undirected view with unit weights, merged parallel edges.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    src, dst, weight = _merge_parallel(all_src, all_dst,
                                       np.ones(len(all_src)),
                                       graph.num_vertices)
    return _Level(src, dst, weight,
                  np.ones(graph.num_vertices, dtype=np.float64))


def _merge_parallel(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                    n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicate (src, dst) pairs, summing weights; drop self-loops."""
    keep = src != dst
    src, dst, weight = src[keep], dst[keep], weight[keep]
    if len(src) == 0:
        return src, dst, weight
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    key, src, dst, weight = key[order], src[order], dst[order], weight[order]
    first = np.concatenate(([True], np.diff(key) != 0))
    group = np.cumsum(first) - 1
    merged_weight = np.zeros(int(first.sum()), dtype=np.float64)
    np.add.at(merged_weight, group, weight)
    return src[first], dst[first], merged_weight


def _coarsen(level: _Level, rng: np.random.Generator) -> Optional[_Level]:
    """Heavy-edge matching: collapse matched pairs into coarse vertices."""
    n = level.num_vertices
    match = np.full(n, -1, dtype=np.int64)

    # Visit vertices in random order; match each unmatched vertex with its
    # heaviest unmatched neighbor.
    indptr, indices, weights = _to_csr(level)
    for vertex in rng.permutation(n):
        if match[vertex] != -1:
            continue
        lo, hi = indptr[vertex], indptr[vertex + 1]
        best, best_weight = -1, -1.0
        for position in range(lo, hi):
            neighbor = indices[position]
            if match[neighbor] == -1 and weights[position] > best_weight:
                best, best_weight = neighbor, weights[position]
        if best >= 0:
            match[vertex] = best
            match[best] = vertex
        else:
            match[vertex] = vertex  # stays single

    # Assign coarse ids: one per matched pair / singleton.
    coarse_map = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for vertex in range(n):
        if coarse_map[vertex] != -1:
            continue
        coarse_map[vertex] = next_id
        partner = match[vertex]
        if partner != vertex and coarse_map[partner] == -1:
            coarse_map[partner] = next_id
        next_id += 1

    if next_id > 0.95 * n:  # matching stalled; stop coarsening
        return None

    coarse_vertex_weight = np.zeros(next_id, dtype=np.float64)
    np.add.at(coarse_vertex_weight, coarse_map, level.vertex_weight)

    coarse_src = coarse_map[level.src]
    coarse_dst = coarse_map[level.dst]
    src, dst, weight = _merge_parallel(coarse_src, coarse_dst,
                                       level.weight, next_id)
    level.coarse_map = coarse_map
    return _Level(src, dst, weight, coarse_vertex_weight)


def _to_csr(level: _Level) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = level.num_vertices
    order = np.argsort(level.src, kind="stable")
    src = level.src[order]
    indices = level.dst[order]
    weights = level.weight[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, indices, weights


# ----------------------------------------------------------------------
# initial partition: greedy graph growing
# ----------------------------------------------------------------------

def _greedy_growing(level: _Level, num_parts: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = level.num_vertices
    indptr, indices, weights = _to_csr(level)
    assignment = np.full(n, -1, dtype=np.int64)
    total_weight = level.vertex_weight.sum()
    target = total_weight / num_parts

    degree_order = np.argsort(-np.diff(indptr))
    cursor = 0
    for part in range(num_parts - 1):
        # Seed: highest-degree unassigned vertex.
        while cursor < n and assignment[degree_order[cursor]] != -1:
            cursor += 1
        if cursor >= n:
            break
        seed_vertex = degree_order[cursor]
        frontier = [seed_vertex]
        part_weight = 0.0
        while frontier and part_weight < target:
            vertex = frontier.pop()
            if assignment[vertex] != -1:
                continue
            assignment[vertex] = part
            part_weight += level.vertex_weight[vertex]
            for position in range(indptr[vertex], indptr[vertex + 1]):
                neighbor = indices[position]
                if assignment[neighbor] == -1:
                    frontier.append(neighbor)
        # If BFS exhausted a component before reaching the target, grab
        # arbitrary unassigned vertices.
        if part_weight < target:
            for vertex in degree_order:
                if part_weight >= target:
                    break
                if assignment[vertex] == -1:
                    assignment[vertex] = part
                    part_weight += level.vertex_weight[vertex]
    assignment[assignment == -1] = num_parts - 1
    return assignment


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------

def _refine(level: _Level, assignment: np.ndarray, num_parts: int,
            balance_slack: float, passes: int) -> np.ndarray:
    """Greedy boundary refinement: move vertices to reduce the edge cut."""
    assignment = assignment.copy()
    indptr, indices, weights = _to_csr(level)
    total_weight = level.vertex_weight.sum()
    limit = (total_weight / num_parts) * (1.0 + balance_slack)
    part_weight = np.zeros(num_parts, dtype=np.float64)
    np.add.at(part_weight, assignment, level.vertex_weight)

    for _ in range(passes):
        boundary = _boundary_vertices(level, assignment)
        moved = 0
        for vertex in boundary:
            own = assignment[vertex]
            lo, hi = indptr[vertex], indptr[vertex + 1]
            neighbor_parts = assignment[indices[lo:hi]]
            edge_weights = weights[lo:hi]
            # Connectivity to each adjacent part in one weighted
            # bincount (bin sums accumulate in index order — the same
            # float additions as the per-part masked sums they replace).
            connectivity = np.bincount(neighbor_parts,
                                       weights=edge_weights)
            internal = connectivity[own] if own < len(connectivity) else 0.0
            vertex_weight = level.vertex_weight[vertex]
            candidates = np.flatnonzero(connectivity)
            candidates = candidates[
                (candidates != own)
                & (part_weight[candidates] + vertex_weight <= limit)
            ]
            best_part = own
            if len(candidates):
                external = connectivity[candidates]
                # First argmax = lowest part id on ties, matching the
                # ascending strict-greater scan this replaces.
                winner = int(np.argmax(external))
                if external[winner] - internal > 0.0:
                    best_part = int(candidates[winner])
            if best_part != own:
                part_weight[own] -= level.vertex_weight[vertex]
                part_weight[best_part] += level.vertex_weight[vertex]
                assignment[vertex] = best_part
                moved += 1
        if moved == 0:
            break
    return assignment


def _boundary_vertices(level: _Level, assignment: np.ndarray) -> np.ndarray:
    cross = assignment[level.src] != assignment[level.dst]
    return np.unique(level.src[cross])
