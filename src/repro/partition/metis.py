"""Multilevel edge-cut graph partitioner (METIS-style, from scratch).

HongTu's first partitioning level uses METIS [20] "to improve load balancing
and group closely linked vertices into one partition" (§4.1). This module
implements the same recipe:

1. **Coarsening** — repeated heavy-edge matching collapses matched vertex
   pairs until the graph is small;
2. **Initial partitioning** — greedy graph growing (BFS region growing from
   high-degree seeds) on the coarsest graph, balanced by vertex weight;
3. **Uncoarsening + refinement** — projected back level by level, with
   boundary Kernighan–Lin/FM-style passes. A pass walks the vertices that
   were on the boundary when it started, in ascending order, and moves one
   iff some adjacent part it is more connected to than its own can take
   its weight — to the feasible part of highest connectivity, lowest id on
   ties. Nearly every boundary vertex stays (its better parts are full), so
   a pass scores only the vertices whose answer can differ from "stay":
   one sparse product gives every vertex's connectivity to every part,
   array ops flag the vertices with a feasible better part, and a move
   flags the later boundary neighbours of the mover and the later vertices
   that were waiting for room in the part it left
   (:func:`_refine_pass`; ``docs/ARCHITECTURE.md``, "METIS refinement: who
   gets visited").

The partitioner works on the *undirected* view of the input (edge (u,v)
counts for both directions), which is also what METIS does for directed
inputs.

**Invariant: every weight is an integer.** Base edges and vertices weigh
one, and every coarser weight is a sum of finer ones, so all edge, vertex,
part and connectivity weights are integer-valued float64 far below 2**53.
Sums are therefore exact in any order — which is what lets a sparse
product stand in for a per-vertex scan of the neighbours without changing
a single comparison, and hence the returned assignment
(``tests/metis_reference.py`` is the per-vertex form, compared bit for
bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import PartitionError, require_count
from repro.graph.graph import Graph

__all__ = ["metis_partition", "edge_cut"]


@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    # Symmetric weighted adjacency: canonical CSR (rows sorted, no
    # duplicates), no self-loops. Built once per level; the matching, the
    # growing and every refinement pass read these arrays.
    adjacency: sp.csr_matrix
    vertex_weight: np.ndarray
    # Mapping from this level's vertices to the *coarser* level (filled when
    # the next level is built).
    coarse_map: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_weight)


_require_count = partial(require_count, error=PartitionError)

#: each part's vertex weight may exceed the perfect average by this
#: fraction (METIS' load imbalance tolerance)
BALANCE_SLACK = 0.05
#: boundary-refinement sweeps per uncoarsening level
REFINEMENT_PASSES = 4


def metis_partition(graph: Graph, num_parts: int, seed: int = 0) -> np.ndarray:
    """Partition ``graph`` into ``num_parts`` balanced, low-cut parts.

    Returns a (num_vertices,) int array of part ids in [0, num_parts).
    """
    _require_count("num_parts", num_parts, 1)
    _require_count("seed", seed, 0)
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
    assignment = _greedy_growing(levels[-1], num_parts)

    # ---- uncoarsen + refine --------------------------------------------
    for level_index in range(len(levels) - 1, -1, -1):
        level = levels[level_index]
        if level_index < len(levels) - 1:
            assignment = assignment[level.coarse_map]
        assignment = _refine(level, assignment, num_parts,
                             BALANCE_SLACK, REFINEMENT_PASSES)
    return assignment


# ----------------------------------------------------------------------
# hierarchy construction
# ----------------------------------------------------------------------

def _build_base_level(graph: Graph) -> _Level:
    src, dst = graph.edge_arrays()
    # Undirected view with unit weights, merged parallel edges.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    adjacency = _merge_parallel(all_src, all_dst, np.ones(len(all_src)),
                                graph.num_vertices)
    return _Level(adjacency, np.ones(graph.num_vertices, dtype=np.float64))


def _merge_parallel(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                    n: int) -> sp.csr_matrix:
    """Merge duplicate (src, dst) pairs, summing weights; drop self-loops.

    COO → CSR is a counting sort by row; ``sum_duplicates`` sorts each row
    by column and adds the runs — the level's one sort. (``tocsr`` already
    leaves the matrix canonical, which makes the call free; it stays
    because the matching and the growing break ties by row order.)
    """
    keep = src != dst
    adjacency = sp.coo_matrix((weight[keep], (src[keep], dst[keep])),
                              shape=(n, n)).tocsr()
    adjacency.sum_duplicates()
    return adjacency


def _coarsen(level: _Level, rng: np.random.Generator) -> Optional[_Level]:
    """Heavy-edge matching: collapse matched pairs into coarse vertices."""
    n = level.num_vertices
    adjacency = level.adjacency
    match = _heavy_edge_matching(adjacency, rng.permutation(n))

    # One coarse id per matched pair / singleton, ascending by the pair's
    # smaller endpoint.
    pairs, coarse_map = np.unique(np.minimum(np.arange(n), match),
                                  return_inverse=True)
    num_coarse = len(pairs)
    if num_coarse > 0.95 * n:  # matching stalled; stop coarsening
        return None

    coarse_vertex_weight = np.bincount(coarse_map, weights=level.vertex_weight,
                                       minlength=num_coarse)
    coarse_adjacency = _merge_parallel(
        np.repeat(coarse_map, np.diff(adjacency.indptr)),
        coarse_map[adjacency.indices], adjacency.data, num_coarse)
    level.coarse_map = coarse_map
    return _Level(coarse_adjacency, coarse_vertex_weight)


def _heavy_edge_matching(adjacency: sp.csr_matrix,
                         order: np.ndarray) -> np.ndarray:
    """Visit vertices in ``order``; match each unmatched vertex with its
    heaviest unmatched neighbor (the first such in its row on ties).

    The visit is sequential — a match decides what later vertices may
    pick — so it is a Python loop. It reads each visited row through a
    ``memoryview`` slice, which yields Python scalars without a numpy
    scalar per element and without a list of the whole level (half the
    vertices are matched by a neighbour and never read their row).
    """
    indptr = adjacency.indptr.tolist()
    indices = memoryview(adjacency.indices)
    weights = memoryview(adjacency.data)
    match = [-1] * (len(indptr) - 1)
    for vertex in order.tolist():
        if match[vertex] != -1:
            continue
        best, best_weight = -1, -1.0
        lo, hi = indptr[vertex], indptr[vertex + 1]
        for neighbor, weight in zip(indices[lo:hi], weights[lo:hi]):
            if weight > best_weight and match[neighbor] == -1:
                best, best_weight = neighbor, weight
        if best >= 0:
            match[vertex] = best
            match[best] = vertex
        else:
            match[vertex] = vertex  # stays single
    return np.array(match, dtype=np.int64)


# ----------------------------------------------------------------------
# initial partition: greedy graph growing
# ----------------------------------------------------------------------

def _greedy_growing(level: _Level, num_parts: int) -> np.ndarray:
    n = level.num_vertices
    indptr = level.adjacency.indptr.astype(np.int64)
    target = level.vertex_weight.sum() / num_parts
    degree_order = np.argsort(-np.diff(indptr)).tolist()
    indptr = indptr.tolist()
    indices = memoryview(level.adjacency.indices)
    vertex_weight = level.vertex_weight.tolist()
    assignment = [-1] * n

    cursor = 0
    for part in range(num_parts - 1):
        # Seed: highest-degree unassigned vertex.
        while cursor < n and assignment[degree_order[cursor]] != -1:
            cursor += 1
        if cursor >= n:
            break
        frontier = [degree_order[cursor]]
        part_weight = 0.0
        while frontier and part_weight < target:
            vertex = frontier.pop()
            if assignment[vertex] != -1:
                continue
            assignment[vertex] = part
            part_weight += vertex_weight[vertex]
            for neighbor in indices[indptr[vertex]:indptr[vertex + 1]]:
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
                    part_weight += vertex_weight[vertex]
    assignment = np.array(assignment, dtype=np.int64)
    assignment[assignment == -1] = num_parts - 1
    return assignment


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------

def _refine(level: _Level, assignment: np.ndarray, num_parts: int,
            balance_slack: float, passes: int) -> np.ndarray:
    """Greedy boundary refinement: move vertices to reduce the edge cut."""
    assignment = assignment.copy()
    total_weight = level.vertex_weight.sum()
    limit = float((total_weight / num_parts) * (1.0 + balance_slack))
    part_weight = np.bincount(assignment, weights=level.vertex_weight,
                              minlength=num_parts).tolist()
    for _ in range(passes):
        if _refine_pass(level, assignment, part_weight, limit) == 0:
            break
    return assignment


def _refine_pass(level: _Level, assignment: np.ndarray,
                 part_weight: List[float], limit: float) -> int:
    """One boundary sweep in ascending vertex order; returns the moves made.

    ``assignment`` and ``part_weight`` are updated in place. Only vertices
    whose answer can differ from "stay" are scored — flagged by one of:

    1. a part it is more connected to than its own (*gainful*) can take
       its weight (*feasible*) when the pass starts;
    2. a neighbour earlier in the order moved during the pass (only for
       vertices on the boundary when the pass started: a vertex that joins
       the boundary mid-pass waits for the next pass);
    3. a vertex earlier in the order left one of its gainful parts, and it
       now fits there. (The part the mover joined only got fuller, which
       never turns a stay into a move.)

    A flagged vertex is scored against the current state, so flagging too
    much is harmless and flagging by these rules is exact.
    """
    n, num_parts = level.num_vertices, len(part_weight)
    adjacency = level.adjacency
    vertex_weight = level.vertex_weight

    # conn[v, p] = weight of v's edges into part p, for every v at once.
    onehot = sp.csr_matrix((np.ones(n), assignment, np.arange(n + 1)),
                           shape=(n, num_parts))
    conn = adjacency @ onehot
    part, value = conn.indices, conn.data
    row = np.repeat(np.arange(n), np.diff(conn.indptr))
    own = part == assignment[row]
    internal = np.zeros(n)
    internal[row[own]] = value[own]
    boundary = np.zeros(n, dtype=bool)
    boundary[row[~own]] = True
    gainful = ~own & (value > internal[row])
    feasible = np.asarray(part_weight)[part] + vertex_weight[row] <= limit

    # The worklist: a byte per vertex, scanned at C speed for the next flag.
    todo = bytearray(n)
    flags = np.frombuffer(todo, dtype=np.uint8)
    flags[row[gainful & feasible]] = 1  # rule 1

    # Rule 3's index: per part, the vertices (ascending) it is gainful for
    # but too full to take.
    blocked = gainful & ~feasible
    by_part = np.argsort(part[blocked], kind="stable")
    watchers = row[blocked][by_part]
    watch_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(part[blocked],
                                    minlength=num_parts)))).tolist()

    # The loop below reads single elements; memoryviews hand them over as
    # Python scalars without a numpy scalar (or a whole-level list) each.
    row_ptr = conn.indptr.tolist()
    parts, values = memoryview(part), memoryview(value)
    weight_of, part_of = memoryview(vertex_weight), memoryview(assignment)

    def connectivity_row(vertex: int) -> Dict[int, float]:
        lo, hi = row_ptr[vertex], row_ptr[vertex + 1]
        return dict(zip(parts[lo:hi], values[lo:hi]))

    # Rows of the product patched by this pass's moves; a vertex without an
    # entry has had no neighbour move, so its row of ``conn`` is current.
    patched: Dict[int, Dict[int, float]] = {}
    indptr, indices, weights = (adjacency.indptr, adjacency.indices,
                                adjacency.data)
    moved = 0
    vertex = todo.find(1)
    while vertex != -1:
        source = part_of[vertex]
        weight = weight_of[vertex]
        connectivity = patched.get(vertex)
        if connectivity is None:
            connectivity = connectivity_row(vertex)
        stay = connectivity.get(source, 0.0)
        # The feasible gainful part of highest connectivity, lowest id on
        # ties.
        target, best = -1, 0.0
        for candidate, external in connectivity.items():
            if (external > stay and candidate != source
                    and part_weight[candidate] + weight <= limit
                    and (external > best
                         or (external == best and candidate < target))):
                target, best = candidate, external
        if target != -1:
            part_weight[source] -= weight
            part_weight[target] += weight
            part_of[vertex] = target
            moved += 1

            # Rule 2, and the O(degree) patch that keeps the rows current.
            lo, hi = indptr[vertex], indptr[vertex + 1]
            neighbors = indices[lo:hi]
            later = (neighbors > vertex) & boundary[neighbors]
            for neighbor, edge in zip(neighbors[later].tolist(),
                                      weights[lo:hi][later].tolist()):
                todo[neighbor] = 1
                its_row = patched.get(neighbor)
                if its_row is None:
                    its_row = patched[neighbor] = connectivity_row(neighbor)
                its_row[source] -= edge
                its_row[target] = its_row.get(target, 0.0) + edge

            # Rule 3: ``source`` has room it did not have before.
            waiting = watchers[watch_ptr[source]:watch_ptr[source + 1]]
            waiting = waiting[np.searchsorted(waiting, vertex, side="right"):]
            flags[waiting[part_weight[source] + vertex_weight[waiting]
                          <= limit]] = 1
        vertex = todo.find(1, vertex + 1)
    return moved


# ----------------------------------------------------------------------
# quality metrics
# ----------------------------------------------------------------------

def edge_cut(graph: Graph, assignment: np.ndarray) -> int:
    """Number of directed edges whose endpoints lie in different parts."""
    assignment = np.asarray(assignment)
    if assignment.shape != (graph.num_vertices,):
        raise PartitionError(
            f"assignment must have one entry per vertex "
            f"({graph.num_vertices}), got shape {assignment.shape}")
    src, dst = graph.edge_arrays()
    return int((assignment[src] != assignment[dst]).sum())
