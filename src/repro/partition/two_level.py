"""Edge-cut 2-level graph partitioning (paper §4.1).

Level 1 splits the vertex set into ``m`` partitions (one per GPU) with the
METIS-like partitioner — balanced, locality-preserving. Level 2 splits each
partition's destinations into ``n`` *computation-balanced* chunks by
range-based partitioning over the partition's vertex order, balancing
**edge** counts (the aggregate workload), as in Gemini [65].

Each chunk contains a unique destination set plus all in-edges of those
destinations, so full-neighbor aggregation runs per chunk. Edge weights
(GCN normalization) are computed *globally* before chunking, which is what
makes chunked training numerically identical to monolithic training.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition.metis import metis_partition
from repro.partition.subgraph import SubgraphChunk

__all__ = ["two_level_partition", "range_chunks", "TwoLevelPartition"]


class TwoLevelPartition:
    """The ``m × n`` grid of subgraph chunks plus its provenance."""

    def __init__(self, graph: Graph, chunks: List[List[SubgraphChunk]],
                 assignment: np.ndarray):
        self.graph = graph
        #: chunks[i][j] — partition (GPU) i, schedule slot (batch) j; the
        #: position is the only record of a chunk's coordinates
        self.chunks = chunks
        self.assignment = assignment

    @property
    def num_partitions(self) -> int:
        return len(self.chunks)

    @property
    def num_chunks(self) -> int:
        return len(self.chunks[0]) if self.chunks else 0

    def all_chunks(self) -> List[SubgraphChunk]:
        return [chunk for row in self.chunks for chunk in row]

    def validate(self) -> None:
        """Check the chunk grid is a disjoint cover of V and E."""
        n = self.graph.num_vertices
        seen = np.zeros(n, dtype=bool)
        total_edges = 0
        for chunk in self.all_chunks():
            if seen[chunk.dst_global].any():
                raise PartitionError("destination sets overlap between chunks")
            seen[chunk.dst_global] = True
            total_edges += chunk.num_edges
        if not seen.all():
            raise PartitionError("chunks do not cover all vertices")
        if total_edges != self.graph.num_edges:
            raise PartitionError(
                f"chunks hold {total_edges} edges, graph has {self.graph.num_edges}"
            )

    def __repr__(self) -> str:
        return (
            f"TwoLevelPartition(m={self.num_partitions}, n={self.num_chunks}, "
            f"graph={self.graph.name!r})"
        )


def two_level_partition(graph: Graph, num_partitions: int, num_chunks: int,
                        seed: int = 0,
                        assignment: Optional[np.ndarray] = None
                        ) -> TwoLevelPartition:
    """Partition ``graph`` into ``num_partitions × num_chunks`` chunks,
    each carrying its edges' globally-normalized GCN weights.

    ``assignment`` is an optional precomputed level-1 partition that
    overrides METIS.
    """
    if num_partitions < 1 or num_chunks < 1:
        raise PartitionError(
            f"need >= 1 partitions and chunks, got {num_partitions}x{num_chunks}"
        )
    if assignment is None:
        assignment = metis_partition(graph, num_partitions, seed=seed)
    else:
        assignment = np.asarray(assignment)
        if assignment.shape != (graph.num_vertices,):
            raise PartitionError("assignment must have one entry per vertex")
        # A vertex outside [0, num_partitions) lands in no chunk, and a
        # cast would turn 0.9 into 0 and NaN into -2**63.
        kind = assignment.dtype.kind
        if kind not in "iu" and not (
                kind == "f"
                and np.array_equal(assignment, np.floor(assignment))):
            raise PartitionError(
                f"assignment must hold integer partition ids, "
                f"got dtype {assignment.dtype}")
        if len(assignment) and not (0 <= assignment.min()
                                    and assignment.max() < num_partitions):
            raise PartitionError(
                f"assignment ids must lie in [0, {num_partitions}), got "
                f"{assignment.min()}..{assignment.max()}")
        assignment = assignment.astype(np.int64, copy=False)

    weights = graph.gcn_edge_weights()
    in_csr = graph.in_csr
    degrees = graph.in_degrees()

    rows: List[List[SubgraphChunk]] = []
    for part in range(num_partitions):
        part_vertices = np.flatnonzero(assignment == part)
        chunk_ranges = range_chunks(degrees[part_vertices], num_chunks)
        row: List[SubgraphChunk] = []
        for start, stop in chunk_ranges:
            dst_global = part_vertices[start:stop]
            # Vectorized gather of each destination's CSR row.
            lo = in_csr.indptr[dst_global]
            deg = in_csr.indptr[dst_global + 1] - lo
            positions = np.repeat(lo, deg) + _intra_range_offsets(deg)
            edge_src = in_csr.indices[positions]
            edge_dst = np.repeat(
                np.arange(len(dst_global), dtype=np.int64), deg
            )
            row.append(SubgraphChunk(
                dst_global=dst_global,
                edge_src_global=edge_src,
                edge_dst_local=edge_dst,
                edge_weight=weights[positions],
            ))
        rows.append(row)
    return TwoLevelPartition(graph, rows, assignment)


def _intra_range_offsets(lengths: np.ndarray) -> np.ndarray:
    """Concatenated [0..len_i) ranges, e.g. [2, 3] -> [0, 1, 0, 1, 2]."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def range_chunks(vertex_loads: np.ndarray, num_chunks: int) -> List[tuple]:
    """Split a vertex sequence into ``num_chunks`` contiguous ranges with
    balanced total load (edge counts).

    Returns [(start, stop), ...] half-open index ranges into the sequence.
    Empty ranges are possible when there are fewer vertices than chunks.
    """
    if num_chunks < 1:
        raise PartitionError(f"num_chunks must be >= 1, got {num_chunks}")
    n = len(vertex_loads)
    # +1 per vertex so zero-degree vertices still spread across chunks.
    loads = np.asarray(vertex_loads, dtype=np.float64) + 1.0
    cumulative = np.concatenate(([0.0], np.cumsum(loads)))
    total = cumulative[-1]
    boundaries = [0]
    for k in range(1, num_chunks):
        target = total * k / num_chunks
        cut = int(np.searchsorted(cumulative, target))
        cut = max(boundaries[-1], min(cut, n))
        boundaries.append(cut)
    boundaries.append(n)
    return [(boundaries[i], boundaries[i + 1]) for i in range(num_chunks)]
