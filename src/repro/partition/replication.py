"""Neighbor-replication analysis (paper §2.4, Table 3).

When the graph is split into ``m × n`` chunks, a vertex with out-edges into
several chunks is replicated into each as a neighbor. The replication factor

    α(m·n) = Σ_ij |N_ij| / |V|,     N_ij = unique in-edge sources of chunk ij

quantifies the communication blow-up of transferring each chunk's neighbor
set individually (the "vanilla" baseline transfers α·|V| vertex rows per
layer per direction).
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.graph.graph import Graph
from repro.partition.two_level import TwoLevelPartition, two_level_partition
from repro.units import SCALAR_BYTES

__all__ = [
    "remote_replica_rows",
    "replication_factor",
    "replication_factor_sweep",
    "vertex_data_per_subgraph",
]


def replication_factor(partition: TwoLevelPartition) -> float:
    """α for a concrete 2-level partition: the paper's source-only
    ``N_ij`` summed over chunks, per vertex. The per-subgraph vertex data
    volume is then ``(1 + α)|V|/(m·n)``."""
    total = sum(len(chunk.source_only_neighbors())
                for chunk in partition.all_chunks())
    return total / partition.graph.num_vertices


def remote_replica_rows(graph: Graph, assignment: np.ndarray,
                        num_parts: int) -> np.ndarray:
    """Per part, the unique remote vertices it reads: ``(num_parts,)``
    int64 counts of the distinct sources of edges into the part whose
    source lives in another part.

    These are the replicas a vertex-partitioned full-graph system keeps
    and synchronizes (one METIS part per GPU or per CPU node).
    """
    src, dst = graph.edge_arrays()
    into = assignment[dst]
    remote = assignment[src] != into
    # one key per (reading part, remote source) pair; unique pairs counted
    keys = np.unique(into[remote] * graph.num_vertices + src[remote])
    return np.bincount(keys // graph.num_vertices, minlength=num_parts)


def replication_factor_sweep(graph: Graph, partition_counts: Iterable[int],
                             seed: int = 0) -> Dict[int, float]:
    """α as a function of the total number of partitions (Table 3 sweep).

    Each entry p uses a 2-level split as close to square as possible
    (m = min(p, 4) GPUs × n = p/m chunks), matching how the paper scales
    chunk counts on a 4-GPU platform.
    """
    results: Dict[int, float] = {}
    for count in partition_counts:
        m = min(count, 4)
        n = max(count // m, 1)
        partition = two_level_partition(graph, m, n, seed=seed)
        results[count] = replication_factor(partition)
    return results


def vertex_data_per_subgraph(num_vertices: int, alpha: float,
                             num_subgraphs: int, feature_dim: int) -> float:
    """Average vertex-data bytes a single subgraph needs on the GPU.

    Implements the paper's formula (§4.3): ``(1 + α_{m·n}) |V| / (m·n)``
    vertex rows of ``feature_dim`` scalars each.
    """
    rows = (1.0 + alpha) * num_vertices / num_subgraphs
    return rows * feature_dim * SCALAR_BYTES
