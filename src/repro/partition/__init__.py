"""Graph partitioning: METIS-like level 1, range-chunk level 2, analyses."""

from repro.partition.metis import metis_partition, edge_cut
from repro.partition.subgraph import SubgraphChunk
from repro.partition.two_level import (
    two_level_partition,
    range_chunks,
    TwoLevelPartition,
)
from repro.partition.replication import (
    remote_replica_rows,
    replication_factor,
    replication_factor_sweep,
    vertex_data_per_subgraph,
)
from repro.partition.nodes import (
    partition_nodes,
    partition_halo_matrix,
    partition_load_matrix,
    halo_volumes,
    halo_load_volumes,
)
from repro.partition.placement import (
    PLACEMENT_POLICIES,
    PlacementResult,
    partition_net_weights,
    permute_partitions,
    placement_net_rows,
    search_placement,
)

__all__ = [
    "metis_partition", "edge_cut",
    "SubgraphChunk",
    "two_level_partition", "range_chunks", "TwoLevelPartition",
    "remote_replica_rows", "replication_factor", "replication_factor_sweep",
    "vertex_data_per_subgraph",
    "partition_nodes", "halo_volumes",
    "halo_load_volumes",
    "PLACEMENT_POLICIES", "PlacementResult", "partition_halo_matrix",
    "partition_load_matrix", "partition_net_weights", "permute_partitions",
    "placement_net_rows",
    "search_placement",
]
