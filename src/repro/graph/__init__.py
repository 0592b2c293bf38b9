"""Graph substrate: CSR structures, property graphs, generators, datasets."""

from repro.graph.csr import CSRAdjacency, edges_to_csr
from repro.graph.graph import Graph, ScaleProfile
from repro.graph.generators import (
    rmat,
    locality_web_graph,
    planted_partition,
    gaussian_features,
    random_split_masks,
)
from repro.graph.datasets import (
    load_dataset,
    available_datasets,
    toy_graph,
    PAPER_PROFILES,
)

__all__ = [
    "CSRAdjacency", "edges_to_csr",
    "Graph", "ScaleProfile",
    "rmat", "locality_web_graph", "planted_partition",
    "gaussian_features", "random_split_masks",
    "load_dataset", "available_datasets", "toy_graph", "PAPER_PROFILES",
]
