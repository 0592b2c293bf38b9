"""Dataset registry: executable stand-ins for the paper's five graphs.

The paper evaluates on reddit, ogbn-products, it-2004, ogbn-paper and
friendster (Table 4). The billion-edge graphs cannot be materialized here, so
each dataset is represented by a synthetic stand-in whose *structure* matches
the property that drives the paper's results (degree skew, id-locality,
community structure), while its :class:`~repro.graph.graph.ScaleProfile`
carries the true paper-scale statistics for the closed-form analyses
(Table 1 memory, Table 3 replication at paper scale).

``load_dataset(name, scale=...)`` returns a :class:`Graph`; ``scale``
multiplies the stand-in vertex count (benchmarks use 1.0, tests use less).
All stand-ins are deterministic given (name, scale, seed).
"""

from __future__ import annotations

import functools
import math
from numbers import Real
from typing import Dict, List

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError, require_count
from repro.graph.generators import (
    gaussian_features,
    locality_web_graph,
    planted_partition,
    random_split_masks,
    rmat,
)
from repro.graph.graph import Graph, ScaleProfile

__all__ = ["load_dataset", "available_datasets", "toy_graph", "PAPER_PROFILES"]


# Paper-scale statistics (Table 4) and measured replication factors (Table 3).
PAPER_PROFILES: Dict[str, ScaleProfile] = {
    "reddit": ScaleProfile(
        name="reddit", num_vertices=232_965, num_edges=114_615_892,
        feature_dim=602, num_labels=41, kind="post-to-post",
    ),
    "ogbn-products": ScaleProfile(
        name="ogbn-products", num_vertices=2_400_000, num_edges=62_000_000,
        feature_dim=100, num_labels=47, kind="co-purchasing",
    ),
    "it-2004": ScaleProfile(
        name="it-2004", num_vertices=41_000_000, num_edges=1_200_000_000,
        feature_dim=256, num_labels=64, kind="web graph",
        replication_factors={
            2: 1.23, 4: 1.35, 8: 1.46, 16: 1.52, 32: 1.60,
            64: 1.63, 128: 1.71, 256: 1.76, 512: 1.85,
        },
    ),
    "ogbn-paper": ScaleProfile(
        name="ogbn-paper", num_vertices=111_000_000, num_edges=1_600_000_000,
        feature_dim=200, num_labels=172, kind="citation network",
        replication_factors={
            2: 1.25, 4: 1.52, 8: 2.13, 16: 3.02, 32: 4.46,
            64: 6.34, 128: 8.50, 256: 10.6, 512: 12.3,
        },
    ),
    "friendster": ScaleProfile(
        name="friendster", num_vertices=65_600_000, num_edges=2_500_000_000,
        feature_dim=256, num_labels=64, kind="social network",
        replication_factors={
            2: 1.32, 4: 1.77, 8: 2.68, 16: 3.86, 32: 5.48,
            64: 7.70, 128: 10.70, 256: 14.4, 512: 18.1,
        },
    ),
}

_STAND_IN_ALIASES = {
    "reddit_sim": "reddit",
    "products_sim": "ogbn-products",
    "it2004_sim": "it-2004",
    "papers_sim": "ogbn-paper",
    "friendster_sim": "friendster",
}


def available_datasets() -> List[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(_STAND_IN_ALIASES)


@functools.lru_cache(maxsize=32)
def load_dataset(name: str, scale: float = 1.0, seed: int = 42) -> Graph:
    """Build (or fetch from cache) a synthetic stand-in dataset.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (``*_sim`` stand-in names).
    scale:
        Multiplier on the stand-in's default vertex count (edges scale
        proportionally); a finite number > 0. 1.0 for benchmarks;
        smaller in unit tests.
    seed:
        Seed for all randomness (topology, features, labels, splits); an
        integer >= 0.
    """
    if name not in _STAND_IN_ALIASES:
        raise GraphFormatError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        )
    if (isinstance(scale, bool) or not isinstance(scale, Real)
            or not 0 < scale < math.inf):  # NaN fails both comparisons
        raise ConfigurationError(
            f"scale must be a finite number > 0, got {scale!r}")
    require_count("seed", seed, 0)
    profile = PAPER_PROFILES[_STAND_IN_ALIASES[name]]
    builder = _BUILDERS[name]
    graph = builder(scale, seed)
    graph.name = name
    graph.scale_profile = profile
    return graph


def _flip_labels(labels: np.ndarray, fraction: float, num_classes: int,
                 seed: int) -> np.ndarray:
    """Replace a ``fraction`` of labels with uniform noise.

    Planted-partition tasks are otherwise perfectly learnable once the GNN
    smooths feature noise over dense neighborhoods; real datasets are not.
    Label noise caps attainable accuracy near ``1 - fraction``, putting the
    Fig. 8 curves at realistic (reddit ~0.94-like) operating points.
    """
    rng = np.random.default_rng(seed)
    noisy = labels.copy()
    flip = rng.random(len(labels)) < fraction
    noisy[flip] = rng.integers(0, num_classes, size=int(flip.sum()))
    return noisy


def _build_reddit_sim(scale: float, seed: int) -> Graph:
    """Dense post-to-post graph: high average degree, community-labeled.

    reddit has avg degree ~490 and 602-wide features; the stand-in keeps the
    paper's feature width (it sets the compute-to-communication balance that
    Table 5's speedups depend on) and a high-but-executable degree of ~120
    over 12 communities.
    """
    n = max(int(2_300 * scale), 64)
    src, dst, comm = planted_partition(
        n, num_communities=12, avg_degree=120.0, mixing=0.25, seed=seed
    )
    features = gaussian_features(comm, feature_dim=602, seed=seed + 1,
                                 center_scale=1.0, noise_scale=12.0)
    labels = _flip_labels(comm, 0.06, 12, seed + 3)
    train, val, test = random_split_masks(n, seed + 2, 0.55, 0.20, 0.25)
    return Graph(src, dst, n, features, labels, train, val, test)


def _build_products_sim(scale: float, seed: int) -> Graph:
    """Clustered co-purchase graph: many communities, moderate degree."""
    n = max(int(4_000 * scale), 64)
    src, dst, comm = planted_partition(
        n, num_communities=16, avg_degree=24.0, mixing=0.3, seed=seed
    )
    features = gaussian_features(comm, feature_dim=100, seed=seed + 1,
                                 center_scale=1.0, noise_scale=5.0)
    labels = _flip_labels(comm, 0.10, 16, seed + 3)
    train, val, test = random_split_masks(n, seed + 2, 0.4, 0.3, 0.3)
    return Graph(src, dst, n, features, labels, train, val, test)


def _build_it2004_sim(scale: float, seed: int) -> Graph:
    """Web-crawl graph: power-law out-degree, strong id-locality.

    Labels/features are random (the paper does the same for graphs without
    ground truth), split 25/50/25.
    """
    n = max(int(8_192 * scale), 128)
    src, dst = locality_web_graph(n, num_edges=n * 14, seed=seed,
                                  locality=0.88, window=96)
    rng = np.random.default_rng(seed + 1)
    labels = rng.integers(0, 8, size=n)
    features = rng.standard_normal((n, 32))
    train, val, test = random_split_masks(n, seed + 2, 0.25, 0.5, 0.25)
    return Graph(src, dst, n, features, labels, train, val, test)


def _build_papers_sim(scale: float, seed: int) -> Graph:
    """Citation-like graph: community structure *and* id-locality.

    ogbn-paper benefits disproportionately from intra-GPU deduplication
    (Table 8: 48.3 % of volume) because co-author locality makes sequential
    chunks share neighbors. We reproduce that by sorting vertex ids by
    community so that range-chunks align with communities.
    """
    n = max(int(8_000 * scale), 128)
    src, dst, comm = planted_partition(
        n, num_communities=24, avg_degree=14.0, mixing=0.15, seed=seed
    )
    # Relabel ids so same-community vertices are contiguous -> id locality.
    order = np.argsort(comm, kind="stable")
    relabel = np.empty(n, dtype=np.int64)
    relabel[order] = np.arange(n, dtype=np.int64)
    src, dst, comm = relabel[src], relabel[dst], comm[order]
    features = gaussian_features(comm, feature_dim=48, seed=seed + 1,
                                 center_scale=1.0, noise_scale=4.0)
    train, val, test = random_split_masks(n, seed + 2, 0.25, 0.5, 0.25)
    return Graph(src, dst, n, features, comm, train, val, test)


def _build_friendster_sim(scale: float, seed: int) -> Graph:
    """Social graph: heavy-tailed RMAT degrees, no locality, random labels."""
    n = max(int(8_192 * scale), 128)
    src, dst = rmat(n, num_edges=n * 15, seed=seed)
    rng = np.random.default_rng(seed + 1)
    labels = rng.integers(0, 8, size=n)
    features = rng.standard_normal((n, 32))
    train, val, test = random_split_masks(n, seed + 2, 0.25, 0.5, 0.25)
    return Graph(src, dst, n, features, labels, train, val, test)


_BUILDERS = {
    "reddit_sim": _build_reddit_sim,
    "products_sim": _build_products_sim,
    "it2004_sim": _build_it2004_sim,
    "papers_sim": _build_papers_sim,
    "friendster_sim": _build_friendster_sim,
}


def toy_graph() -> Graph:
    """The 8-vertex example of Figure 2 / Figure 5 in the paper.

    Edges are exactly the (src -> dst) pairs drawn in Figure 2; useful for
    unit tests and for walking through the dedup example of Figure 6.
    """
    # Figure 2 lists, per destination: 0<-{1,3}, 1<-{6}, 2<-{0,2,7},
    # 3<-{2,5,6}, 4<-{1}, 5<-{2,4}, 6<-{0,3}, 7<-{2,3,6}.
    in_neighbors = {
        0: [1, 3], 1: [6], 2: [0, 2, 7], 3: [2, 5, 6],
        4: [1], 5: [2, 4], 6: [0, 3], 7: [2, 3, 6],
    }
    src, dst = [], []
    for v, neighbors in in_neighbors.items():
        for u in neighbors:
            src.append(u)
            dst.append(v)
    n = 8
    rng = np.random.default_rng(7)
    features = rng.standard_normal((n, 4))
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    train = np.ones(n, dtype=bool)
    return Graph(np.array(src), np.array(dst), n, features, labels,
                 train, None, None, name="toy8")
