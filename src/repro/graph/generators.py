"""Synthetic graph generators.

Three structural families cover the five evaluation datasets of the paper:

* :func:`rmat` — recursive-matrix generator producing the heavy-tailed,
  skewed degree distributions of social graphs (friendster) and dense
  interaction graphs (reddit);
* :func:`locality_web_graph` — power-law out-degree with id-locality,
  mimicking host-ordered web crawls (it-2004), whose low replication factor
  in Table 3 comes precisely from that locality;
* :func:`planted_partition` — community-structured graphs with
  label-correlated features, giving the *learnable* classification tasks
  needed for the accuracy experiments (reddit, ogbn-products, ogbn-paper).

All generators take an explicit seed and return parallel (src, dst) arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphFormatError

__all__ = [
    "rmat",
    "locality_web_graph",
    "planted_partition",
    "gaussian_features",
    "random_split_masks",
]


#: R-MAT quadrant probabilities (a, b, c; d = 1 - a - b - c): the
#: heavy-tailed degree skew of social networks
RMAT_PROBABILITIES = (0.57, 0.19, 0.19)
#: exponent of the Zipf out-degrees of :func:`locality_web_graph`
WEB_DEGREE_POWER = 2.1


def rmat(num_vertices: int, num_edges: int,
         seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """R-MAT edge generator (Chakrabarti et al.).

    Recursively descends a 2x2 partition of the adjacency matrix with
    the quadrant probabilities :data:`RMAT_PROBABILITIES`.

    Returns parallel (src, dst) arrays of length ``num_edges`` (self-loops
    removed, so slightly fewer edges may be returned).
    """
    a, b, c = RMAT_PROBABILITIES
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(max(num_vertices, 2))))

    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(num_edges)
        # Quadrant choice: [a | b / c | d] — top/bottom chooses the src bit,
        # left/right the dst bit.
        src_bit = (r >= a + b).astype(np.int64)
        dst_bit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit

    src %= num_vertices
    dst %= num_vertices
    keep = src != dst
    return src[keep], dst[keep]


def locality_web_graph(num_vertices: int, num_edges: int, seed: int,
                       locality: float = 0.85,
                       window: int = 64) -> Tuple[np.ndarray, np.ndarray]:
    """Web-crawl-like graph: power-law out-degree + id-locality.

    Each source vertex draws a Zipf(:data:`WEB_DEGREE_POWER`) out-degree; a ``locality``
    fraction of its edges land within ``±window`` ids (pages on the same
    host, as produced by crawl ordering), the rest are uniform. This mirrors
    it-2004's structure, in which Table 3 shows very low neighbor
    replication (1.23-1.85) because partitions of contiguous ranges capture
    most neighborhoods.
    """
    rng = np.random.default_rng(seed)
    raw = rng.zipf(WEB_DEGREE_POWER, size=num_vertices).astype(np.float64)
    out_deg = np.minimum(raw, num_vertices / 4)
    out_deg = np.maximum(
        1, np.round(out_deg * num_edges / out_deg.sum())
    ).astype(np.int64)

    src = np.repeat(np.arange(num_vertices, dtype=np.int64), out_deg)
    total = len(src)
    local = rng.random(total) < locality
    offsets = rng.integers(-window, window + 1, size=total)
    dst_local = np.clip(src + offsets, 0, num_vertices - 1)
    dst_uniform = rng.integers(0, num_vertices, size=total)
    dst = np.where(local, dst_local, dst_uniform)
    keep = src != dst
    return src[keep], dst[keep]


def planted_partition(num_vertices: int, num_communities: int,
                      avg_degree: float, mixing: float, seed: int,
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Community-structured graph with known community labels.

    Every vertex belongs to one of ``num_communities`` equally-sized blocks;
    each of its ``~avg_degree`` edges goes to a same-community vertex with
    probability ``1 - mixing`` and to a uniformly random vertex otherwise.

    Returns (src, dst, communities). ``mixing`` near 0 gives strongly
    learnable structure; 1.0 gives an Erdős–Rényi-like graph.
    """
    if not 0.0 <= mixing <= 1.0:
        raise GraphFormatError(f"mixing must be in [0, 1], got {mixing}")
    rng = np.random.default_rng(seed)
    communities = rng.integers(0, num_communities, size=num_vertices)

    num_edges = int(num_vertices * avg_degree)
    src = rng.integers(0, num_vertices, size=num_edges)
    same = rng.random(num_edges) >= mixing

    # Same-community targets: pick random members of src's community.
    order = np.argsort(communities, kind="stable")
    sorted_comm = communities[order]
    starts = np.searchsorted(sorted_comm, np.arange(num_communities))
    ends = np.searchsorted(sorted_comm, np.arange(num_communities), side="right")
    comm_of_src = communities[src]
    lo, hi = starts[comm_of_src], ends[comm_of_src]
    # Guard against empty communities (possible at tiny sizes).
    span = np.maximum(hi - lo, 1)
    picks = lo + (rng.random(num_edges) * span).astype(np.int64)
    dst_same = order[np.minimum(picks, len(order) - 1)]
    dst_any = rng.integers(0, num_vertices, size=num_edges)
    dst = np.where(same, dst_same, dst_any)

    keep = src != dst
    return src[keep], dst[keep], communities


def gaussian_features(communities: np.ndarray, feature_dim: int, seed: int,
                      center_scale: float = 1.0, noise_scale: float = 1.0,
                      ) -> np.ndarray:
    """Features = community centroid + Gaussian noise.

    With ``center_scale / noise_scale`` around 1 the task is learnable but
    not trivial — a GCN improves on a linear model by smoothing noise over
    neighborhoods, which is what lets the accuracy curves in Fig. 8 climb.
    """
    rng = np.random.default_rng(seed)
    num_classes = int(communities.max()) + 1
    centers = rng.standard_normal((num_classes, feature_dim)) * center_scale
    noise = rng.standard_normal((len(communities), feature_dim)) * noise_scale
    return (centers[communities] + noise).astype(np.float64)


def random_split_masks(num_vertices: int, seed: int,
                       train_fraction: float = 0.25,
                       val_fraction: float = 0.5,
                       test_fraction: float = 0.25,
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random train/val/test masks (paper default: 25 % / 50 % / 25 %)."""
    total = train_fraction + val_fraction + test_fraction
    if not np.isclose(total, 1.0):
        raise GraphFormatError(f"split fractions must sum to 1, got {total}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_vertices)
    n_train = int(num_vertices * train_fraction)
    n_val = int(num_vertices * val_fraction)
    train = np.zeros(num_vertices, dtype=bool)
    val = np.zeros(num_vertices, dtype=bool)
    test = np.zeros(num_vertices, dtype=bool)
    train[order[:n_train]] = True
    val[order[n_train:n_train + n_val]] = True
    test[order[n_train + n_val:]] = True
    return train, val, test
