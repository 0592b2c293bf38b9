"""Communication-volume analysis (paper §5.3 cost accounting, Table 8).

Three volumes characterize a schedule, all in *vertex rows*:

* ``v_ori``  = Σ_j Σ_i |N_ij|            — every chunk's neighbor set
  transferred individually (the vanilla baseline);
* ``v_p2p``  = Σ_j |∪_i N_ij|            — after inter-GPU deduplication each
  batch-union vertex crosses PCIe once;
* ``v_ru``   = |U_0| + Σ_j |U_j \\ U_{j-1}| — after intra-GPU reuse,
  consecutive batch unions share their overlap.

``v_ori − v_p2p`` is the volume converted to inter-GPU communication and
``v_p2p − v_ru`` the volume converted to intra-GPU reuse — the two columns
of Table 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.partition.two_level import TwoLevelPartition

__all__ = ["DedupVolumes", "measure_volumes"]


@dataclass(frozen=True)
class DedupVolumes:
    """Vertex-row communication volumes of one epoch-layer schedule."""

    v_ori: int
    v_p2p: int
    v_ru: int
    num_vertices: int
    #: |U_j| per batch (union sizes), for diagnostics
    batch_union_sizes: List[int]

    @property
    def inter_gpu_dedup(self) -> int:
        """Rows converted from host-GPU to inter-GPU transfers."""
        return self.v_ori - self.v_p2p

    @property
    def intra_gpu_dedup(self) -> int:
        """Rows converted from host-GPU transfers to in-place reuse."""
        return self.v_p2p - self.v_ru

    @property
    def reduction_fraction(self) -> float:
        """Fraction of host-GPU rows eliminated (the paper's 25 %-71 %)."""
        if self.v_ori == 0:
            return 0.0
        return 1.0 - self.v_ru / self.v_ori

    def normalized(self) -> dict:
        """Volumes normalized by |V| (the units of Table 8)."""
        n = max(self.num_vertices, 1)
        return {
            "v_ori": self.v_ori / n,
            "inter_gpu_dedup": self.inter_gpu_dedup / n,
            "intra_gpu_dedup": self.intra_gpu_dedup / n,
            "v_ru": self.v_ru / n,
        }


def measure_volumes(partition: TwoLevelPartition) -> DedupVolumes:
    """Compute the (v_ori, v_p2p, v_ru) triple for ``partition``.

    Each batch union U_j is one bool mark per vertex.
    """
    v_ori = v_p2p = v_ru = 0
    union_sizes: List[int] = []
    previous = np.zeros(partition.graph.num_vertices, dtype=bool)
    for batch in zip(*partition.chunks):
        needed = [chunk.neighbor_global for chunk in batch]
        union = np.zeros_like(previous)
        union[np.concatenate(needed)] = True
        size = np.count_nonzero(union)
        v_ori += sum(len(rows) for rows in needed)
        v_p2p += size
        v_ru += size - np.count_nonzero(union & previous)
        union_sizes.append(size)
        previous = union

    return DedupVolumes(
        v_ori=v_ori, v_p2p=v_p2p, v_ru=v_ru,
        num_vertices=partition.graph.num_vertices,
        batch_union_sizes=union_sizes,
    )
