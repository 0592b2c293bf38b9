"""Communication cost model: Eq. 4 (paper §5.3).

The single-server model is the paper's Eq. 4:

    C = V⁺ᵣᵤ / T_hd  +  (V_ori − V⁺p2p) / T_dd  +  (V⁺p2p − V⁺ᵣᵤ) / T_ru

with volumes in bytes and throughputs in bytes/second. T_hd, T_dd and T_ru
are environment parameters taken from a
:class:`~repro.hardware.platform.MultiGPUPlatform`; the subgraph
reorganization heuristic minimizes C by maximizing the two dedup volumes.
The scale-out extension's network prices (collectives, the halo net
term) are the platform's own methods, read from its rate table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.analysis import DedupVolumes, measure_volumes
from repro.errors import ConfigurationError
from repro.hardware.platform import ALLREDUCE_ALGORITHMS, MultiGPUPlatform
from repro.partition.two_level import TwoLevelPartition
from repro.units import ByteRate, Bytes, Seconds

__all__ = ["CommCostModel", "communication_cost", "ALLREDUCE_ALGORITHMS"]


@dataclass(frozen=True)
class CommCostModel:
    """Throughput triple (bytes/second)."""

    t_hd: ByteRate
    t_dd: ByteRate
    t_ru: ByteRate

    def __post_init__(self) -> None:
        if min(self.t_hd, self.t_dd, self.t_ru) <= 0:
            raise ConfigurationError("throughputs must be positive")

    @staticmethod
    def from_platform(platform: MultiGPUPlatform) -> "CommCostModel":
        t_hd, t_dd, t_ru = platform.throughputs()
        return CommCostModel(t_hd=t_hd, t_dd=t_dd, t_ru=t_ru)

    def cost_seconds(self, volumes: DedupVolumes, row_bytes: Bytes) -> Seconds:
        """Eq. 4 for one epoch-layer sweep (volumes are vertex rows)."""
        host = volumes.v_ru * row_bytes / self.t_hd
        inter = volumes.inter_gpu_dedup * row_bytes / self.t_dd
        intra = volumes.intra_gpu_dedup * row_bytes / self.t_ru
        return host + inter + intra

    def vanilla_cost_seconds(self, volumes: DedupVolumes, row_bytes: Bytes) -> Seconds:
        """Cost of the no-dedup baseline: everything crosses PCIe."""
        return volumes.v_ori * row_bytes / self.t_hd


def communication_cost(partition: TwoLevelPartition, row_bytes: Bytes,
                       model: CommCostModel) -> float:
    """Convenience: measure volumes and apply Eq. 4."""
    return model.cost_seconds(measure_volumes(partition), row_bytes)
