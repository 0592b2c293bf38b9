"""Tests for the simulated hardware: memory pools, clock, platform."""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeviceOutOfMemoryError,
    SchedulerError,
)
import repro.hardware.platform as platform_module
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    CPU_NODE,
    ClusterPlatform,
    ECS_CLUSTER,
    GB,
    EventTimeline,
    MemoryPool,
    MultiGPUPlatform,
    PCIE_ONLY_SERVER,
    TimeBreakdown,
)


class TestMemoryPool:
    def test_alloc_free_cycle(self):
        pool = MemoryPool(100, "gpu")
        allocation = pool.alloc("x", 60)
        assert pool.in_use == 60
        allocation.free()
        assert pool.in_use == 0

    def test_oom(self):
        pool = MemoryPool(100, "gpu")
        pool.alloc("x", 90)
        with pytest.raises(DeviceOutOfMemoryError) as info:
            pool.alloc("y", 20)
        assert info.value.requested == 20
        assert info.value.in_use == 90
        assert info.value.capacity == 100
        assert "gpu" in str(info.value)

    def test_exact_fit(self):
        pool = MemoryPool(100, "gpu")
        pool.alloc("x", 100)
        assert pool.in_use == pool.capacity

    def test_peak_tracks_high_water(self):
        pool = MemoryPool(100, "gpu")
        a = pool.alloc("x", 80)
        a.free()
        pool.alloc("y", 30)
        assert pool.peak == 80
        assert pool.in_use == 30

    def test_unlimited(self):
        pool = MemoryPool(None, "host")
        pool.alloc("x", 10 ** 15)
        assert pool.in_use == 10 ** 15

    def test_double_free_is_noop(self):
        pool = MemoryPool(100, "gpu")
        a = pool.alloc("x", 50)
        a.free()
        a.free()
        assert pool.in_use == 0

    def test_scoped(self):
        pool = MemoryPool(100, "gpu")
        with pool.scoped("x", 70):
            assert pool.in_use == 70
        assert pool.in_use == 0

    def test_scoped_frees_on_exception(self):
        pool = MemoryPool(100, "gpu")
        with pytest.raises(ValueError), pool.scoped("x", 70):
            raise ValueError("boom")
        assert pool.in_use == 0

    def test_by_tag_accounting(self):
        pool = MemoryPool(100, "gpu")
        pool.alloc("weights", 30)
        pool.alloc("weights", 20)
        assert pool.by_tag["weights"] == 50

    def test_negative_alloc_rejected(self):
        pool = MemoryPool(100, "gpu")
        with pytest.raises(ValueError):
            pool.alloc("x", -1)

class TestTimeBreakdown:
    """The breakdown is a view of the timeline's tasks; what its removed
    ``add`` used to guard is guarded where a task enters the timeline."""

    def test_add_and_total(self):
        timeline = EventTimeline()
        timeline.add("gpu", 1.0)
        timeline.add("h2d", 2.0)
        assert timeline.breakdown.total == 3.0
        assert timeline.breakdown.seconds["h2d"] == 2.0

    def test_unknown_channel(self):
        timeline = EventTimeline()
        with pytest.raises(SchedulerError, match="unknown channel"):
            timeline.add("alien", 1.0)
        assert timeline.breakdown == TimeBreakdown()

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_negative_time(self, seconds):
        """The scheduler's rule, 0 <= seconds < inf: a NaN would poison
        ``total`` (``nan < 0`` is False)."""
        timeline = EventTimeline()
        timeline.add("gpu", 1.0)
        with pytest.raises(SchedulerError, match="finite"):
            timeline.add("gpu", seconds)
        with pytest.raises(SchedulerError, match="finite"):
            timeline.submit_batch("h2d", [0.5, seconds])
        assert timeline.breakdown.total == 1.0
        assert all(0.0 <= value < float("inf")
                   for value in timeline.breakdown.seconds.values())

    def test_as_dict_copy(self):
        clock = TimeBreakdown()
        d = clock.as_dict()
        d["gpu"] = 99.0
        assert clock.seconds["gpu"] == 0.0

    def test_breakdown_is_a_value(self):
        """Each read is a fresh snapshot: mutating one changes neither
        the timeline nor a later read."""
        timeline = EventTimeline()
        timeline.submit_batch("d2d", [1.0, 3.0])
        first = timeline.breakdown
        first.seconds["d2d"] = 99.0
        assert timeline.breakdown.seconds["d2d"] == 3.0
        assert timeline.breakdown == timeline.breakdown


class TestPlatform:
    def test_gpu_count_default(self):
        platform = MultiGPUPlatform(A100_SERVER)
        assert platform.num_gpus == 4
        assert len(platform.gpus) == 4

    def test_gpu_count_override(self):
        platform = MultiGPUPlatform(A100_SERVER, num_gpus=2)
        assert platform.num_gpus == 2

    def test_too_many_gpus(self):
        with pytest.raises(ConfigurationError):
            MultiGPUPlatform(A100_SERVER, num_gpus=8)

    def test_socket_assignment(self):
        platform = MultiGPUPlatform(A100_SERVER)
        assert [gpu.socket for gpu in platform.gpus] == [0, 0, 1, 1]

    def test_numa_aware_default(self):
        # > 2 GPUs -> NUMA-aware placement possible (paper §7.6).
        assert MultiGPUPlatform(A100_SERVER, num_gpus=4).numa_aware
        assert not MultiGPUPlatform(A100_SERVER, num_gpus=2).numa_aware

    def test_numa_penalty_slows_h2d(self):
        aware = MultiGPUPlatform(A100_SERVER, num_gpus=4)
        unaware = MultiGPUPlatform(A100_SERVER, num_gpus=2)
        assert unaware.h2d_seconds(GB) > aware.h2d_seconds(GB)

    def test_transfer_cost_ordering(self):
        """T_ru > T_dd > T_hd on the NVLink platform (paper §5.3)."""
        platform = MultiGPUPlatform(A100_SERVER)
        nbytes = GB
        assert platform.reuse_seconds(nbytes) < platform.d2d_seconds(nbytes)
        assert platform.d2d_seconds(nbytes) < platform.h2d_seconds(nbytes)

    def test_pcie_only_has_equal_t_dd_t_hd(self):
        platform = MultiGPUPlatform(PCIE_ONLY_SERVER, numa_aware=True)
        assert np.isclose(platform.d2d_seconds(GB), platform.h2d_seconds(GB))

    def test_eq4_rates_ordered(self):
        """T_hd < T_dd < T_ru: PCIe is the slowest path, HBM reuse the
        fastest."""
        platform = MultiGPUPlatform(A100_SERVER)
        assert platform.h2d_seconds(GB) > platform.d2d_seconds(GB) \
            > platform.reuse_seconds(GB)

    def test_compute_seconds(self):
        platform = MultiGPUPlatform(A100_SERVER)
        assert platform.gpu_compute_seconds(A100_SERVER.gpu.compute_flops) \
            == 1.0

    def test_reset_memory(self):
        platform = MultiGPUPlatform(A100_SERVER)
        platform.gpus[0].memory.alloc("x", 100)
        platform.reset_memory()
        assert platform.gpus[0].memory.in_use == 0

    def test_peak_gpu_memory(self):
        platform = MultiGPUPlatform(A100_SERVER)
        platform.gpus[2].memory.alloc("x", 12345)
        assert platform.peak_gpu_memory() == 12345


class TestPlatformShape:
    """A malformed fleet shape fails as a ConfigurationError naming the
    knob before any memory pool exists: 1.5 GPUs per node and 2.0 GPUs
    used to raise a TypeError, True built one GPU per node, and a 1.5
    or NaN imbalance was stored."""

    @pytest.fixture()
    def no_pools(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(platform_module, "MemoryPool", built)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, float("nan"), "2",
                                       0])
    def test_gpus_per_node(self, no_pools, value):
        with pytest.raises(ConfigurationError, match="gpus_per_node"):
            ClusterPlatform(A100_CLUSTER, gpus_per_node=value)

    @pytest.mark.parametrize("value", [2.0, True, float("nan"), "2", 0])
    def test_num_gpus(self, no_pools, value):
        with pytest.raises(ConfigurationError, match="num_gpus"):
            MultiGPUPlatform(A100_SERVER, num_gpus=value)

    @pytest.mark.parametrize("value", [1.5, True, float("nan"), -1, None])
    def test_cluster_max_imbalance(self, no_pools, value):
        with pytest.raises(ConfigurationError, match="max_imbalance"):
            ClusterPlatform(A100_CLUSTER, max_imbalance=value)

    @pytest.mark.parametrize("value", [1.5, True, float("nan"), -1, "1"])
    def test_set_placement_max_imbalance(self, value):
        platform = ClusterPlatform(A100_CLUSTER)
        with pytest.raises(ConfigurationError, match="max_imbalance"):
            platform.set_placement(None, max_imbalance=value)
        assert platform.max_imbalance == 0
        assert platform.placement.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_integer_likes_still_accepted(self):
        platform = ClusterPlatform(A100_CLUSTER, gpus_per_node=np.int64(2),
                                   max_imbalance=np.int64(1))
        assert platform.num_gpus == 4 and platform.max_imbalance == 1
        assert MultiGPUPlatform(A100_SERVER, num_gpus=np.int64(3)).num_gpus \
            == 3


class TestSpecs:
    def test_with_gpu_memory(self):
        spec = A100_SERVER.with_gpu_memory(123)
        assert spec.gpu.memory_bytes == 123
        assert A100_SERVER.gpu.memory_bytes == 80 * GB  # frozen original

    def test_with_num_gpus(self):
        assert A100_SERVER.with_num_gpus(2).num_gpus == 2

    def test_cluster_scaling(self):
        assert ECS_CLUSTER.num_nodes == 16
        assert CPU_NODE.with_num_nodes(3).num_nodes == 3

    def test_nvlink_faster_than_pcie(self):
        assert A100_SERVER.nvlink_bandwidth > A100_SERVER.pcie_bandwidth
