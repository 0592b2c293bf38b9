"""Tests for the simulated hardware: memory pools, clock, platform."""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeviceOutOfMemoryError,
    SchedulerError,
)
from repro.hardware import (
    A100_SERVER,
    CPU_NODE,
    ECS_CLUSTER,
    GB,
    EventTimeline,
    MemoryPool,
    MultiGPUPlatform,
    PCIE_ONLY_SERVER,
    TimeBreakdown,
    scaled_platform,
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
        assert pool.available() == 0

    def test_peak_tracks_high_water(self):
        pool = MemoryPool(100, "gpu")
        a = pool.alloc("x", 80)
        a.free()
        pool.alloc("y", 30)
        assert pool.peak == 80
        assert pool.in_use == 30

    def test_reset_peak(self):
        pool = MemoryPool(100, "gpu")
        a = pool.alloc("x", 80)
        a.free()
        pool.reset_peak()
        assert pool.peak == 0

    def test_unlimited(self):
        pool = MemoryPool(None, "host")
        pool.alloc("x", 10 ** 15)
        assert pool.available() is None

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

    def test_resize_grow_and_shrink(self):
        pool = MemoryPool(100, "gpu")
        a = pool.alloc("x", 40)
        a.resize(90)
        assert pool.in_use == 90
        a.resize(10)
        assert pool.in_use == 10

    def test_resize_oom(self):
        pool = MemoryPool(100, "gpu")
        a = pool.alloc("x", 40)
        with pytest.raises(DeviceOutOfMemoryError):
            a.resize(200)

    def test_resize_shrink_updates_by_tag(self):
        pool = MemoryPool(100, "gpu")
        a = pool.alloc("x", 40)
        a.resize(10)
        assert pool.by_tag["x"] == 10
        a.free()
        assert pool.by_tag["x"] == 0
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

    def test_utilization(self):
        pool = MemoryPool(200, "gpu")
        pool.alloc("x", 50)
        assert pool.utilization() == 0.25


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

    def test_throughputs_triple(self):
        platform = MultiGPUPlatform(A100_SERVER)
        t_hd, t_dd, t_ru = platform.throughputs()
        assert t_hd < t_dd < t_ru

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


class TestSpecs:
    def test_scaled_platform(self):
        small = scaled_platform(A100_SERVER, 1e-6)
        assert small.gpu.memory_bytes == int(80 * GB * 1e-6)
        assert small.pcie_bandwidth == A100_SERVER.pcie_bandwidth

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
