"""Every ``__repr__`` of the package: one line naming the object's sizes.

No caller outside tests prints these; they are what a debugger, a failed
assertion or an interactive session shows, so each must name the values
its object was built with.
"""

import numpy as np
import pytest

from repro.gnn import Block, build_model
from repro.graph import toy_graph
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    EventTimeline,
    MemoryPool,
    MultiGPUPlatform,
    TimeBreakdown,
)
from repro.partition import two_level_partition
from repro.runtime.scheduler import DepLists, EventScheduler, WaveRecorder
from repro.serving import BurstyArrivals, PoissonArrivals


def _timeline():
    timeline = EventTimeline()
    timeline.add("gpu", 0.5, device=0)
    timeline.add("h2d", 0.25, device=0)
    return timeline


def _scheduler():
    scheduler = EventScheduler()
    first = scheduler.submit("gpu", 0, 1.5)
    scheduler.submit("h2d", 1, 0.5, deps=[first])
    return scheduler


def _pool():
    pool = MemoryPool(1024, name="gpu0")
    pool.alloc("weights", 256)
    return pool


def _program():
    recorder = WaveRecorder(1)
    recorder.submit_batch("gpu", [1.0, 2.0])
    recorder.submit_batch("d2h", [0.5])
    return recorder.finish()


REPRS = {
    "graph": (toy_graph, "Graph(name='toy8', |V|=8, |E|=17)"),
    "block": (lambda: Block.from_graph(toy_graph()),
              "Block(src=8, dst=8, edges=17)"),
    "model": (lambda: build_model("gcn", [4, 8, 2],
                                  np.random.default_rng(0)),
              "GNNModel(arch='gcn', dims=[4, 8, 2])"),
    "two_level_partition": (lambda: two_level_partition(toy_graph(), 2, 2),
                            "TwoLevelPartition(m=2, n=2, graph='toy8')"),
    "subgraph_chunk": (
        lambda: two_level_partition(toy_graph(), 2, 2).chunks[0][0],
        "SubgraphChunk(dst=3, edges=6, neighbors=6)"),
    "memory_pool": (_pool, "MemoryPool(name='gpu0', in_use=256B, "
                           "peak=256B, capacity=1024B)"),
    "unlimited_pool": (lambda: MemoryPool(None, name="host"),
                       "MemoryPool(name='host', in_use=0B, peak=0B, "
                       "capacity=unlimited)"),
    "simulated_gpu": (lambda: MultiGPUPlatform(A100_SERVER).gpus[3],
                      "SimulatedGPU(id=3, socket=1)"),
    "multi_gpu_platform": (
        lambda: MultiGPUPlatform(A100_SERVER),
        "MultiGPUPlatform(cluster='4xA100-NVLink', nodes=1, "
        "gpus_per_node=4, numa_aware=True)"),
    "cluster_platform": (
        lambda: ClusterPlatform(A100_CLUSTER),
        "ClusterPlatform(cluster='2x(4xA100-NVLink)', nodes=2, "
        "gpus_per_node=4, numa_aware=True)"),
    "time_breakdown": (
        lambda: TimeBreakdown({"gpu": 1.5, "h2d": 0.25}),
        "TimeBreakdown(gpu=1.5000s, h2d=0.2500s, total=1.7500s)"),
    "event_timeline": (_timeline, "EventTimeline(tasks=2, makespan=0.5000s, "
                                  "serialized=0.7500s)"),
    "event_scheduler": (_scheduler,
                        "EventScheduler(tasks=2, makespan=2.000000s)"),
    "dep_lists": (lambda: DepLists(np.array([0, 2]), np.array([1, 0, 1])),
                  "DepLists(ids=array([0, 2]), counts=array([1, 0, 1]))"),
    "wave_program": (_program, "WaveProgram(waves=2, tasks=3, external=1)"),
    "poisson_arrivals": (lambda: PoissonArrivals(200.0, 0.5, seed=3),
                         "PoissonArrivals(rate=200.0, duration=0.5, seed=3)"),
    "bursty_arrivals": (
        lambda: BurstyArrivals(200.0, 0.5, seed=3, burst_size=4),
        "BurstyArrivals(rate=200.0, duration=0.5, seed=3, burst_size=4)"),
}


@pytest.mark.parametrize("build, expected", REPRS.values(), ids=REPRS.keys())
def test_repr_names_what_the_object_was_built_with(build, expected):
    assert repr(build()) == expected
