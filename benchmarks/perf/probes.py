"""Layer probes: per-layer throughput on fixed synthetic inputs.

Traced run only, a few seconds in total, independent of ``--seed`` and
of the workloads. They explain a step-time change (did the scheduler's
scalar core slow down, or did the workload schedule more tasks?); they
are never the claim.

The calibration kernel does not touch ``repro`` at all. The runner times
it beside every interval it measures and divides the interval by how much
slower than ``metrics.REFERENCE_SECONDS`` it ran, so a host-time metric
reads in seconds of the *reference host* whatever this host was doing at
the time. ``probe.calibration_s`` is the run's median kernel time.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from repro.autograd import Tensor
from repro.comm import DedupCommunicator, build_comm_plan, measure_volumes
from repro.gnn import build_model
from repro.gnn.block import Block
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, EventTimeline, MultiGPUPlatform
from repro.partition import (
    metis_partition,
    search_placement,
    two_level_partition,
)
from repro.runtime import EventScheduler

__all__ = ["calibration_samples", "run_probes"]

_REPEATS = 5


def _seconds(fn: Callable[[], object], repeats: int) -> List[float]:
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        samples.append(perf_counter() - started)
    return samples


def _calibration_kernel() -> float:
    """Dense BLAS, a scatter, and interpreter-bound bookkeeping — the
    three kinds of work the simulator's host time is made of."""
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((192, 192))
    index = rng.integers(0, 4096, size=200_000)
    out = np.zeros(4096)
    for _ in range(4):
        dense = dense @ dense
        dense /= np.abs(dense).max()
        np.add.at(out, index, 1.0)
    total = 0
    frontier: Dict[int, int] = {}
    for i in range(60_000):
        frontier[i & 255] = total
        total += frontier.get((i * 7) & 255, 0) & 3
    return float(dense[0, 0]) + out[0] + total


def calibration_samples(repeats: int) -> List[float]:
    """Seconds the calibration kernel takes now, ``repeats`` times over."""
    return _seconds(_calibration_kernel, repeats)


def _scheduler_waves(shared: bool, waves: int, width: int) -> None:
    scheduler = EventScheduler()
    devices = np.arange(width)
    seconds = np.full(width, 1e-6)
    holds = [[("core", 1e-7)]] * width if shared else None
    previous = None
    for _ in range(waves):
        previous = scheduler.submit_batch(
            "gpu", devices, seconds, common_deps=previous,
            shared_by_task=holds)


def _scheduler_scalar(tasks: int) -> None:
    scheduler = EventScheduler()
    previous = ()
    for i in range(tasks):
        previous = (scheduler.submit("gpu", i & 63, 1e-6, deps=previous),)


def run_probes(tiny: bool = False) -> Dict[str, float]:
    """Every ``probe.*`` metric except the calibration kernel."""
    scale = 0.1 if tiny else 0.6
    waves, width = (4, 32) if tiny else (60, 256)
    repeats = 1 if tiny else _REPEATS
    graph = load_dataset("reddit_sim", scale=scale, seed=1)
    partition = two_level_partition(graph, 4, 4, seed=0)
    fleet = two_level_partition(graph, 8 if tiny else 32, 2, seed=0)
    rows = measure_volumes(partition).v_ori
    block = Block.from_graph(graph)
    dim = 64
    layer = build_model("gcn", [dim, dim], np.random.default_rng(0)).layers[0]
    features = np.random.default_rng(0).standard_normal(
        (graph.num_vertices, dim))
    plan = build_comm_plan(partition)

    def executor_sweep() -> None:
        communicator = DedupCommunicator(plan, MultiGPUPlatform(A100_SERVER))
        timeline = EventTimeline()
        communicator.start_sweep(dim, double_buffer=True)
        for batch in range(plan.num_batches):
            communicator.load_batch_forward(batch, features, timeline)
        communicator.end_sweep()

    def rate(units: float, fn: Callable[[], object]) -> float:
        return units / statistics.median(_seconds(fn, repeats))

    wave_tasks = waves * width
    return {
        "probe.scheduler_wave_tasks_per_s": rate(
            wave_tasks, lambda: _scheduler_waves(False, waves, width)),
        "probe.scheduler_shared_tasks_per_s": rate(
            wave_tasks, lambda: _scheduler_waves(True, waves, width)),
        "probe.scheduler_scalar_tasks_per_s": rate(
            wave_tasks, lambda: _scheduler_scalar(wave_tasks)),
        "probe.metis_edges_per_s": rate(
            graph.num_edges, lambda: metis_partition(graph, 16, seed=0)),
        "probe.plan_rows_per_s": rate(
            rows, lambda: build_comm_plan(partition)),
        "probe.placement_partitions_per_s": rate(
            fleet.num_partitions,
            lambda: search_placement(fleet, fleet.num_partitions // 4)),
        "probe.aggregate_edges_per_s": rate(
            block.num_edges, lambda: layer.aggregate(block, Tensor(features))),
        "probe.aggregate_backward_edges_per_s": rate(
            block.num_edges,
            lambda: layer.aggregate_backward(block, features)),
        "probe.executor_rows_per_s": rate(rows, executor_sweep),
    }
