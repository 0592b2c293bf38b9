"""Simulator scale — wall-clock cost of simulating thousand-GPU epochs.

Every other benchmark reports *simulated* seconds; this one reports how
long the simulator itself takes to produce them. The array-backed
scheduler and batched task emission are what make placement
and topology sweeps over O(1000) GPUs routine, and this benchmark is the
demonstration of that property:

* ``bench_simulator_scale_smoke`` runs a small multi-node pipelined
  epoch, validates its timeline, prints its wall clock and archives the
  simulated makespan and task count for the CI gate. (That the
  scheduler's array step assigns the times of one-task-at-a-time
  scheduling is a tier-1 test against ``tests/scheduler_oracle.py``, not
  a bench.)
* ``bench_simulator_scale_1024`` simulates a full 1024-GPU pipelined
  epoch (128 nodes × 8 GPUs) end-to-end and prints the phase-by-phase
  wall clock (partition and plan build, epoch). Where that time goes is
  ``repro train --profile``'s and ``tools/profile_step.py``'s to answer.

Raw wall clock is machine-dependent, so nothing here archives or gates
it: the table is this bench's figure, and host time is gated by the
calibrated perf bench (``benchmarks/perf/``, root ``BENCHMARK.json``).
"""

import time

from repro.autograd import SGD
from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_CLUSTER, A100_SERVER, ClusterPlatform

from benchmarks._common import emit, emit_json, paper_model

DATASET = "it2004_sim"
HIDDEN = 32
NUM_CHUNKS = 2


def run_scale_epoch(nodes, gpus_per_node, scale, hidden=HIDDEN,
                    num_chunks=NUM_CHUNKS, overlap="pipeline", seed=0):
    """Simulate one pipelined epoch on a nodes × gpus_per_node cluster.

    Returns wall-clock phases (graph/partition+plan build inside trainer
    construction vs the epoch itself), the simulated makespan, and the
    number of scheduled tasks.
    """
    graph = load_dataset(DATASET, scale=scale, seed=2)
    cluster = A100_CLUSTER.with_num_nodes(nodes).with_node(
        A100_SERVER.with_num_gpus(gpus_per_node))
    platform = ClusterPlatform(cluster)
    model = paper_model("gcn", graph, 2, hidden, seed=7)
    started = time.perf_counter()
    trainer = HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=num_chunks, overlap=overlap,
                     seed=seed),
        optimizer=SGD(model.parameters(), lr=0.02),
    )
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    result = trainer.train_epoch()
    epoch_seconds = time.perf_counter() - started
    return {
        "num_gpus": nodes * gpus_per_node,
        "build_wall_seconds": build_seconds,
        "epoch_wall_seconds": epoch_seconds,
        "makespan_seconds": result.epoch_seconds,
        "num_tasks": result.timeline.scheduler.num_tasks,
        "net_bytes": result.net_bytes,
        "result": result,
    }


def build_table(measurements):
    rows = [
        [f"{m['num_gpus']} GPUs", f"{m['build_wall_seconds']:.2f}",
         f"{m['epoch_wall_seconds']:.2f}", f"{m['num_tasks']}",
         f"{m['makespan_seconds']:.6f}"]
        for m in measurements
    ]
    return render_table(
        ["Cluster", "build wall s", "epoch wall s", "tasks",
         "simulated epoch s"],
        rows,
        title=f"Simulator scale ({DATASET}, GCN, pipelined): wall clock "
              "to simulate one epoch",
    )


# ----------------------------------------------------------------------
# CI smoke: small cluster, wall clock + a valid timeline
# ----------------------------------------------------------------------
def run_smoke():
    return run_scale_epoch(nodes=2, gpus_per_node=2, scale=0.5)


def bench_simulator_scale_smoke(benchmark):
    smoke = benchmark.pedantic(run_smoke, rounds=1, iterations=1)
    emit("simulator_scale_smoke", build_table([smoke]))
    emit_json("simulator_scale_smoke", {
        "makespan_seconds": smoke["makespan_seconds"],
        "num_tasks": smoke["num_tasks"],
    })
    smoke["result"].timeline.validate()


# ----------------------------------------------------------------------
# thousand-GPU demonstration
# ----------------------------------------------------------------------
def bench_simulator_scale_1024(benchmark):
    measurement = benchmark.pedantic(
        run_scale_epoch, kwargs={"nodes": 128, "gpus_per_node": 8,
                                 "scale": 8.0},
        rounds=1, iterations=1)
    emit("simulator_scale", build_table([measurement]))
