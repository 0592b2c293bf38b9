"""Table 7 — HongTu (4 simulated GPUs) vs DistGNN (16 CPU nodes) on the
three large graphs, GCN and GAT at 2/3/4 layers.

Both columns now come from the same event-timeline runtime: DistGNN's
epoch is a per-layer BSP task DAG (``cpu`` kernels + ``net`` replica
sync), HongTu's the usual load/compute/writeback DAG, and each cell is a
timeline makespan. A scale-out companion adds HongTu on a 2-node GPU
cluster (barrier vs pipeline) next to the 16-node CPU cluster.

Expected shape (paper): HongTu wins by roughly an order of magnitude on GCN
(7.8-11.8x) and more on GAT (20.2x where DistGNN even runs); DistGNN OOMs on
most big-graph GAT workloads because the O(|E|) intermediates plus replicas
exceed node memory; the monetary cost of the CPU cluster is >4x the GPU
node's.
"""

import dataclasses

from repro.baselines import DistGNNSimulator
from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer, estimate_for_model
from repro.graph import load_dataset
from repro.hardware import A100_CLUSTER, CPU_NODE, ClusterPlatform

from benchmarks._common import (
    BENCH_SCALE,
    capacity_limited_platform,
    emit,
    paper_model,
    run_or_oom,
    speedup_vs,
)

DATASETS = ["it2004_sim", "papers_sim", "friendster_sim"]
LAYER_COUNTS = [2, 3, 4]
HIDDEN = 128
NUM_CHUNKS = {"it2004_sim": 8, "papers_sim": 16, "friendster_sim": 16}
#: cluster node memory as a fraction of the *GCN-4* working set: holds all
#: GCN configs (with replicas), but the edge-dominated GAT intermediates
#: overflow it — the paper's OOM pattern.
NODE_MEMORY_FRACTION = 0.30


def scaled_cluster(graph):
    reference_model = paper_model("gcn", graph, 4, HIDDEN, seed=1)
    estimate = estimate_for_model(
        graph.num_vertices, graph.num_edges, reference_model
    )
    node_memory = int(estimate.total_bytes * NODE_MEMORY_FRACTION)
    return dataclasses.replace(
        CPU_NODE.with_num_nodes(16), memory_per_node=node_memory
    )


def run_pair(dataset, arch, layers):
    graph = load_dataset(dataset, scale=BENCH_SCALE)
    model = paper_model(arch, graph, layers, HIDDEN, seed=1)
    cluster = scaled_cluster(graph)
    distgnn = run_or_oom("DistGNN", lambda: DistGNNSimulator(
        graph, model, cluster), epochs=1)

    platform = capacity_limited_platform(graph, model, 0.12)
    chunks = NUM_CHUNKS[dataset] * (2 if arch == "gat" else 1)
    hongtu = run_or_oom("HongTu", lambda: HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=chunks, seed=0)), epochs=1)
    return distgnn, hongtu


def build_table():
    rows = []
    outcomes = {}
    for layers in LAYER_COUNTS:
        for dataset in DATASETS:
            cells = [layers, dataset]
            for arch in ["gcn", "gat"]:
                distgnn, hongtu = run_pair(dataset, arch, layers)
                outcomes[(layers, dataset, arch)] = (distgnn, hongtu)
                cells.append(distgnn.cell())
                cells.append(f"{hongtu.cell()} ({speedup_vs(distgnn, hongtu)})")
            rows.append(cells)
    table = render_table(
        ["Layers", "Dataset", "GCN DistGNN", "GCN HongTu (speedup)",
         "GAT DistGNN", "GAT HongTu (speedup)"],
        rows,
        title="Table 7: HongTu (4 GPUs) vs DistGNN (16 CPU nodes), "
              "simulated epoch seconds",
    )
    return table, outcomes


def bench_table7_distgnn(benchmark):
    table, outcomes = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit("table7_distgnn", table)

    gat_ooms = 0
    for (layers, dataset, arch), (distgnn, hongtu) in outcomes.items():
        assert not hongtu.oom  # HongTu handles every workload
        if arch == "gcn" and not distgnn.oom:
            assert hongtu.epoch_seconds * 2 < distgnn.epoch_seconds
        if arch == "gat" and distgnn.oom:
            gat_ooms += 1
    # DistGNN fails on a majority of the big-graph GAT workloads.
    assert gat_ooms >= 5

    # Monetary comparison (§7.2): 16 CPU nodes cost >4x the GPU server.
    cluster_usd = 16 * CPU_NODE.usd_per_node_hour
    gpu_server_usd = 20.14
    assert cluster_usd > 4 * gpu_server_usd


# ----------------------------------------------------------------------
# scale-out companion: the same timeline runtime prices a 2-node GPU
# cluster next to the paper's two testbeds
# ----------------------------------------------------------------------
def run_scaleout(dataset="papers_sim", layers=2):
    graph = load_dataset(dataset, scale=BENCH_SCALE)
    model = paper_model("gcn", graph, layers, HIDDEN, seed=1)
    cluster = scaled_cluster(graph)
    distgnn = DistGNNSimulator(graph, model, cluster)
    distgnn_result = distgnn.train_epoch()

    rows = {"distgnn": distgnn_result}
    for overlap in ["barrier", "pipeline"]:
        model = paper_model("gcn", graph, layers, HIDDEN, seed=1)
        platform = ClusterPlatform(A100_CLUSTER)
        trainer = HongTuTrainer(
            graph, model, platform,
            HongTuConfig(num_chunks=NUM_CHUNKS[dataset], seed=0,
                         overlap=overlap),
        )
        rows[f"hongtu_2x4_{overlap}"] = trainer.train_epoch()
    return rows


def bench_table7_scaleout(benchmark):
    rows = benchmark.pedantic(run_scaleout, rounds=1, iterations=1)
    distgnn = rows["distgnn"]
    barrier = rows["hongtu_2x4_barrier"]
    pipeline = rows["hongtu_2x4_pipeline"]
    table = render_table(
        ["System", "epoch s (timeline makespan)", "net s (serialized)"],
        [
            ["DistGNN 16 CPU nodes", f"{distgnn.epoch_seconds:.6f}",
             f"{distgnn.clock.seconds['net']:.6f}"],
            ["HongTu 2x4 GPUs, barrier", f"{barrier.epoch_seconds:.6f}",
             f"{barrier.clock.seconds['net']:.6f}"],
            ["HongTu 2x4 GPUs, pipeline", f"{pipeline.epoch_seconds:.6f}",
             f"{pipeline.clock.seconds['net']:.6f}"],
        ],
        title="Table 7 scale-out (papers_sim, GCN-2): one timeline runtime, "
              "three cluster schedules",
    )
    emit("table7_scaleout", table)

    # The DistGNN column is a timeline makespan, not an analytic sum.
    assert distgnn.timeline is not None
    assert distgnn.epoch_seconds == distgnn.timeline.makespan
    assert distgnn.timeline.scheduler.busy_seconds(channel="net") > 0
    distgnn.timeline.validate()
    # Multi-node pipeline strictly beats barrier on this transfer-bound
    # workload (halo traffic hides under compute), and the GPU cluster
    # stays far ahead of the CPU cluster.
    assert pipeline.epoch_seconds < barrier.epoch_seconds
    assert pipeline.epoch_seconds * 2 < distgnn.epoch_seconds
