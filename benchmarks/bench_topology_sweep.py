"""Topology sweep — flat vs spine vs rail cluster fabrics (beyond the paper).

The paper's testbed is a single server; the cluster extension models the
network explicitly, and this benchmark quantifies what the wiring costs:
the same halo-heavy GCN epoch runs on 2 and 4 nodes under the ideal
non-blocking ``flat`` switch, an oversubscribed ``spine`` core, and a
``rail``-optimized fabric, under both overlap policies' makespans.

Expected shape: ``flat`` lower-bounds every fabric; ``spine`` at
oversubscription 1 reproduces it exactly (float-identical) while
oversubscription > 1 is strictly slower (the acceptance contract of the
topology model); ``rail`` sits near flat when per-GPU halo traffic is
balanced. A second table demonstrates the net-aware Algorithm 4 objective:
on a self-staging communication mode the net-aware reorganization ships
measurably fewer cross-node halo bytes through the executor than the
paper's net-blind greedy.

The ``smoke`` variants run a tiny graph so CI can exercise all three
topologies in seconds.
"""

import numpy as np

from repro.autograd import SGD
from repro.bench import render_table
from repro.comm import (
    ClusterCostModel,
    CommCostModel,
    DedupCommunicator,
    build_comm_plan,
    reorganize_partition,
)
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    EventTimeline,
    MultiGPUPlatform,
    NetworkTopology,
)
from repro.partition import two_level_partition

from benchmarks._common import BENCH_SCALE, emit, emit_json, paper_model

DATASET = "reddit_sim"
NODE_COUNTS = [2, 4]
HIDDEN = 64
NUM_CHUNKS = 4
OVERSUBSCRIPTION = 4.0

TOPOLOGIES = [
    ("flat", NetworkTopology("flat")),
    ("spine 1x", NetworkTopology("spine", oversubscription=1.0)),
    (f"spine {OVERSUBSCRIPTION:.0f}x",
     NetworkTopology("spine", oversubscription=OVERSUBSCRIPTION)),
    ("rail", NetworkTopology("rail")),
]


def run_sweep(scale=BENCH_SCALE, node_counts=NODE_COUNTS):
    graph = load_dataset(DATASET, scale=scale, seed=1)
    results = {}
    for nodes in node_counts:
        for name, topology in TOPOLOGIES:
            for overlap in ("barrier", "pipeline"):
                cluster = A100_CLUSTER.with_num_nodes(nodes) \
                    .with_topology(topology)
                platform = ClusterPlatform(cluster)
                model = paper_model("gcn", graph, 2, HIDDEN, seed=7)
                trainer = HongTuTrainer(
                    graph, model, platform,
                    HongTuConfig(num_chunks=NUM_CHUNKS, overlap=overlap,
                                 seed=0),
                    optimizer=SGD(model.parameters(), lr=0.02),
                )
                result = trainer.train_epoch()
                result.timeline.validate()
                results[(nodes, name, overlap)] = result.epoch_seconds
    return results


def build_sweep_table(results, node_counts=NODE_COUNTS):
    rows = []
    for nodes in node_counts:
        for name, _topology in TOPOLOGIES:
            barrier = results[(nodes, name, "barrier")]
            pipeline = results[(nodes, name, "pipeline")]
            flat = results[(nodes, "flat", "pipeline")]
            rows.append([
                f"{nodes}x4 GPUs", name, f"{barrier:.6f}",
                f"{pipeline:.6f}", f"{pipeline / flat:.2f}x",
            ])
    return render_table(
        ["Cluster", "topology", "barrier s", "pipeline s", "vs flat"],
        rows,
        title=f"Topology sweep ({DATASET}, GCN): epoch seconds per fabric",
    )


def check_sweep(results, node_counts=NODE_COUNTS):
    over = f"spine {OVERSUBSCRIPTION:.0f}x"
    for nodes in node_counts:
        for overlap in ("barrier", "pipeline"):
            flat = results[(nodes, "flat", overlap)]
            # A non-blocking spine is the flat network, bit for bit.
            assert results[(nodes, "spine 1x", overlap)] == flat
            # An oversubscribed core is strictly slower on halo traffic.
            assert results[(nodes, over, overlap)] > flat


def bench_topology_sweep(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("topology_sweep", build_sweep_table(results))
    check_sweep(results)


# ----------------------------------------------------------------------
# net-aware reorganization: measured halo bytes, blind vs aware
# ----------------------------------------------------------------------
def measure_halo_bytes(partition, platform, dim=HIDDEN):
    """Executor-measured cross-node bytes of one forward+backward sweep
    under self-staging (the Baseline/+RU ladder rung, where staging
    reuse controls the network)."""
    plan = build_comm_plan(partition, dedup_inter=False, dedup_intra=True)
    comm = DedupCommunicator(plan, platform, 4)
    host = np.zeros((partition.graph.num_vertices, dim))
    grads = np.zeros_like(host)
    clock = EventTimeline(barrier_all=True)
    comm.start_sweep(dim)
    for j in range(plan.num_batches):
        outputs = comm.load_batch_forward(j, host, clock)
        comm.accumulate_batch_backward(
            j, [out.copy() for out in outputs], grads, clock)
    comm.end_sweep()
    return clock.bytes_view()["net"]


def run_reorg(scale=BENCH_SCALE, nodes=2):
    graph = load_dataset(DATASET, scale=scale, seed=3)
    partition = two_level_partition(graph, 4 * nodes, NUM_CHUNKS, seed=0)
    platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(nodes))
    cost_model = CommCostModel.from_platform(MultiGPUPlatform(A100_SERVER))
    cluster_model = ClusterCostModel.from_cluster(platform.cluster)
    row_bytes = HIDDEN * 4
    blind = reorganize_partition(partition, cost_model, row_bytes)
    aware = reorganize_partition(partition, cost_model, row_bytes,
                                 cluster_model=cluster_model,
                                 num_nodes=nodes)
    return {
        "original": measure_halo_bytes(partition, platform),
        "net-blind greedy": measure_halo_bytes(blind.partition, platform),
        "net-aware greedy": measure_halo_bytes(aware.partition, platform),
        "predicted rows saved": aware.predicted_net_rows_saved,
    }


def build_reorg_table(measured):
    baseline = measured["net-blind greedy"]
    rows = [
        [name, f"{nbytes:,}",
         f"{(baseline - nbytes) / baseline:+.1%}" if baseline else "-"]
        for name, nbytes in measured.items()
        if name != "predicted rows saved"
    ]
    return render_table(
        ["layout", "measured cross-node halo bytes", "vs net-blind"],
        rows,
        title=f"Net-aware Algorithm 4 ({DATASET}, 2 nodes, self-staging "
              f"sweep; predicted rows saved: "
              f"{measured['predicted rows saved']})",
    )


def bench_topology_reorg_net(benchmark):
    measured = benchmark.pedantic(run_reorg, rounds=1, iterations=1)
    emit("topology_reorg_net", build_reorg_table(measured))
    # Acceptance: the net-aware objective ships strictly fewer bytes than
    # the net-blind heuristic, and never more than the original layout.
    assert measured["net-aware greedy"] < measured["net-blind greedy"]
    assert measured["net-aware greedy"] <= measured["original"]


# ----------------------------------------------------------------------
# CI smoke: tiny graph, 2 nodes, all three topologies
# ----------------------------------------------------------------------
def bench_topology_smoke(benchmark):
    results = benchmark.pedantic(
        run_sweep, kwargs={"scale": 0.08, "node_counts": [2]},
        rounds=1, iterations=1)
    emit("topology_smoke", build_sweep_table(results, node_counts=[2]))
    metrics = {
        f"{name.replace(' ', '_')}_{overlap}_seconds": seconds
        for (nodes, name, overlap), seconds in results.items()
        if nodes == 2
    }
    emit_json("topology_smoke", metrics)
    check_sweep(results, node_counts=[2])
