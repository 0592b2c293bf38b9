"""Partition-level placement search — block vs searched node assignment.

The contiguous-block partition→node map inherits whatever locality the
METIS ordering happens to have. This benchmark makes the assumption fail
on purpose: the web-crawl graph's partitions are relabeled round-robin
(``permute_partitions``), scattering each node's natural neighbors
across the cluster, and the placement search
(:func:`repro.partition.search_placement`) has to recover the grouping —
and often beat it, since METIS ordering is not partition-pair optimal.

Reported per layout (block / searched), on a 2-node spine cluster:

* predicted cross-node halo rows (fetch + load + flush, the search
  objective — strictly fewer under the searched placement),
* the executor's measured halo-fetch bytes (byte-for-byte equal to the
  ``halo_volumes`` prediction under the same placement — the
  acceptance contract), and
* the simulated epoch makespan of a full trainer run with
  ``HongTuConfig(placement=...)``.

A ``flat`` single-node run under both policies closes the table: the
search is a no-op there and the makespans must be float-identical.

The ``smoke`` variant runs a tiny scale so CI can gate on it; both
variants archive simulated metrics via ``emit_json`` for the
bench-regression harness.
"""

import numpy as np

from repro.autograd import SGD
from repro.comm import DedupCommunicator, build_comm_plan
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    MultiGPUPlatform,
    NetworkTopology,
)
from repro.partition import (
    halo_volumes,
    partition_nodes,
    permute_partitions,
    search_placement,
    two_level_partition,
)
from repro.bench import render_table

from benchmarks._common import (
    BENCH_SCALE,
    emit,
    emit_json,
    paper_model,
    sweep_timeline,
)

DATASET = "it2004_sim"  # crawl-ordered web graph: strong METIS locality
NODES = 2
GPUS_PER_NODE = 4
NUM_CHUNKS = 4
HIDDEN = 32
OVERSUBSCRIPTION = 4.0


def skew_perm(m, nodes):
    """Round-robin relabeling: each new node block hosts a stride-``m/g``
    sample of the METIS ordering instead of a contiguous run (m=8, 2
    nodes → new node 0 gets old partitions 0, 2, 4, 6)."""
    g = m // nodes
    return np.arange(m, dtype=np.int64).reshape(g, nodes).T.reshape(m)


def measured_fetch_bytes(partition, platform, dim=HIDDEN):
    """Executor-measured cross-node halo-fetch bytes of one full-dedup
    forward+backward sweep (the F term of the search objective)."""
    plan = build_comm_plan(partition, dedup_inter=True, dedup_intra=True)
    comm = DedupCommunicator(plan, platform)
    return comm.net_bytes_by_flow(sweep_timeline(comm, dim)).get(
        "halo_fetch", {})


def epoch_makespan(graph, partition, placement_policy):
    """Simulated epoch seconds of the full trainer on the spine cluster."""
    topology = NetworkTopology("spine", oversubscription=OVERSUBSCRIPTION)
    cluster = A100_CLUSTER.with_num_nodes(NODES).with_topology(topology)
    platform = ClusterPlatform(cluster, gpus_per_node=GPUS_PER_NODE)
    model = paper_model("gcn", graph, 2, HIDDEN, seed=7)
    trainer = HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=NUM_CHUNKS, overlap="pipeline",
                     placement=placement_policy, seed=0),
        optimizer=SGD(model.parameters(), lr=0.02),
        partition=partition,
    )
    result = trainer.train_epoch()
    result.timeline.validate()
    return result.epoch_seconds, trainer


def run_placement(scale=BENCH_SCALE):
    graph = load_dataset(DATASET, scale=scale, seed=5)
    m = NODES * GPUS_PER_NODE
    partition = two_level_partition(graph, m, NUM_CHUNKS, seed=0)
    skewed = permute_partitions(partition, skew_perm(m, NODES))

    searched = search_placement(skewed, NODES)

    # Byte-check: the executor must ship exactly what the model predicts,
    # per directed node pair, under both placements.
    row_bytes = HIDDEN * 4
    fetch_bytes = {}
    for name, placement in [("block", partition_nodes(m, NODES)),
                            ("searched", searched.placement)]:
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(NODES),
                                   placement=placement)
        measured = measured_fetch_bytes(skewed, platform)
        predicted = halo_volumes(skewed, NODES, placement)
        for s in range(NODES):
            for d in range(NODES):
                assert measured.get((s, d), 0) == predicted[s, d] * row_bytes
        fetch_bytes[name] = sum(measured.values())

    makespan_block, _ = epoch_makespan(graph, skewed, "block")
    makespan_search, trainer = epoch_makespan(graph, skewed, "search")
    reported = trainer.placement_result

    # Single node, flat: the search is a no-op and must change nothing.
    single = load_dataset(DATASET, scale=min(scale, 0.1), seed=5)

    def single_epoch(policy):
        model = paper_model("gcn", single, 2, HIDDEN, seed=7)
        trainer = HongTuTrainer(
            single, model, MultiGPUPlatform(A100_SERVER),
            HongTuConfig(num_chunks=NUM_CHUNKS, placement=policy, seed=0),
            optimizer=SGD(model.parameters(), lr=0.02))
        return trainer.train_epoch().epoch_seconds

    return {
        "rows_block": reported.rows_block,
        "rows_search": reported.rows_search,
        "fetch_bytes_block": fetch_bytes["block"],
        "fetch_bytes_searched": fetch_bytes["searched"],
        "makespan_block": makespan_block,
        "makespan_search": makespan_search,
        "swaps": reported.swaps,
        "single_block": single_epoch("block"),
        "single_search": single_epoch("search"),
    }


def build_table(measured):
    rows = [
        ["block", f"{measured['rows_block']:,}",
         f"{measured['fetch_bytes_block']:,}",
         f"{measured['makespan_block']:.6f}", "-"],
        ["searched", f"{measured['rows_search']:,}",
         f"{measured['fetch_bytes_searched']:,}",
         f"{measured['makespan_search']:.6f}",
         f"{measured['swaps']} swaps"],
    ]
    saved = measured["rows_block"] - measured["rows_search"]
    return render_table(
        ["placement", "predicted net rows", "measured fetch bytes",
         "epoch makespan s", "search"],
        rows,
        title=f"Placement search ({DATASET}, {NODES}x{GPUS_PER_NODE} GPUs, "
              f"spine {OVERSUBSCRIPTION:.0f}x, round-robin skew): "
              f"{saved:,} cross-node rows removed per epoch-layer",
    )


def check_placement(measured):
    # Acceptance: strictly fewer cross-node halo rows, byte-exact
    # executor agreement (asserted inside run_placement), and a no-op
    # single-node search (float-identical makespans).
    assert measured["rows_search"] < measured["rows_block"]
    assert measured["fetch_bytes_searched"] < measured["fetch_bytes_block"]
    assert measured["makespan_search"] <= measured["makespan_block"]
    assert measured["single_block"] == measured["single_search"]


def _json_metrics(measured):
    """Simulated, lower-is-better metrics for the regression harness."""
    return {
        "rows_block": measured["rows_block"],
        "rows_search": measured["rows_search"],
        "makespan_block_seconds": measured["makespan_block"],
        "makespan_search_seconds": measured["makespan_search"],
    }


def bench_placement_search(benchmark):
    # No emit_json here: JSON metrics are reserved for the benches CI
    # actually reruns (the smoke set), so a stray full-scale results
    # file can never enter the regression baseline via --update.
    measured = benchmark.pedantic(run_placement, rounds=1, iterations=1)
    emit("placement_search", build_table(measured))
    check_placement(measured)


def bench_placement_smoke(benchmark):
    measured = benchmark.pedantic(run_placement, kwargs={"scale": 0.08},
                                  rounds=1, iterations=1)
    emit("placement_smoke", build_table(measured))
    emit_json("placement_smoke", _json_metrics(measured))
    check_placement(measured)
