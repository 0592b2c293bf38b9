"""Joint placement↔schedule iteration — block vs search vs joint.

The single-pass placement search runs once, on the *pre-reorganization*
chunk schedule, and the net-aware reorganization then reorganizes under
that placement. The joint loop (:func:`repro.comm.joint_placement`)
alternates the two until the combined predicted cost (Eq. 4 + net term
+ collective legs) stops improving — so a schedule adopted for one
placement can expose placement moves the first search could not see.

Setup (same adversarial skew as ``bench_placement``): the web-crawl
graph's partitions are relabeled round-robin on a 2-node spine cluster,
and each policy trains one full epoch:

* ``block`` — contiguous placement, net-aware reorganization;
* ``search`` — single-pass search, then reorganization (PR-4 pipeline);
* ``joint`` — the alternation, never worse than ``search`` by
  construction (iteration 1 *is* the single-pass pipeline);
* ``joint ±1`` — the same loop allowed to skew node loads by one
  partition when the per-node host-memory model admits it.

Acceptance, asserted here: epoch makespans satisfy joint <= search <=
block; the executor's measured per-flow halo-fetch bytes equal the
``halo_volumes`` prediction under the joint-adopted placement
byte-for-byte; and the uneven run's placement fits the node budgets it
was given. The ``smoke`` variant archives simulated metrics via
``emit_json`` for the CI bench-regression gate.
"""

from repro.autograd import SGD
from repro.core import (
    HongTuConfig,
    HongTuTrainer,
    admits_placement,
)
from repro.graph import load_dataset
from repro.hardware import A100_CLUSTER, ClusterPlatform, NetworkTopology
from repro.partition import halo_volumes, permute_partitions, \
    two_level_partition
from repro.bench import render_table

from benchmarks._common import BENCH_SCALE, emit, emit_json, paper_model
from benchmarks.bench_placement import measured_fetch_bytes, skew_perm

DATASET = "it2004_sim"
NODES = 2
GPUS_PER_NODE = 4
NUM_CHUNKS = 4
HIDDEN = 32
OVERSUBSCRIPTION = 4.0
MAX_IMBALANCE = 1


def _cluster():
    topology = NetworkTopology("spine", oversubscription=OVERSUBSCRIPTION)
    return A100_CLUSTER.with_num_nodes(NODES).with_topology(topology)


def train_epoch(graph, partition, policy, max_imbalance=0):
    """One epoch under ``policy``; returns (makespan, trainer)."""
    platform = ClusterPlatform(_cluster(), gpus_per_node=GPUS_PER_NODE)
    model = paper_model("gcn", graph, 2, HIDDEN, seed=7)
    trainer = HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=NUM_CHUNKS, overlap="pipeline",
                     placement=policy, max_imbalance=max_imbalance,
                     seed=0),
        optimizer=SGD(model.parameters(), lr=0.02),
        partition=partition,
    )
    result = trainer.train_epoch()
    result.timeline.validate()
    return result.epoch_seconds, trainer


def run_joint(scale=BENCH_SCALE):
    graph = load_dataset(DATASET, scale=scale, seed=5)
    m = NODES * GPUS_PER_NODE
    partition = two_level_partition(graph, m, NUM_CHUNKS, seed=0)
    skewed = permute_partitions(partition, skew_perm(m, NODES))

    makespan_block, _ = train_epoch(graph, skewed, "block")
    makespan_search, search_trainer = train_epoch(graph, skewed, "search")
    makespan_joint, joint_trainer = train_epoch(graph, skewed, "joint")
    makespan_uneven, uneven_trainer = train_epoch(
        graph, skewed, "joint", max_imbalance=MAX_IMBALANCE
    )

    # Byte-contract under the joint-adopted (schedule, placement) pair:
    # the executor must ship exactly the rows the model predicted.
    placed = joint_trainer.placement_result
    adopted = joint_trainer.partition
    row_bytes = HIDDEN * 4
    platform = ClusterPlatform(_cluster(), gpus_per_node=GPUS_PER_NODE,
                               placement=placed.placement)
    measured = measured_fetch_bytes(adopted, platform)
    predicted = halo_volumes(adopted, NODES, placed.placement)
    for s in range(NODES):
        for d in range(NODES):
            assert measured.get((s, d), 0) == predicted[s, d] * row_bytes

    # The uneven run's skew must have been admitted by the host-memory
    # model against the budgets the trainer's search actually ran with
    # (recorded before any allocation, so nothing is double-counted).
    uneven_placed = uneven_trainer.placement_result
    assert admits_placement(
        uneven_placed.placement,
        uneven_trainer.fleet.partition_host_bytes,
        uneven_trainer.fleet.node_budgets,
    )

    return {
        "rows_block": placed.rows_block,
        "rows_joint": placed.rows_search,
        "rows_search": search_trainer.placement_result.rows_search,
        "rows_uneven": uneven_placed.rows_search,
        "iterations": len(placed.iterations),
        "swaps": placed.swaps,
        "moves_uneven": uneven_placed.moves,
        "uneven_counts": uneven_placed.node_counts,
        "makespan_block": makespan_block,
        "makespan_search": makespan_search,
        "makespan_joint": makespan_joint,
        "makespan_uneven": makespan_uneven,
    }


def build_table(measured):
    rows = [
        ["block", f"{measured['rows_block']:,}",
         f"{measured['makespan_block']:.6f}", "-"],
        ["search", f"{measured['rows_search']:,}",
         f"{measured['makespan_search']:.6f}", "single pass"],
        ["joint", f"{measured['rows_joint']:,}",
         f"{measured['makespan_joint']:.6f}",
         f"{measured['iterations']} iteration(s), "
         f"{measured['swaps']} swaps"],
        [f"joint ±{MAX_IMBALANCE}", f"{measured['rows_uneven']:,}",
         f"{measured['makespan_uneven']:.6f}",
         f"{measured['moves_uneven']} moves, "
         f"counts {measured['uneven_counts']}"],
    ]
    return render_table(
        ["placement", "predicted net rows", "epoch makespan s", "detail"],
        rows,
        title=f"Joint placement↔schedule iteration ({DATASET}, "
              f"{NODES}x{GPUS_PER_NODE} GPUs, spine "
              f"{OVERSUBSCRIPTION:.0f}x, round-robin skew)",
    )


def check_joint(measured):
    # Acceptance: joint never worse than the single-pass search, which
    # never beats it back to block; the byte-exactness and budget
    # admission are asserted inside run_joint.
    assert measured["makespan_joint"] <= measured["makespan_search"]
    assert measured["makespan_search"] <= measured["makespan_block"]
    assert measured["rows_joint"] <= measured["rows_block"]


def _json_metrics(measured):
    """Simulated, lower-is-better metrics for the regression harness."""
    return {
        "rows_joint": measured["rows_joint"],
        "rows_uneven": measured["rows_uneven"],
        "makespan_joint_seconds": measured["makespan_joint"],
        "makespan_uneven_seconds": measured["makespan_uneven"],
    }


def bench_joint_placement(benchmark):
    # No emit_json at full scale: JSON metrics are reserved for the
    # smoke set CI actually reruns (see bench_placement).
    measured = benchmark.pedantic(run_joint, rounds=1, iterations=1)
    emit("joint_placement", build_table(measured))
    check_joint(measured)


def bench_joint_placement_smoke(benchmark):
    measured = benchmark.pedantic(run_joint, kwargs={"scale": 0.08},
                                  rounds=1, iterations=1)
    emit("joint_placement_smoke", build_table(measured))
    emit_json("joint_placement_smoke", _json_metrics(measured))
    check_joint(measured)
