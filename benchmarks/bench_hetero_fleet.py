"""Mixed-generation fleet: capability-aware vs capability-blind placement.

The heterogeneous-fleet refactor threads per-node capability profiles
(:data:`repro.hardware.spec.NODE_SPECS`) through the cost model, the
placement search and the trainer. This benchmark measures the piece that
justifies the plumbing: on a 2:1 mixed fleet (two A100 nodes, one
previous-generation V100 node) a placement search that *sees* the
per-node compute rates should beat one that only minimizes cross-node
halo rows, because METIS vertex-balanced partitions of a power-law graph
have skewed per-partition flops — the aware search steers heavy-kernel
partitions onto the fast nodes and eats a few extra halo rows to do it.

``bench_hetero_fleet_smoke`` runs both searches on the same partition of
the ``friendster_sim`` power-law graph and asserts the capability-aware
epoch makespan strictly beats the capability-blind one; both makespans
are archived into the bench-regression harness.
"""

from repro.bench import format_seconds, render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_CLUSTER, A100_SERVER, V100_SERVER, \
    ClusterPlatform
from repro.partition import search_placement, two_level_partition

from benchmarks._common import emit, emit_json, paper_model

DATASET = "friendster_sim"
#: at larger scales METIS evens out per-partition flops and both
#: searches converge to the same assignment; 0.2 keeps the skew that
#: makes the capability question interesting.
SCALE = 0.2
HIDDEN = 128
NUM_CHUNKS = 2
NODES = 3
GPUS_PER_NODE = 2
SEED = 3


def build_fleet():
    """A 2:1 mixed-generation cluster: 2 A100 nodes + 1 V100 node."""
    a100 = A100_SERVER.with_num_gpus(GPUS_PER_NODE)
    v100 = V100_SERVER.with_num_gpus(GPUS_PER_NODE)
    return A100_CLUSTER.with_num_nodes(NODES) \
        .with_node_specs((a100, a100, v100))


def run_fleet(scale=SCALE):
    """Epoch results for blind vs aware placement on the same partition.

    Both trainers share the graph, model weights, partition and config;
    they differ only in how partitions were assigned to nodes:

    * **blind** — ``search_placement`` *without* the compute matrix
      (cross-node halo rows only; the pre-refactor objective), installed
      on the platform before the trainer is built;
    * **aware** — the trainer's ``placement="search"`` path, which on a
      heterogeneous platform prices each partition's kernels at the
      owning node's rate alongside the halo rows.
    """
    cluster = build_fleet()
    graph = load_dataset(DATASET, scale=scale, seed=2)
    num_gpus = NODES * GPUS_PER_NODE
    partition = two_level_partition(graph, num_gpus, NUM_CHUNKS, seed=SEED)

    config = HongTuConfig(num_chunks=NUM_CHUNKS, overlap="pipeline",
                          placement="block", seed=0)
    blind_platform = ClusterPlatform(cluster)
    blind = search_placement(partition, NODES)
    blind_platform.set_placement(blind.placement)
    blind_trainer = HongTuTrainer(
        graph, paper_model("gcn", graph, 2, HIDDEN, seed=7),
        blind_platform, config, partition=partition,
    )
    blind_epoch = blind_trainer.train_epoch()

    aware_platform = ClusterPlatform(cluster)
    aware_config = HongTuConfig(num_chunks=NUM_CHUNKS, overlap="pipeline",
                                placement="search", seed=0)
    aware_trainer = HongTuTrainer(
        graph, paper_model("gcn", graph, 2, HIDDEN, seed=7),
        aware_platform, aware_config, partition=partition,
    )
    aware_epoch = aware_trainer.train_epoch()
    return {
        "blind": (blind_trainer, blind_epoch, blind),
        "aware": (aware_trainer, aware_epoch,
                  aware_trainer.placement_result),
    }


def build_table(results, title):
    rows = []
    for label in ("blind", "aware"):
        trainer, epoch, placed = results[label]
        rows.append([
            label,
            str(placed.placement.tolist() if placed is not None
                else trainer.placement.tolist()),
            f"{placed.rows_search:,}" if placed is not None else "-",
            format_seconds(epoch.epoch_seconds),
        ])
    return render_table(
        ["placement", "assignment", "halo rows", "epoch makespan"],
        rows, title=title,
    )


# ----------------------------------------------------------------------
# CI smoke: capability-aware strictly beats capability-blind
# ----------------------------------------------------------------------
def check_fleet(results):
    _, blind_epoch, _ = results["blind"]
    aware_trainer, aware_epoch, _ = results["aware"]
    # The aware search saw per-node rates (the trainer built a compute
    # matrix) and its makespan must strictly beat the rows-only search.
    assert aware_trainer.fleet.compute_rows is not None
    assert aware_epoch.epoch_seconds < blind_epoch.epoch_seconds
    blind_epoch.timeline.validate()
    aware_epoch.timeline.validate()


def bench_hetero_fleet_smoke(benchmark):
    results = benchmark.pedantic(run_fleet, kwargs={"scale": SCALE},
                                 rounds=1, iterations=1)
    emit("hetero_fleet_smoke", build_table(
        results,
        title=f"Heterogeneous fleet smoke ({DATASET}, 2xA100 + 1xV100 "
              f"nodes, {GPUS_PER_NODE} GPUs each)",
    ))
    emit_json("hetero_fleet_smoke", {
        "blind_makespan_seconds": results["blind"][1].epoch_seconds,
        "aware_makespan_seconds": results["aware"][1].epoch_seconds,
    })
    check_fleet(results)

