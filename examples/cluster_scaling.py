"""Walk Table 7's cluster comparison on the simulated event timeline.

Run with:  python examples/cluster_scaling.py

The paper compares one 4-GPU server against a 16-node CPU cluster running
DistGNN (Table 7) and stops there: multi-server HongTu is future work.
This walkthrough runs that comparison — and the scale-out axis beyond it —
on the shared event-timeline runtime:

1. price the inter-node collectives (ring vs tree all-reduce, halo
   exchange) from the platform's rate table;
2. inspect the halo a 2-node partition must exchange per layer sweep;
3. run DistGNN on 1 and 16 CPU nodes as a per-layer BSP task DAG;
4. run HongTu on one 4-GPU server and on a 2x4-GPU cluster, barrier vs
   pipeline, and read the network time straight off the timeline.
"""


from repro.baselines import DistGNNSimulator
from repro.bench import (
    format_bytes,
    format_seconds,
    render_node_utilization,
    render_table,
)
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    CPU_NODE,
    ClusterPlatform,
)
from repro.partition import halo_volumes, two_level_partition
from repro.scenario import ClusterArgs


def main() -> None:
    graph = load_dataset("papers_sim", scale=0.25, seed=0)
    print(f"graph: {graph}")

    # --- 1. collective costs ------------------------------------------
    # The platform prices its own network from one rate table: the
    # predicted collectives and the simulated net tasks read the same
    # link rates.
    fleet = ClusterPlatform(A100_CLUSTER)
    payload = 4 * 1024 * 1024  # a 4 MB gradient payload
    message = fleet.cluster.network_latency + payload / fleet.link_rate()
    print("\ninter-node collectives on "
          f"{A100_CLUSTER.name} ({format_bytes(payload)} payload):")
    print(f"  ring all-reduce : "
          f"{format_seconds(fleet.allreduce_seconds(payload, 'ring'))}")
    print(f"  tree all-reduce : "
          f"{format_seconds(fleet.allreduce_seconds(payload, 'tree'))}")
    print(f"  halo message    : {format_seconds(message)}")

    # --- 2. halo analysis of a 2-node partition ------------------------
    partition = two_level_partition(graph, 8, 8, seed=0)
    halo = halo_volumes(partition, num_nodes=2)
    print("\nhalo rows per layer sweep (2 nodes x 4 GPUs):")
    for src in range(2):
        for dst in range(2):
            if src != dst:
                print(f"  node{src} -> node{dst}: {halo[src, dst]:,} rows")

    # --- 3. DistGNN on the timeline ------------------------------------
    rows = []
    for nodes in (1, 16):
        model = ClusterArgs(hidden_dim=128, seed=1).build_model(graph)
        simulator = DistGNNSimulator(graph, model,
                                     CPU_NODE.with_num_nodes(nodes))
        result = simulator.train_epoch()
        assert result.epoch_seconds == result.timeline.makespan
        rows.append([
            f"DistGNN {nodes} CPU node(s)",
            format_seconds(result.epoch_seconds),
            format_seconds(result.clock.seconds["net"]),
        ])

    # --- 4. HongTu: one server vs a 2-node cluster ---------------------
    last = None
    for nodes, overlap in ((1, "barrier"), (2, "barrier"), (2, "pipeline")):
        model = ClusterArgs(hidden_dim=128, seed=1).build_model(graph)
        # One platform class: a server is a one-node cluster, priced
        # bit-identically to MultiGPUPlatform(A100_SERVER).
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(nodes))
        trainer = HongTuTrainer(
            graph, model, platform,
            HongTuConfig(num_chunks=8, seed=0, overlap=overlap),
        )
        result = trainer.train_epoch()
        rows.append([
            f"HongTu {nodes}x4 GPUs, {overlap}",
            format_seconds(result.epoch_seconds),
            format_seconds(result.clock.seconds["net"]),
        ])
        if nodes == 2:
            last = (result, platform)

    print()
    print(render_table(
        ["system", "epoch (timeline makespan)", "net (serialized)"],
        rows,
        title="Table 7 on one runtime: CPU cluster vs GPU server vs "
              "GPU cluster",
    ))

    result, platform = last
    print()
    print(render_node_utilization(
        result.timeline, platform,
        title="HongTu 2x4 pipeline: per-node busy seconds"))
    print(f"\nhalo + all-reduce traffic: {format_bytes(result.net_bytes)}; "
          f"overlap hid "
          f"{format_seconds(result.timeline.overlap_saving())} "
          "of serialized phase time")


if __name__ == "__main__":
    main()
