"""Walk through the paper's running example (Figures 2, 5, 6) on the toy graph.

Run with:  python examples/paper_walkthrough.py

The paper illustrates its machinery on an 8-vertex graph. This script
reproduces the walk end to end:

* Figure 2/5 — split the toy graph into 4 partitions x 2 chunks and show
  each chunk's destinations and in-neighbors;
* Figure 6(a) — count how often each vertex would cross PCIe if every
  chunk's neighbor set were transferred individually;
* Figure 6(b) — build the deduplicated plan and show the transition sets,
  the inter-GPU fetches, and the intra-GPU reuse that shrink the transfer
  count (19 -> 11 -> 8 in the paper's example);
* finally, execute the plan on real data and verify exactness.
"""

import numpy as np

from repro.comm import DedupCommunicator, build_comm_plan, measure_volumes
from repro.graph import toy_graph
from repro.hardware import A100_SERVER, EventTimeline, MultiGPUPlatform
from repro.partition import two_level_partition


def main() -> None:
    graph = toy_graph()
    print(f"toy graph (paper Fig. 2): {graph}")
    for vertex in range(graph.num_vertices):
        neighbors = graph.in_csr.row(vertex).tolist()
        print(f"  {vertex} <- {neighbors}")

    # Figure 2/5: 4 partitions (one per GPU) x 2 chunks. The paper assigns
    # two consecutive vertices per partition; we pass that split explicitly.
    assignment = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    partition = two_level_partition(graph, 4, 2, assignment=assignment)
    print("\n2-level partition (4 GPUs x 2 chunks):")
    for i, row in enumerate(partition.chunks):
        for j, chunk in enumerate(row):
            print(f"  GPU {i} batch {j}: "
                  f"dst={chunk.dst_global.tolist()} "
                  f"needs={chunk.neighbor_global.tolist()}")

    # Figure 6(a): vanilla transfer counts.
    volumes = measure_volumes(partition)
    print(f"\nvanilla host->GPU vertex transfers (V_ori): {volumes.v_ori}")
    print(f"after inter-GPU dedup      (V+p2p): {volumes.v_p2p}")
    print(f"after intra-GPU reuse       (V+ru): {volumes.v_ru}")
    print(f"host traffic eliminated: {volumes.reduction_fraction:.0%}")

    # Figure 6(b): the concrete plan.
    plan = build_comm_plan(partition)
    print("\ndeduplicated plan:")
    for j in range(plan.num_batches):
        print(f"  batch {j}:")
        # Who reads how many rows from whose transition buffer.
        segments = list(zip(*(array.tolist() for array in plan.segments(j))))
        for gpu_plan in plan.plans[j]:
            loads = gpu_plan.load_vertices.tolist()
            reused = gpu_plan.transition[gpu_plan.reuse_mask].tolist()
            fetches = {
                source: rows for reader, source, rows in segments
                if reader == gpu_plan.gpu and source != reader
            }
            print(f"    GPU {gpu_plan.gpu}: stages {loads} from host"
                  f"{', reuses ' + str(reused) + ' in place' if reused else ''}"
                  f"{', fetches ' + str(fetches) + ' rows via P2P' if fetches else ''}")

    # Execute the plan on real vertex data and verify exactness.
    platform = MultiGPUPlatform(A100_SERVER)
    comm = DedupCommunicator(plan, platform)
    clock = EventTimeline(barrier_all=True)
    host = np.arange(8, dtype=np.float64).reshape(8, 1) * 10.0
    comm.start_sweep(1)
    exact = True
    for j in range(plan.num_batches):
        outputs = comm.load_batch_forward(j, host, clock)
        for i, out in enumerate(outputs):
            expected = host[plan.plans[j][i].needed]
            exact &= bool(np.array_equal(out, expected))
    comm.end_sweep()
    print(f"\nexecuted plan delivers exact neighbor data: {exact}")
    loaded_rows = comm.bytes_moved["h2d"] // (1 * 4)
    print(f"host rows actually moved: {loaded_rows} (== V+ru = {volumes.v_ru})")


if __name__ == "__main__":
    main()
