"""Tune the deduplicated communication framework for a workload.

Run with:  python examples/communication_tuning.py

Walks through the paper's §5 pipeline on a social-network stand-in:

1. measure the duplication volumes (V_ori / V+p2p / V+ru) of a 2-level
   partition;
2. price them with the Eq. 4 cost model on two interconnects (NVLink vs
   PCIe-only);
3. run Algorithm 4 reorganization under cost-model guidance;
4. train one epoch per communication mode and compare measured traffic.
"""

import time

from repro.bench import format_bytes, format_seconds, render_table
from repro.comm import measure_volumes, reorganize_partition
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import (
    A100_SERVER,
    PCIE_ONLY_SERVER,
    MultiGPUPlatform,
)
from repro.partition import two_level_partition
from repro.scenario import ClusterArgs


def main() -> None:
    graph = load_dataset("friendster_sim", scale=0.4, seed=0)
    print(f"graph: {graph}")

    # --- 1. duplication analysis -------------------------------------
    partition = two_level_partition(graph, 4, 12, seed=0)
    volumes = measure_volumes(partition)
    normalized = volumes.normalized()
    print("\nduplication volumes (vertex rows / |V|):")
    print(f"  vanilla (V_ori)          : {normalized['v_ori']:.2f}")
    print(f"  -> inter-GPU dedup saves : {normalized['inter_gpu_dedup']:.2f}")
    print(f"  -> intra-GPU reuse saves : {normalized['intra_gpu_dedup']:.2f}")
    print(f"  host traffic kept (V+ru) : {normalized['v_ru']:.2f}")
    print(f"  reduction                : {volumes.reduction_fraction:.0%}")

    # --- 2. price it on two interconnects ------------------------------
    row_bytes = 128 * 4
    for spec in (A100_SERVER, PCIE_ONLY_SERVER):
        platform = MultiGPUPlatform(spec, numa_aware=True)
        dedup = platform.dedup_seconds(volumes, row_bytes)
        vanilla = platform.h2d_seconds(volumes.v_ori * row_bytes)
        print(f"\n{spec.name}: Eq.4 cost {format_seconds(dedup)} vs vanilla "
              f"{format_seconds(vanilla)}  ({vanilla / dedup:.2f}x)")

    # --- 3. cost-guided reorganization ---------------------------------
    started = time.perf_counter()
    outcome = reorganize_partition(partition, MultiGPUPlatform(A100_SERVER),
                                   row_bytes)
    preprocessing = time.perf_counter() - started
    print(f"\nAlgorithm 4: cost {format_seconds(outcome.cost_before)} -> "
          f"{format_seconds(outcome.cost_after)} "
          f"(kept original: {outcome.kept_original}, "
          f"preprocessing {preprocessing * 1e3:.1f} ms wall)")

    # --- 4. train one epoch per communication mode ----------------------
    rows = []
    for mode in ["baseline", "p2p", "ru", "hongtu"]:
        model = ClusterArgs(hidden_dim=128, seed=1).build_model(graph)
        trainer = HongTuTrainer(
            graph, model, MultiGPUPlatform(A100_SERVER),
            HongTuConfig(num_chunks=12, comm_mode=mode, seed=0),
        )
        result = trainer.train_epoch()
        rows.append([
            mode,
            format_seconds(result.epoch_seconds),
            format_bytes(result.h2d_bytes),
            format_bytes(result.d2h_bytes),
            format_bytes(result.d2d_bytes),
        ])
    print()
    print(render_table(
        ["comm mode", "epoch time", "host->GPU bytes", "GPU->host bytes",
         "GPU<->GPU bytes"],
        rows,
        title="one GCN epoch per communication mode",
    ))


if __name__ == "__main__":
    main()
