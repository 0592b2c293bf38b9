"""Table 8 — decomposition of the duplicated neighbor-access volume.

For the three large graphs, measures V_ori, the inter-GPU dedup share
(V_ori − V⁺p2p) and the intra-GPU reuse share (V⁺p2p − V⁺ru), all
normalized by |V|, under the per-graph chunk counts of §7.1.

Expected shape (paper): total host-GPU traffic drops 25-71 %;
ogbn-paper benefits mostly from *intra*-GPU reuse (48.3 % of volume —
co-author locality), while the web graph's low replication leaves less to
deduplicate in absolute terms.
"""

from repro.bench import format_bytes, render_table
from repro.comm import measure_volumes, reorganize_partition
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform
from repro.partition import two_level_partition

from benchmarks._common import BENCH_SCALE, emit, paper_model

#: chunks per partition, scaled from the paper's 8/32/32 (GCN column)
CONFIGS = [("it2004_sim", 8), ("papers_sim", 16), ("friendster_sim", 16)]

PAPER_ROWS = {
    "it2004_sim": "paper: 1.6 | 0.26 (16.2%) | 0.15 (9.2%)",
    "papers_sim": "paper: 8.5 | 0.77 (9.0%) | 4.1 (48.3%)",
    "friendster_sim": "paper: 10.7 | 2.50 (23.3%) | 5.09 (47.6%)",
}


def measure():
    results = {}
    for dataset, chunks in CONFIGS:
        graph = load_dataset(dataset, scale=BENCH_SCALE)
        partition = two_level_partition(graph, 4, chunks, seed=0)
        partition = reorganize_partition(partition).partition
        results[dataset] = measure_volumes(partition)
    return results


def build_table(results):
    rows = []
    for dataset, chunks in CONFIGS:
        volumes = results[dataset]
        normalized = volumes.normalized()
        inter_pct = 100 * volumes.inter_gpu_dedup / volumes.v_ori
        intra_pct = 100 * volumes.intra_gpu_dedup / volumes.v_ori
        rows.append([
            dataset, chunks,
            f"{normalized['v_ori']:.2f}",
            f"{normalized['inter_gpu_dedup']:.2f} ({inter_pct:.1f}%)",
            f"{normalized['intra_gpu_dedup']:.2f} ({intra_pct:.1f}%)",
            f"{100 * volumes.reduction_fraction:.0f}%",
            PAPER_ROWS[dataset],
        ])
    return render_table(
        ["Dataset", "Chunks", "V_ori/|V|", "(V_ori-V+p2p)/|V|",
         "(V+p2p-V+ru)/|V|", "total reduction", "paper values"],
        rows,
        title="Table 8: duplicated-access volume decomposition",
    )


def measure_executed_traffic():
    """Per-epoch executed bytes with the H2D/D2H directions split out."""
    results = {}
    for dataset, chunks in CONFIGS:
        graph = load_dataset(dataset, scale=BENCH_SCALE)
        model = paper_model("gcn", graph, 2, 128, seed=1)
        trainer = HongTuTrainer(
            graph, model, MultiGPUPlatform(A100_SERVER),
            HongTuConfig(num_chunks=chunks, seed=0),
        )
        results[dataset] = trainer.train_epoch()
    return results


def build_traffic_table(results):
    rows = []
    for dataset, chunks in CONFIGS:
        result = results[dataset]
        rows.append([
            dataset, chunks,
            format_bytes(result.h2d_bytes),
            format_bytes(result.d2h_bytes),
            format_bytes(result.d2d_bytes),
        ])
    return render_table(
        ["Dataset", "Chunks", "host->GPU", "GPU->host", "GPU<->GPU"],
        rows,
        title="Executed per-epoch traffic (GCN, 2 layers, full HongTu)",
    )


def bench_table8_dedup_volume(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("table8_dedup_volume", build_table(results))
    traffic = measure_executed_traffic()
    emit("table8_executed_traffic", build_traffic_table(traffic))
    for dataset, _ in CONFIGS:
        # The directional split must be real: both directions carry bytes,
        # and their sum is the pre-split combined figure.
        result = traffic[dataset]
        assert result.h2d_bytes > 0 and result.d2h_bytes > 0
        assert result.pcie_bytes == result.h2d_bytes + result.d2h_bytes

    for dataset, _ in CONFIGS:
        volumes = results[dataset]
        # The paper's headline: 25-71 % of host-GPU rows eliminated. Allow a
        # slightly wider floor at stand-in scale.
        assert volumes.reduction_fraction > 0.20
        assert volumes.v_ori > volumes.v_p2p > volumes.v_ru
    # Locality-rich citation graph leans on intra-GPU reuse more than the
    # web graph does in absolute normalized volume.
    assert results["papers_sim"].intra_gpu_dedup / \
        results["papers_sim"].num_vertices > \
        results["it2004_sim"].intra_gpu_dedup / \
        results["it2004_sim"].num_vertices
