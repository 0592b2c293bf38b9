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
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

from benchmarks._common import (
    BENCH_SCALE,
    TABLE8_CHUNKS,
    emit,
    paper_model,
    table8_claims,
    table8_volumes,
)

PAPER_ROWS = {
    "it2004_sim": "paper: 1.6 | 0.26 (16.2%) | 0.15 (9.2%)",
    "papers_sim": "paper: 8.5 | 0.77 (9.0%) | 4.1 (48.3%)",
    "friendster_sim": "paper: 10.7 | 2.50 (23.3%) | 5.09 (47.6%)",
}


def build_table(results):
    rows = []
    for dataset, chunks in TABLE8_CHUNKS.items():
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
    for dataset, chunks in TABLE8_CHUNKS.items():
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
    for dataset, chunks in TABLE8_CHUNKS.items():
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
    results = benchmark.pedantic(table8_volumes, args=(BENCH_SCALE,),
                                 rounds=1, iterations=1)
    emit("table8_dedup_volume", build_table(results))
    traffic = measure_executed_traffic()
    emit("table8_executed_traffic", build_traffic_table(traffic))
    for dataset in TABLE8_CHUNKS:
        # The directional split must be real: both directions carry bytes,
        # and their sum is the pre-split combined figure.
        result = traffic[dataset]
        assert result.h2d_bytes > 0 and result.d2h_bytes > 0
        assert result.pcie_bytes == result.h2d_bytes + result.d2h_bytes

    claims = table8_claims(results)
    assert all(claims.values()), \
        [name for name, held in claims.items() if not held]
