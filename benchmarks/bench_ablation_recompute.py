"""Ablation — recomputation-caching-hybrid vs pure recomputation (§4.2).

Runs GCN (cacheable aggregate) and GAT (non-cacheable) under both
intermediate-data policies and reports epoch time, host-GPU traffic and GPU
kernel time.

Expected shape: for GCN the hybrid policy removes the backward re-gather of
the neighbor set (big H2D saving under the vanilla transfer pattern) and
the O(|E|) re-aggregation kernels; for GAT the two policies coincide —
HongTu falls back to recomputation because caching O(|E|) attention
intermediates would cost more than recomputing them.
"""

from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

from benchmarks._common import BENCH_SCALE, emit, paper_model

DATASET = "papers_sim"
CHUNKS = 12
HIDDEN = 128


def run_policy(arch, policy, comm_mode="baseline"):
    graph = load_dataset(DATASET, scale=BENCH_SCALE)
    model = paper_model(arch, graph, 3, HIDDEN, seed=1)
    trainer = HongTuTrainer(
        graph, model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=CHUNKS, intermediate_policy=policy,
                     comm_mode=comm_mode, seed=0),
    )
    return trainer.train_epoch()


def run_all():
    results = {}
    for arch in ["gcn", "gat"]:
        for policy in ["hybrid", "recompute"]:
            results[(arch, policy)] = run_policy(arch, policy)
    return results


def build_table(results):
    rows = []
    for (arch, policy), result in results.items():
        rows.append([
            arch, policy,
            f"{result.epoch_seconds:.5f}",
            f"{result.h2d_bytes}",
            f"{result.d2h_bytes}",
            f"{result.clock.seconds['gpu']:.6f}",
        ])
    return render_table(
        ["Arch", "Policy", "Epoch s", "H2D bytes", "D2H bytes", "GPU s"],
        rows,
        title="Ablation: recomputation-caching-hybrid vs pure recompute "
              "(vanilla transfers, 3 layers)",
    )


def bench_ablation_recompute(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("ablation_recompute", build_table(results))

    gcn_hybrid = results[("gcn", "hybrid")]
    gcn_recompute = results[("gcn", "recompute")]
    # Caching saves both traffic and kernels for the cacheable model.
    assert gcn_hybrid.h2d_bytes < gcn_recompute.h2d_bytes
    assert gcn_hybrid.clock.seconds["gpu"] < \
        gcn_recompute.clock.seconds["gpu"]
    assert gcn_hybrid.epoch_seconds < gcn_recompute.epoch_seconds

    # Hybrid writes checkpoints back to the host, but its D2H stays within
    # the writeback volume both policies already pay.
    assert gcn_hybrid.d2h_bytes >= gcn_recompute.d2h_bytes

    # GAT falls back to recomputation either way: identical numbers.
    gat_hybrid = results[("gat", "hybrid")]
    gat_recompute = results[("gat", "recompute")]
    assert gat_hybrid.h2d_bytes == gat_recompute.h2d_bytes
    assert gat_hybrid.d2h_bytes == gat_recompute.d2h_bytes
    assert abs(gat_hybrid.epoch_seconds
               - gat_recompute.epoch_seconds) < 1e-12
