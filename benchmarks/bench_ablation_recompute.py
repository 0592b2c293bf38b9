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

from benchmarks._common import (
    BENCH_SCALE,
    ablation_recompute_claims,
    emit,
    paper_model,
)

DATASET = "papers_sim"
CHUNKS = 12
HIDDEN = 128


def run_policy(arch, policy, scale=BENCH_SCALE, hidden=HIDDEN,
               chunks=CHUNKS, comm_mode="baseline"):
    graph = load_dataset(DATASET, scale=scale)
    model = paper_model(arch, graph, 3, hidden, seed=1)
    trainer = HongTuTrainer(
        graph, model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=chunks, intermediate_policy=policy,
                     comm_mode=comm_mode, seed=0),
    )
    return trainer.train_epoch()


def run_all(scale=BENCH_SCALE, hidden=HIDDEN, chunks=CHUNKS):
    results = {}
    for arch in ["gcn", "gat"]:
        for policy in ["hybrid", "recompute"]:
            results[(arch, policy)] = run_policy(arch, policy, scale, hidden,
                                                 chunks)
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
    failed = [name for name, held in
              ablation_recompute_claims(results).items() if not held]
    assert not failed, failed
