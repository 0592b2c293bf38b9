"""Ablation — cost-model-guided subgraph reorganization (Algorithm 4).

Starts from a deliberately shuffled chunk schedule (destroying the
range-order locality of the initial partition), then measures the host-GPU
volume and the Eq. 4 cost with and without reorganization.

Expected shape: Algorithm 4 recovers (most of) the locality — lower V⁺ru
and lower Eq. 4 cost than the shuffled schedule — and the cost-model guard
never adopts a layout worse than its input.
"""

import numpy as np

from repro.bench import render_table
from repro.comm import measure_volumes, reorganize_partition
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform
from repro.partition import two_level_partition

from benchmarks._common import BENCH_SCALE, emit

DATASETS = ["it2004_sim", "papers_sim", "friendster_sim"]
CHUNKS = 12
ROW_BYTES = 128 * 4


def shuffled_partition(dataset):
    graph = load_dataset(dataset, scale=BENCH_SCALE)
    partition = two_level_partition(graph, 4, CHUNKS, seed=0)
    rng = np.random.default_rng(13)
    for i, row in enumerate(partition.chunks):
        partition.chunks[i] = [row[k] for k in rng.permutation(len(row))]
    return partition


def run_ablation():
    server = MultiGPUPlatform(A100_SERVER)
    results = {}
    for dataset in DATASETS:
        partition = shuffled_partition(dataset)
        before_volumes = measure_volumes(partition)
        before_cost = server.dedup_seconds(before_volumes, ROW_BYTES)
        outcome = reorganize_partition(partition, server, ROW_BYTES)
        after_volumes = measure_volumes(outcome.partition)
        after_cost = server.dedup_seconds(after_volumes, ROW_BYTES)
        results[dataset] = {
            "before_vru": before_volumes.v_ru,
            "after_vru": after_volumes.v_ru,
            "before_cost": before_cost,
            "after_cost": after_cost,
            "kept_original": outcome.kept_original,
        }
    return results


def build_table(results):
    rows = []
    for dataset in DATASETS:
        r = results[dataset]
        rows.append([
            dataset,
            r["before_vru"], r["after_vru"],
            f"{r['before_cost'] * 1e6:.1f}us", f"{r['after_cost'] * 1e6:.1f}us",
            f"{100 * (1 - r['after_cost'] / r['before_cost']):.1f}%",
            r["kept_original"],
        ])
    return render_table(
        ["Dataset", "V+ru before", "V+ru after", "Eq.4 before",
         "Eq.4 after", "cost saved", "kept original"],
        rows,
        title="Ablation: Algorithm 4 reorganization on a shuffled schedule",
    )


def bench_ablation_reorg(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit("ablation_reorg", build_table(results))
    for dataset in DATASETS:
        r = results[dataset]
        assert r["after_cost"] <= r["before_cost"] + 1e-12
    # At least one graph must show a real recovery, not just the guard.
    assert any(results[d]["after_cost"] < 0.95 * results[d]["before_cost"]
               for d in DATASETS)
