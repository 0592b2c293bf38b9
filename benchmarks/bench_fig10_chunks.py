"""Figure 10 — runtime and memory versus chunk count.

Runs GCN on each large graph with the initial chunk count of §7.1, then 2x,
3x and 4x as many chunks, reporting per-epoch time and peak GPU memory
normalized to the initial configuration.

Expected shape (paper): 4x chunks cut memory by 51-65 % while runtime grows
1.5-2.2x, sublinearly — memory trades against (mostly) communication time.
"""

from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

from benchmarks._common import BENCH_SCALE, emit, paper_model

#: initial chunk counts (paper: IT=8, OPR=32, FDS=32; scaled to stand-ins)
INITIAL = {"it2004_sim": 4, "papers_sim": 8, "friendster_sim": 8}
MULTIPLIERS = [1, 2, 3, 4]
HIDDEN = 128


def run_sweep():
    results = {}
    for dataset, initial in INITIAL.items():
        graph = load_dataset(dataset, scale=BENCH_SCALE)
        for multiplier in MULTIPLIERS:
            model = paper_model("gcn", graph, 3, HIDDEN, seed=1)
            platform = MultiGPUPlatform(A100_SERVER)
            trainer = HongTuTrainer(
                graph, model, platform,
                HongTuConfig(num_chunks=initial * multiplier, seed=0),
            )
            result = trainer.train_epoch()
            results[(dataset, multiplier)] = (
                result.epoch_seconds, result.peak_gpu_bytes
            )
    return results


def build_table(results):
    rows = []
    for dataset, initial in INITIAL.items():
        base_time, base_memory = results[(dataset, 1)]
        for multiplier in MULTIPLIERS:
            seconds, peak = results[(dataset, multiplier)]
            rows.append([
                dataset, f"{multiplier}x ({initial * multiplier})",
                f"{seconds / base_time:.2f}",
                f"{peak / base_memory:.2f}",
            ])
    return render_table(
        ["Dataset", "Chunks", "Normalized runtime", "Normalized memory"],
        rows,
        title="Figure 10: runtime and peak GPU memory vs chunk count "
              "(normalized to the initial configuration)",
    )


def bench_fig10_chunks(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("fig10_chunks", build_table(results))

    for dataset in INITIAL:
        base_time, base_memory = results[(dataset, 1)]
        time_4x, memory_4x = results[(dataset, 4)]
        # Memory shrinks substantially (paper: 51-65 %)...
        assert memory_4x < 0.75 * base_memory
        # ...while runtime grows, but sublinearly in the chunk multiplier.
        assert base_time < time_4x < 4 * base_time
        # Monotone trends along the sweep.
        memories = [results[(dataset, m)][1] for m in MULTIPLIERS]
        assert all(b <= a for a, b in zip(memories, memories[1:]))
