"""Table 9 — cost of communication deduplication.

Compares 100-epoch 2-layer GCN runtime with and without the communication
deduplication (CD) machinery, plus the one-off preprocessing time of the
cost-model-guided reorganization + plan construction.

Expected shape (paper): CD speeds up 100-epoch training by ~1.4-4x while
preprocessing adds ~1 % — it runs once, the epochs repeat.
"""

import time

from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

from benchmarks._common import BENCH_SCALE, emit, paper_model

CONFIGS = [("it2004_sim", 8), ("papers_sim", 16), ("friendster_sim", 16)]
EPOCHS = 100
HIDDEN = 128


def run_config(dataset, chunks):
    graph = load_dataset(dataset, scale=BENCH_SCALE)

    def epoch_seconds(comm_mode, reorganize):
        model = paper_model("gcn", graph, 2, HIDDEN, seed=1)
        started = time.perf_counter()
        trainer = HongTuTrainer(
            graph, model, MultiGPUPlatform(A100_SERVER),
            HongTuConfig(num_chunks=chunks, comm_mode=comm_mode,
                         reorganize=reorganize, seed=0),
        )
        preprocessing = time.perf_counter() - started
        result = trainer.train_epoch()
        return result.epoch_seconds, preprocessing

    without_cd, _ = epoch_seconds("baseline", reorganize=False)
    with_cd, preprocessing = epoch_seconds("hongtu", reorganize=True)
    return {
        "without_cd_100ep": without_cd * EPOCHS,
        "with_cd_100ep": with_cd * EPOCHS,
        "preprocessing": preprocessing,
    }


def run_all():
    return {dataset: run_config(dataset, chunks)
            for dataset, chunks in CONFIGS}


def build_table(results):
    rows = []
    for dataset, _ in CONFIGS:
        r = results[dataset]
        speedup = r["without_cd_100ep"] / max(r["with_cd_100ep"], 1e-12)
        rows.append([
            dataset,
            f"{r['without_cd_100ep']:.4f}",
            f"{r['with_cd_100ep']:.4f}",
            f"{speedup:.2f}x",
            f"+{r['preprocessing']:.3f}s wall, once",
        ])
    return render_table(
        ["Dataset", "100-epoch w/o CD (s)", "100-epoch w/ CD (s)",
         "CD speedup", "Preprocessing"],
        rows,
        title="Table 9: cost of communication deduplication "
              "(2-layer GCN, 100 epochs). Epoch columns are simulated "
              "seconds; preprocessing is one-off measured wall time of the "
              "Python reorganizer + planner (the paper's C++ preprocessing "
              "adds <=1.5% of its 100-epoch runtime).",
    )


def bench_table9_preprocess(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("table9_preprocess", build_table(results))
    for dataset, _ in CONFIGS:
        r = results[dataset]
        # CD pays for itself across 100 epochs.
        assert r["with_cd_100ep"] < r["without_cd_100ep"]
