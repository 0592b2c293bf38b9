"""Figure 9 — per-component time breakdown across the optimization ladder.

For GCN and GAT at 2/3/4 layers on the three large graphs, runs the three
communication configurations:

* Baseline — each chunk's neighbor set transferred individually,
* +P2P     — inter-GPU deduplication added,
* +RU      — intra-GPU reuse added on top (full HongTu),

and reports the GPU / H2D / D2H / D2D / CPU split of the simulated epoch
(the paper's combined "H2D" bar is the H2D + D2H sum here — this
reproduction splits the PCIe directions).

Expected shape (paper): the ladder monotonically reduces epoch time for an
overall 1.3-3.4x gain; H2D shrinks at each step while D2D appears with
+P2P; GCN is communication-dominated while GAT's GPU share is much larger.

``bench_fig9_overlap`` additionally runs the full HongTu configuration
under both overlap policies of the event-timeline engine: ``barrier``
reproduces the serialized Fig. 9 accounting, ``pipeline`` prefetches batch
j+1's host loads under batch j's kernels and must be strictly faster.
"""

from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

from benchmarks._common import (
    BENCH_SCALE,
    emit,
    emit_json,
    fig9_claims,
    paper_model,
)

DATASETS = ["it2004_sim", "papers_sim", "friendster_sim"]
LAYER_COUNTS = [2, 3, 4]
HIDDEN = 128
NUM_CHUNKS = {"it2004_sim": 8, "papers_sim": 16, "friendster_sim": 16}
LADDER = [("Baseline", "baseline"), ("+P2P", "p2p"), ("+RU", "hongtu")]


def run_cell(dataset, arch, layers, comm_mode, overlap="barrier",
             scale=BENCH_SCALE):
    graph = load_dataset(dataset, scale=scale)
    chunks = NUM_CHUNKS[dataset] * (2 if arch == "gat" else 1)
    model = paper_model(arch, graph, layers, HIDDEN, seed=1)
    trainer = HongTuTrainer(
        graph, model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=chunks, comm_mode=comm_mode, seed=0,
                     overlap=overlap),
    )
    return trainer.train_epoch()


def build_tables(arch):
    rows = []
    results = {}
    for dataset in DATASETS:
        for layers in LAYER_COUNTS:
            for label, mode in LADDER:
                result = run_cell(dataset, arch, layers, mode)
                results[(dataset, layers, label)] = result
                seconds = result.clock.seconds
                rows.append([
                    dataset, layers, label,
                    f"{seconds['gpu']:.5f}", f"{seconds['h2d']:.5f}",
                    f"{seconds['d2h']:.5f}", f"{seconds['d2d']:.5f}",
                    f"{seconds['cpu']:.5f}",
                    f"{result.epoch_seconds:.5f}",
                ])
    table = render_table(
        ["Dataset", "Layers", "Config", "GPU", "H2D", "D2H", "D2D", "CPU",
         "Total"],
        rows,
        title=f"Figure 9 ({arch.upper()}): time breakdown, simulated "
              "seconds per epoch",
    )
    return table, results


def _check_shapes(results):
    failed = [
        f"{dataset} L{layers}: {name}"
        for dataset in DATASETS for layers in LAYER_COUNTS
        for name, held in fig9_claims(
            *(results[(dataset, layers, label)] for label, _ in LADDER)
        ).items()
        if not held
    ]
    assert not failed, failed


def bench_fig9_gcn(benchmark):
    table, results = benchmark.pedantic(build_tables, args=("gcn",),
                                        rounds=1, iterations=1)
    emit("fig9_breakdown_gcn", table)
    metrics = {
        f"{dataset}_l{layers}_{label.lstrip('+').lower()}_seconds":
            results[(dataset, layers, label)].epoch_seconds
        for dataset in DATASETS
        for layers in LAYER_COUNTS
        for label, _mode in LADDER
    }
    emit_json("fig9_breakdown_gcn", metrics)
    _check_shapes(results)


def bench_fig9_gat(benchmark):
    table, results = benchmark.pedantic(build_tables, args=("gat",),
                                        rounds=1, iterations=1)
    emit("fig9_breakdown_gat", table)
    _check_shapes(results)
    # GAT's GPU share exceeds GCN's (heavy edge computation).
    gcn_sample = run_cell("it2004_sim", "gcn", 3, "hongtu")
    gat_sample = results[("it2004_sim", 3, "+RU")]
    gcn_share = gcn_sample.clock.seconds["gpu"] / gcn_sample.epoch_seconds
    gat_share = gat_sample.clock.seconds["gpu"] / gat_sample.epoch_seconds
    assert gat_share > gcn_share


def build_overlap_table():
    rows = []
    results = {}
    for dataset in DATASETS:
        for overlap in ("barrier", "pipeline"):
            result = run_cell(dataset, "gcn", 3, "hongtu", overlap=overlap)
            results[(dataset, overlap)] = result
            rows.append([
                dataset, overlap,
                f"{result.epoch_seconds:.5f}",
                f"{result.clock.total:.5f}",
                f"{result.timeline.overlap_saving():.5f}",
            ])
    table = render_table(
        ["Dataset", "Overlap", "Makespan", "Serialized", "Hidden"],
        rows,
        title="Pipelined transfer/compute overlap (GCN, 3 layers, +RU)",
    )
    return table, results


def bench_fig9_overlap(benchmark):
    table, results = benchmark.pedantic(build_overlap_table, rounds=1,
                                        iterations=1)
    emit("fig9_overlap", table)
    metrics = {
        f"{dataset}_{overlap}_seconds":
            results[(dataset, overlap)].epoch_seconds
        for dataset in DATASETS
        for overlap in ("barrier", "pipeline")
    }
    emit_json("fig9_overlap", metrics)
    for dataset in DATASETS:
        barrier = results[(dataset, "barrier")]
        pipeline = results[(dataset, "pipeline")]
        # Pipelining must strictly beat the barrier schedule, component
        # breakdowns must agree (same work, different schedule), and the
        # timelines must be valid (no channel overlap, deps respected).
        assert pipeline.epoch_seconds < barrier.epoch_seconds
        for category, seconds in barrier.clock.seconds.items():
            assert abs(pipeline.clock.seconds[category] - seconds) \
                <= 1e-12 + 1e-9 * seconds
        pipeline.timeline.validate()
        barrier.timeline.validate()
