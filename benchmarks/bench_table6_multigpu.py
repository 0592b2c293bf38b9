"""Table 6 — comparison with multi-GPU systems on 4 (simulated) A100s.

Rows: Sancus (all-in-GPU, broadcast-style communication), HongTu-IM
(all-in-GPU, P2P), HongTu, and DistDGL (sampled mini-batch), running GCN on
all five graphs at increasing depth.

Expected shape (paper): on the small graphs everything runs and HongTu pays
a modest offloading overhead vs the in-memory systems; on the three large
graphs Sancus/HongTu-IM OOM while HongTu trains them; DistDGL's runtime
grows superlinearly with depth (neighbor explosion) and eventually OOMs.
"""

from repro.baselines import (
    InMemoryMultiGPUTrainer,
    MiniBatchTrainer,
)
from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

from benchmarks._common import (
    BENCH_SCALE,
    capacity_limited_platform,
    emit,
    paper_model,
    run_or_oom,
)

SMALL = ["reddit_sim", "products_sim"]
LARGE = ["it2004_sim", "papers_sim", "friendster_sim"]
#: (small-graph layers, large-graph layers) per table row
LAYER_ROWS = [(2, 2), (4, 3), (8, 4)]
HIDDEN_SMALL, HIDDEN_LARGE = 256, 128
#: per-GPU capacity as a fraction of the full working-set estimate —
#: the paper's A100s hold roughly this share of the big graphs' data
CAPACITY_FRACTION_LARGE = 0.12
NUM_CHUNKS = {"reddit_sim": 1, "products_sim": 1, "it2004_sim": 8,
              "papers_sim": 16, "friendster_sim": 16}


def run_cell(system, dataset, layers):
    graph = load_dataset(dataset, scale=BENCH_SCALE)
    hidden = HIDDEN_SMALL if dataset in SMALL else HIDDEN_LARGE
    model = paper_model("gcn", graph, layers, hidden, seed=1)
    platform = (MultiGPUPlatform(A100_SERVER) if dataset in SMALL
                else capacity_limited_platform(
                    graph, model, CAPACITY_FRACTION_LARGE))

    if system == "Sancus":
        return run_or_oom(system, lambda: InMemoryMultiGPUTrainer(
            graph, model, platform, comm_overhead=1.3), epochs=1)
    if system == "HongTu-IM":
        return run_or_oom(system, lambda: InMemoryMultiGPUTrainer(
            graph, model, platform), epochs=1)
    if system == "HongTu":
        chunks = NUM_CHUNKS[dataset] * max(layers // 2, 1)
        return run_or_oom(system, lambda: HongTuTrainer(
            graph, model, platform,
            HongTuConfig(num_chunks=chunks, seed=0)), epochs=1)
    if system == "DistDGL":
        # Paper config: fanout 10, batch 1024 at 10^8 vertices. Batch and
        # fanout shrink with the stand-ins so the frontier:|V| ratio stays
        # comparable.
        batch = 256 if dataset in SMALL else 64
        fanout = 10 if dataset in SMALL else 5
        return run_or_oom(system, lambda: MiniBatchTrainer(
            graph, model, platform, fanout=fanout, batch_size=batch),
            epochs=1)
    raise ValueError(system)


def build_table():
    datasets = SMALL + LARGE
    rows = []
    outcomes = {}
    for small_layers, large_layers in LAYER_ROWS:
        for system in ["Sancus", "HongTu-IM", "HongTu", "DistDGL"]:
            row = [f"{small_layers}/{large_layers}", system]
            for dataset in datasets:
                layers = small_layers if dataset in SMALL else large_layers
                outcome = run_cell(system, dataset, layers)
                outcomes[(small_layers, system, dataset)] = outcome
                row.append(outcome.cell())
            rows.append(row)
    table = render_table(
        ["Layers", "System", "RDT", "OPT", "IT", "OPR", "FDS"],
        rows,
        title="Table 6: multi-GPU comparison (GCN, simulated epoch "
              "seconds on 4 GPUs)",
    )
    return table, outcomes


def bench_table6_multigpu(benchmark):
    table, outcomes = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit("table6_multigpu", table)

    for small_layers, _ in LAYER_ROWS:
        # HongTu runs everywhere.
        for dataset in SMALL + LARGE:
            assert not outcomes[(small_layers, "HongTu", dataset)].oom
        # In-memory systems OOM on every large graph.
        for dataset in LARGE:
            assert outcomes[(small_layers, "Sancus", dataset)].oom
            assert outcomes[(small_layers, "HongTu-IM", dataset)].oom
        # ...but run (and beat HongTu) on the small graphs.
        for dataset in SMALL:
            inmemory = outcomes[(small_layers, "HongTu-IM", dataset)]
            hongtu = outcomes[(small_layers, "HongTu", dataset)]
            assert not inmemory.oom
            assert inmemory.epoch_seconds < hongtu.epoch_seconds

    # DistDGL neighbor explosion: at stand-in scale the sampled frontier
    # saturates at |V| after ~2 hops, so the explosion shows primarily in
    # the resident frontier *memory* (geometric until saturation) while
    # time keeps growing with depth.
    for dataset in SMALL:
        shallow = outcomes[(2, "DistDGL", dataset)]
        deep = outcomes[(8, "DistDGL", dataset)]
        if not (shallow.oom or deep.oom):
            assert deep.peak_bytes > 3 * shallow.peak_bytes
            assert deep.epoch_seconds > 1.5 * shallow.epoch_seconds
    # On the capacity-limited large graphs the deepest DistDGL configs run
    # out of memory (paper: OOM at 4 layers on it-2004/friendster).
    assert any(outcomes[(8, "DistDGL", dataset)].oom for dataset in LARGE)
