"""Table 3 — neighbor replication factor α under different partition counts.

Measures α on the three large stand-ins for 2..64 total partitions (the
paper sweeps 2..512 at full scale; at stand-in scale the higher counts
degenerate to near-singleton chunks). The paper's full-scale values are
printed alongside for comparison. Expected shape: α grows monotonically
with partitions, and the social graph (friendster) replicates far more
than the locality-heavy web graph (it-2004).
"""

from repro.bench import render_table
from repro.graph import load_dataset
from repro.partition import replication_factor_sweep

from benchmarks._common import BENCH_SCALE, emit, table3_claims

PARTITION_COUNTS = [2, 4, 8, 16, 32, 64]
DATASETS = ["it2004_sim", "papers_sim", "friendster_sim"]
PAPER_KEYS = {"it2004_sim": "it-2004", "papers_sim": "ogbn-paper",
              "friendster_sim": "friendster"}


def run_sweep(scale=BENCH_SCALE):
    results = {}
    for dataset in DATASETS:
        graph = load_dataset(dataset, scale=scale)
        results[dataset] = replication_factor_sweep(
            graph, PARTITION_COUNTS, seed=0
        )
    return results


def build_table(results) -> str:
    rows = []
    for dataset in DATASETS:
        graph = load_dataset(dataset, scale=BENCH_SCALE)
        paper = graph.scale_profile.replication_factors
        measured = results[dataset]
        rows.append(
            [dataset]
            + [f"{measured[count]:.2f} ({paper.get(count, '-')})"
               for count in PARTITION_COUNTS]
        )
    return render_table(
        ["Dataset"] + [str(count) for count in PARTITION_COUNTS],
        rows,
        title="Table 3: neighbor replication factor alpha, measured "
              "(paper full-scale value)",
    )


def bench_table3_replication(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("table3_replication", build_table(results))
    failed = [name for name, held in table3_claims(results).items()
              if not held]
    assert not failed, failed
