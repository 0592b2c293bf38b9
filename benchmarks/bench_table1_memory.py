"""Table 1 — memory consumption of 3-layer full-graph GCN training.

Reproduces, at the paper's true dataset scales (Table 4), the closed-form
topology / vertex-data / intermediate-data breakdown that motivates HongTu:
hundreds of gigabytes per graph, far beyond 4x80 GB of GPU memory. The
paper's values are ``TABLE1_PAPER_GB``; the claims over them are
:func:`~benchmarks._common.table1_claims`.
"""

from repro.bench import render_table
from repro.core import estimate_training_memory
from repro.graph import PAPER_PROFILES

from benchmarks._common import TABLE1_PAPER_GB, emit, table1_claims

# (dataset, model config string, dims) straight from Table 1.
TABLE1_CONFIGS = [
    ("it-2004", "256-128-128-64", [256, 128, 128, 64]),
    ("ogbn-paper", "200-128-128-172", [200, 128, 128, 172]),
    ("friendster", "256-128-128-64", [256, 128, 128, 64]),
]


def table1_estimates():
    """dataset → the GCN working set of its Table 1 config at paper scale."""
    estimates = {}
    for dataset, _, dims in TABLE1_CONFIGS:
        profile = PAPER_PROFILES[dataset]
        estimates[dataset] = estimate_training_memory(
            profile.num_vertices, profile.num_edges, dims, arch="gcn"
        )
    return estimates


def build_table() -> str:
    estimates = table1_estimates()
    rows = []
    for dataset, config, _ in TABLE1_CONFIGS:
        gb = estimates[dataset].as_gb()
        paper_topology, paper_vertex, paper_intermediate = \
            TABLE1_PAPER_GB[dataset]
        rows.append([
            dataset, config,
            f"{gb['topology_gb']:.1f} ({paper_topology})",
            f"{gb['vertex_data_gb']:.1f} ({paper_vertex})",
            f"{gb['intermediate_gb']:.1f} ({paper_intermediate})",
        ])
    return render_table(
        ["Dataset", "Model Config", "Topology GB (paper)",
         "Vtx Data GB (paper)", "Intr Data GB (paper)"],
        rows,
        title="Table 1: memory of 3-layer full-graph GCN training "
              "(model (paper) values)",
    )


def bench_table1_memory_model(benchmark):
    text = benchmark(build_table)
    emit("table1_memory", text)
    # Every graph far exceeds a single 80 GB GPU, and ogbn-paper exceeds
    # even the aggregate 4x80 GB (the paper's "needs at least 77 A100s"
    # point).
    failed = [name for name, held in table1_claims(table1_estimates()).items()
              if not held]
    assert not failed, failed
