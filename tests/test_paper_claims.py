"""The paper's claims, each at a tiny scale.

A claim is stated once, in ``benchmarks/_common.py``; its bench asserts it
at bench scale and this module at a scale tier-1 can afford.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import pytest  # noqa: E402

from benchmarks._common import (  # noqa: E402
    TABLE1_PAPER_GB,
    TABLE8_CHUNKS,
    ablation_recompute_claims,
    fig8_claims,
    fig9_claims,
    fig11_claims,
    fig11_nodes_claims,
    table1_claims,
    table3_claims,
    table8_claims,
    table8_volumes,
)
from benchmarks.bench_ablation_recompute import (  # noqa: E402
    run_all as run_ablation_recompute,
)
from benchmarks.bench_fig8_accuracy import train_curves  # noqa: E402
from benchmarks.bench_fig9_breakdown import (  # noqa: E402
    DATASETS,
    LADDER,
    run_cell,
)
from benchmarks.bench_fig11_scaling import (  # noqa: E402
    DATASETS as FIG11_DATASETS,
    NODE_COUNTS,
    run_arch,
    run_nodes,
)
from benchmarks.bench_table1_memory import table1_estimates  # noqa: E402
from benchmarks.bench_table3_replication import (  # noqa: E402
    DATASETS as TABLE3_DATASETS,
    PARTITION_COUNTS,
    run_sweep,
)
from repro.graph import load_dataset  # noqa: E402


def test_table1_memory_claims():
    """Closed-form at the paper's own sizes (about 3 ms), so no scale-down:
    nine components within 20 %, three totals over 2 x 80 GB, ogbn-paper
    over 4 x 80 GB, its vertex data to the digit (which pins
    ``SCALAR_BYTES`` to the paper's float32 rows) and three orderings."""
    estimates = table1_estimates()
    assert sorted(estimates) == sorted(TABLE1_PAPER_GB)
    claims = table1_claims(estimates)
    assert len(claims) == 4 * len(TABLE1_PAPER_GB) + 5
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed


#: Table 3's sweep over 2..64 partitions of ~800 vertices per graph (about
#: 0.5 s). Both claims hold on all three graphs.
TABLE3_SCALE = 0.1


def test_table3_replication_claims():
    results = run_sweep(scale=TABLE3_SCALE)
    assert sorted(results) == sorted(TABLE3_DATASETS)
    assert all(sorted(sweep) == PARTITION_COUNTS
               for sweep in results.values())
    claims = table3_claims(results)
    assert len(claims) == len(TABLE3_DATASETS) + 1
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed


#: Table 8 at ~1 200 vertices over 4 GPUs with 8-16 chunks each (about
#: 0.1 s), more chunks per GPU than any perf workload plans. Every claim
#: holds here. Below it one does not: at 0.1 it2004_sim reuses 2.59 rows
#: per vertex within a GPU and papers_sim 2.50, since batches of ~100
#: vertices leave no room for co-author locality to show.
TABLE8_SCALE = 0.2


def test_table8_dedup_volume_claims():
    assert min(TABLE8_CHUNKS.values()) >= 8
    claims = table8_claims(table8_volumes(TABLE8_SCALE))
    assert len(claims) == 2 * len(TABLE8_CHUNKS) + 1
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed


#: Fig. 8's curves on products_sim at 400 vertices over 20 epochs, a
#: checkpoint every 5 (about 1.2 s). All three claims hold. reddit_sim is
#: left out: at the same scale its 230 vertices are dense enough that the
#: mini-batch sampler's per-vertex walk takes about 3 s, twice this
#: budget.
FIG8_SCALE = 0.1
FIG8_EPOCHS = 20


def test_fig8_accuracy_claims():
    curves = train_curves("products_sim", scale=FIG8_SCALE,
                          epochs=FIG8_EPOCHS)
    assert all(len(curve) == 4 for curve in curves.values())
    classes = load_dataset("products_sim", scale=FIG8_SCALE).num_classes
    claims = fig8_claims(curves, classes)
    assert len(claims) == 3
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed


#: Fig. 9's ladder for GCN at 2 layers on ~800 vertices per graph over 4
#: GPUs (about 0.6 s per graph). All six claims hold on all three graphs.
FIG9_SCALE = 0.1


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig9_ladder_claims(dataset):
    ladder = [run_cell(dataset, "gcn", 2, mode, scale=FIG9_SCALE)
              for _label, mode in LADDER]
    claims = fig9_claims(*ladder)
    assert len(claims) == 6
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed


#: Fig. 11 for GCN on ~800 vertices per graph: 1-4 GPUs of one server
#: (about 0.55 s), then papers_sim on 1, 2 and 4 four-GPU nodes under
#: both overlap policies (about 0.6 s). Every claim holds.
FIG11_SCALE = 0.1


def test_fig11_scaling_claims():
    claims = fig11_claims(run_arch("gcn", scale=FIG11_SCALE))
    assert len(claims) == 4 * len(FIG11_DATASETS)
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed


def test_fig11_scale_out_claims():
    claims = fig11_nodes_claims(run_nodes(scale=FIG11_SCALE))
    assert len(claims) == 2 * len(NODE_COUNTS)
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed


#: The recompute ablation on papers_sim at ~400 vertices, hidden width 16
#: and 4 chunks per GPU, GCN and GAT under both policies (about 0.35 s).
#: Every claim holds. It runs the hybrid policy's checkpoint path end to
#: end: on GCN the checkpoint is what saves the backward's staging.
ABLATION_SCALE = 0.05


def test_ablation_recompute_claims():
    claims = ablation_recompute_claims(run_ablation_recompute(
        scale=ABLATION_SCALE, hidden=16, chunks=4))
    assert len(claims) == 7
    failed = [name for name, held in claims.items() if not held]
    assert not failed, failed
