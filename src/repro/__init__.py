"""repro — a from-scratch reproduction of HongTu (SIGMOD 2023).

HongTu trains full-graph GNNs whose working set exceeds aggregate GPU memory
by storing vertex data in CPU memory and streaming partitioned subgraph
chunks through the GPUs, with a recomputation-caching-hybrid intermediate
data policy and a deduplicated host-GPU communication framework.

Public API quick map::

    repro.graph       # datasets, generators, CSR structures
    repro.gnn         # GCN/GAT/GraphSAGE/GIN/CommNet layers + models
    repro.partition   # METIS-like + 2-level partitioning, replication
    repro.comm        # dedup communication: plans, cost model, Algorithm 4
    repro.runtime     # event-timeline engine: tasks, scheduler, buffers
    repro.hardware    # simulated multi-GPU platform (memory + time)
    repro.core        # HongTuTrainer (Algorithm 1), memory model
    repro.serving     # request-driven inference serving on the timeline
    repro.faults      # declarative fault schedules for unreliable fleets
    repro.scenario    # unified cluster/fault vocabulary (CLI + benches)
    repro.baselines   # DGL-like, Sancus-like, DistGNN-sim, DistDGL-like
    repro.bench       # the tables the CLI and benchmarks print

Quickstart::

    from repro import quick_trainer
    trainer = quick_trainer("reddit_sim", arch="gcn", scale=0.25)
    for _ in range(5):
        print(trainer.train_epoch().loss)
    print(trainer.evaluate())
"""

from repro.core import HongTuConfig, HongTuTrainer
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

__version__ = "1.0.0"

__all__ = [
    "HongTuConfig", "HongTuTrainer", "build_model", "load_dataset",
    "A100_SERVER", "MultiGPUPlatform", "quick_trainer", "__version__",
]


def quick_trainer(dataset: str = "reddit_sim", arch: str = "gcn",
                  hidden_dim: int = 64, num_layers: int = 2,
                  num_chunks: int = 4, scale: float = 0.25,
                  seed: int = 0) -> HongTuTrainer:
    """One-call HongTu trainer on a stand-in dataset (for quickstarts)."""
    import numpy as np

    graph = load_dataset(dataset, scale=scale, seed=seed + 42)
    dims = [graph.feature_dim] + [hidden_dim] * (num_layers - 1) \
        + [graph.num_classes]
    model = build_model(arch, dims, np.random.default_rng(seed))
    platform = MultiGPUPlatform(A100_SERVER)
    config = HongTuConfig(num_chunks=num_chunks, seed=seed)
    return HongTuTrainer(graph, model, platform, config)
