"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure of the paper: it
runs the workload on the simulated platform, renders the same rows/series
the paper reports, prints them, and archives them under
``benchmarks/results/`` so EXPERIMENTS.md can reference stable artifacts.

:func:`emit_json` additionally archives machine-readable *simulated*
metrics (makespans, halo rows — deterministic pure-float results, not
wall-clock timings) as ``results/<name>.json``; the CI bench-regression
job compares these against the committed ``results/baseline.json`` with
``tools/check_bench_regression.py`` and fails on any growth beyond
float rounding.

The table benches share the rest: :func:`paper_model` builds the
paper-style GNN through the scenario API, :func:`run_or_oom` turns a
simulated :class:`~repro.errors.DeviceOutOfMemoryError` into the literal
``"OOM"`` cell the paper's tables print, and
:func:`capacity_limited_platform` shrinks GPU memory so those OOMs appear
at the paper's relative working-set sizes.

A paper claim is stated once, here, as a function from measurements to
named verdicts (:func:`table8_claims`); its bench asserts every verdict
at bench scale and ``tests/test_paper_claims.py`` at a tiny one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.comm import (
    DedupCommunicator,
    DedupVolumes,
    measure_volumes,
    reorganize_partition,
)
from repro.core.memory_model import MemoryEstimate, estimate_for_model
from repro.errors import DeviceOutOfMemoryError
from repro.graph import load_dataset
from repro.hardware.clock import EventTimeline, TimeBreakdown
from repro.hardware.platform import MultiGPUPlatform
from repro.hardware.spec import A100_SERVER, GB, PlatformSpec
from repro.partition import two_level_partition
from repro.scenario import ClusterArgs

__all__ = ["emit", "emit_json", "fleet_scenario", "paper_model",
           "RunOutcome", "run_or_oom", "speedup_vs",
           "capacity_limited_platform", "sweep_timeline", "RESULTS_DIR",
           "BENCH_SCALE",
           "CI_STEP", "TABLE8_CHUNKS", "table8_volumes", "table8_claims",
           "TABLE1_PAPER_GB", "table1_claims", "table3_claims",
           "fig8_claims", "fig9_claims", "fig11_claims",
           "fig11_nodes_claims", "ablation_recompute_claims"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: dataset scale used by all benchmarks (tests use smaller scales)
BENCH_SCALE = 0.35

#: the one ``bench-regression`` job step (``.github/workflows/ci.yml``)
#: that runs every bench calling :func:`emit_json`
CI_STEP = "Benchmark smoke (the nine JSON-emitting bench functions)"


def emit(name: str, text: str) -> None:
    """Print a rendered table and archive it under results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")


def fleet_scenario(**overrides):
    """A bench fleet described through the CLI's exact code path.

    Returns a :class:`repro.scenario.ClusterArgs`; benches call
    ``.build_platform()`` / ``.build_config(...)`` on it so a fleet
    assembled here and one parsed from ``repro train --nodes ...`` can
    never drift apart. Keyword overrides are the shared CLI vocabulary
    (``nodes``, ``gpus``, ``fault=[...]``, ...).
    """
    return ClusterArgs(**overrides)


def paper_model(arch: str, graph, layers: int, hidden: int, seed: int = 0):
    """Paper-style model: F → hidden×(L-1) → C, seed-deterministic."""
    return fleet_scenario(arch=arch, layers=layers, hidden_dim=hidden,
                          seed=seed).build_model(graph)


@dataclass
class RunOutcome:
    """A single table cell: epoch time (simulated seconds) or OOM."""

    label: str
    epoch_seconds: Optional[float] = None
    clock: Optional[TimeBreakdown] = None
    #: peak GPU bytes of the last epoch (0 on a CPU cluster)
    peak_bytes: Optional[int] = None
    oom: bool = False
    loss: Optional[float] = None

    def cell(self, digits: int = 4) -> str:
        if self.oom:
            return "OOM"
        return f"{self.epoch_seconds:.{digits}f}"


def run_or_oom(label: str,
               factory: Callable[[], object],
               epochs: int = 2) -> RunOutcome:
    """Construct a trainer and run ``epochs`` epochs, averaging epoch time.

    The trainer object must expose ``train_epoch()`` returning an
    :class:`~repro.core.trainer.EpochResult`. Construction *or* execution
    may raise :class:`DeviceOutOfMemoryError`, which maps to an OOM cell.
    """
    try:
        trainer = factory()
        results = [trainer.train_epoch() for _ in range(epochs)]
    except DeviceOutOfMemoryError:
        return RunOutcome(label=label, oom=True)

    last = results[-1]
    mean_seconds = sum(result.epoch_seconds for result in results) / len(results)
    return RunOutcome(
        label=label,
        epoch_seconds=mean_seconds,
        clock=last.clock,
        peak_bytes=last.peak_gpu_bytes,
        loss=last.loss,
    )


def speedup_vs(reference: RunOutcome, outcome: RunOutcome) -> str:
    """Format "(12.3x)" speedup cells; '-' when either side is OOM."""
    if reference.oom or outcome.oom:
        return "-"
    if outcome.epoch_seconds == 0:
        return "-"
    return f"{reference.epoch_seconds / outcome.epoch_seconds:.1f}x"


def capacity_limited_platform(graph, model,
                              capacity_fraction: float,
                              base: PlatformSpec = A100_SERVER,
                              num_gpus: int | None = None) -> MultiGPUPlatform:
    """Platform whose per-GPU memory is a fraction of the full working set.

    The paper's A100s hold 80 GB against working sets of 300-900 GB
    (Table 1) — roughly 0.1-0.25 of the total per GPU. Benchmarks recreate
    that ratio for the scaled-down stand-ins: ``capacity_fraction`` of the
    (graph, model)'s estimated full training footprint per GPU, so that
    in-memory systems OOM exactly when the paper's do while HongTu's
    chunked footprint still fits.
    """
    estimate = estimate_for_model(
        graph.num_vertices, graph.num_edges, model
    )
    capacity = max(int(estimate.total_bytes * capacity_fraction), 1)
    spec = base.with_gpu_memory(capacity)
    return MultiGPUPlatform(spec, num_gpus=num_gpus)


def sweep_timeline(comm: DedupCommunicator, dim: int) -> EventTimeline:
    """The traffic of one forward and one backward sweep of every batch
    of ``comm``'s plan, at row width ``dim``, on a barrier timeline.

    The executor emits each batch's waves, bytes and dependencies
    without moving a row (``submit_batch_forward``,
    ``submit_batch_backward``), so the timeline is the sweep's byte
    ledger: read ``bytes_view()`` or ``comm.net_bytes_by_flow`` off it.
    """
    timeline = EventTimeline(barrier_all=True)
    comm.start_sweep(dim)
    for j in range(comm.plan.num_batches):
        comm.submit_batch_forward(j, timeline)
        comm.submit_batch_backward(j, timeline)
    comm.end_sweep()
    return timeline


#: Table 1's memory of 3-layer full-graph GCN training, in GB per
#: component (topology, vertex data, intermediate data)
TABLE1_PAPER_GB = {
    "it-2004": (12.8, 177.2, 108.3),
    "ogbn-paper": (18.0, 519.4, 425.3),
    "friendster": (28.9, 293.3, 179.3),
}


def table1_claims(estimates: Dict[str, MemoryEstimate]) -> Dict[str, bool]:
    """Table 1's claims over the paper-scale memory estimates, by name.

    ``estimates[dataset]`` is the working set of one
    :data:`TABLE1_PAPER_GB` graph at its Table 4 size. Each component is
    within ±20 % of the paper's GB, and ogbn-paper's vertex data is the
    paper's 519.4 GB to the printed digit (2·|V|·Σdims at the modeled
    float32 width). Every total exceeds two 80 GB GPUs and ogbn-paper's
    exceeds four. Each component orders the three graphs as the paper's
    column does.
    """
    components = ("topology", "vertex data", "intermediate")
    measured = {
        dataset: (estimate.topology_bytes / GB,
                  estimate.vertex_data_bytes / GB,
                  estimate.intermediate_bytes / GB)
        for dataset, estimate in estimates.items()
    }
    claims = {}
    for dataset, paper in TABLE1_PAPER_GB.items():
        for name, model_gb, paper_gb in zip(components, measured[dataset],
                                             paper):
            claims[f"{dataset}: {name} within 20% of {paper_gb} GB"] = \
                0.8 <= model_gb / paper_gb <= 1.2
        claims[f"{dataset}: total > 2 x 80 GB"] = \
            estimates[dataset].total_bytes > 2 * 80 * GB
    claims["ogbn-paper: total > 4 x 80 GB"] = \
        estimates["ogbn-paper"].total_bytes > 4 * 80 * GB
    claims["ogbn-paper: vertex data is the paper's GB to the digit"] = \
        round(measured["ogbn-paper"][1], 1) == TABLE1_PAPER_GB["ogbn-paper"][1]

    def ranking(gb, k):
        return sorted(gb, key=lambda dataset: gb[dataset][k])

    for k, name in enumerate(components):
        claims[f"{name} orders the graphs as the paper's"] = \
            ranking(measured, k) == ranking(TABLE1_PAPER_GB, k)
    return claims


#: Table 8's graphs → chunks per GPU, scaled from the paper's 8/32/32
TABLE8_CHUNKS = {"it2004_sim": 8, "papers_sim": 16, "friendster_sim": 16}


def table8_volumes(scale: float) -> Dict[str, DedupVolumes]:
    """Eq. 4 volumes of each Table 8 graph on the paper's 4-GPU server
    after Algorithm 4 (the layout its trainer runs)."""
    server = MultiGPUPlatform(A100_SERVER)
    volumes = {}
    for dataset, chunks in TABLE8_CHUNKS.items():
        partition = two_level_partition(load_dataset(dataset, scale=scale),
                                        4, chunks, seed=0)
        volumes[dataset] = measure_volumes(
            reorganize_partition(partition, server).partition)
    return volumes


def table8_claims(volumes: Dict[str, DedupVolumes]) -> Dict[str, bool]:
    """Table 8's claims over :func:`table8_volumes`, by name.

    Dedup removes the paper's 25-71 % of host-GPU rows (a 20 % floor at
    stand-in scale), each stage strictly shrinks the volume, and the
    locality-rich citation graph leans on intra-GPU reuse more than the
    web graph does, in rows per vertex.
    """
    claims = {}
    for dataset, measured in volumes.items():
        claims[f"{dataset}: reduction > 0.20"] = \
            measured.reduction_fraction > 0.20
        claims[f"{dataset}: v_ori > v_p2p > v_ru"] = \
            measured.v_ori > measured.v_p2p > measured.v_ru

    def reuse(dataset):
        return volumes[dataset].intra_gpu_dedup / volumes[dataset].num_vertices

    claims["papers_sim reuses more per vertex than it2004_sim"] = \
        reuse("papers_sim") > reuse("it2004_sim")
    return claims


def table3_claims(results: Dict[str, Dict[int, float]]) -> Dict[str, bool]:
    """Table 3's claims over a replication-factor sweep, by name.

    ``results[dataset][count]`` is α at ``count`` partitions. α grows
    monotonically with the partition count on every graph, and the
    social graph replicates more than the locality-heavy web graph at 64
    partitions.
    """
    claims = {}
    for dataset, sweep in results.items():
        values = [sweep[count] for count in sorted(sweep)]
        claims[f"{dataset}: alpha grows with partitions"] = \
            all(b >= a for a, b in zip(values, values[1:]))
    claims["friendster_sim replicates more than it2004_sim at 64"] = \
        results["friendster_sim"][64] > results["it2004_sim"][64]
    return claims


def fig8_claims(curves: Dict[str, list],
                num_classes: int) -> Dict[str, bool]:
    """Fig. 8's claims over validation-accuracy curves, by name.

    ``curves[system]`` is the ``evaluate()`` dict of ``"DGL-FG"``,
    ``"HongTu-FG"`` and ``"DGL-MB"`` at each checkpoint of one graph
    with ``num_classes`` labels. HongTu-FG equals DGL-FG at every
    checkpoint (the same full-graph training), both paradigms learn past
    3x chance, and their final accuracies land within 0.15 of each other.
    """
    full, hongtu, mini = (curves[system] for system in
                          ("DGL-FG", "HongTu-FG", "DGL-MB"))
    final_full = full[-1]["val_accuracy"]
    final_mini = mini[-1]["val_accuracy"]
    chance = 1.0 / num_classes
    return {
        "HongTu-FG == DGL-FG at every checkpoint":
            len(full) == len(hongtu) and all(
                abs(ref["val_accuracy"] - ours["val_accuracy"]) < 1e-9
                for ref, ours in zip(full, hongtu)),
        "both paradigms > 3 x chance":
            min(final_full, final_mini) > 3 * chance,
        "|final FG - final MB| < 0.15": abs(final_full - final_mini) < 0.15,
    }


def fig9_claims(baseline, p2p, full) -> Dict[str, bool]:
    """Fig. 9's claims over one ladder's epoch results, by name.

    ``baseline``, ``p2p`` and ``full`` are the Baseline, +P2P and +RU
    rungs of one (graph, model, layers) cell. The ladder is monotone and
    the full stack wins by at least 1.15x; H2D shrinks along it, and D2D
    traffic appears with +P2P.
    """
    def h2d(result):
        return result.clock.seconds["h2d"]

    return {
        "+P2P <= Baseline": p2p.epoch_seconds <= baseline.epoch_seconds,
        "+RU <= +P2P": full.epoch_seconds <= p2p.epoch_seconds,
        "Baseline > 1.15 x +RU":
            baseline.epoch_seconds > 1.15 * full.epoch_seconds,
        "H2D: +P2P < Baseline": h2d(p2p) < h2d(baseline),
        "H2D: +RU <= +P2P": h2d(full) <= h2d(p2p),
        "D2D appears with +P2P": p2p.clock.seconds["d2d"] > 0,
    }


def fig11_claims(results: Dict[tuple, float]) -> Dict[str, bool]:
    """Fig. 11's claims over a GPU-count sweep, by name.

    ``results[(dataset, gpus)]`` is the epoch seconds on ``gpus`` GPUs
    of one server (1, 2 and 4 among them). Per graph: 2 GPUs are never
    slower than 1, the speed-up grows 1 → 2 → 4 GPUs, 4 GPUs clear
    2x, and the 2 → 4 step gains about as much as the 1 → 2 step or
    more (at <= 2 GPUs host rows cross the socket, §7.6).
    """
    claims = {}
    for dataset in dict.fromkeys(dataset for dataset, _ in results):
        base = results[(dataset, 1)]
        speedup = {gpus: base / results[(dataset, gpus)] for gpus in (1, 2, 4)}
        claims[f"{dataset}: 2 GPUs >= 1x"] = speedup[2] >= 1.0
        claims[f"{dataset}: speedup 4 > 2 >= 1 GPUs"] = \
            speedup[4] > speedup[2] >= speedup[1]
        claims[f"{dataset}: 4 GPUs > 2x"] = speedup[4] > 2.0
        claims[f"{dataset}: 2->4 step > 0.9 x 1->2 step"] = \
            speedup[4] / speedup[2] > speedup[2] / speedup[1] * 0.9
    return claims


def fig11_nodes_claims(results: Dict[tuple, tuple]) -> Dict[str, bool]:
    """Fig. 11's scale-out claims over a node-count sweep, by name.

    ``results[(nodes, overlap)]`` is ``(epoch seconds, serialized net
    seconds)`` on ``nodes`` 4-GPU servers. One server never touches the
    network and pipeline overlap never loses to barrier; on several it
    strictly wins, hiding halo traffic that is really there.
    """
    claims = {}
    for nodes in sorted({nodes for nodes, _ in results}):
        barrier, net = results[(nodes, "barrier")]
        pipeline, _ = results[(nodes, "pipeline")]
        if nodes == 1:
            claims["1 node: pipeline <= barrier"] = pipeline <= barrier
            claims["1 node: no net traffic"] = net == 0.0
        else:
            claims[f"{nodes} nodes: pipeline < barrier"] = pipeline < barrier
            claims[f"{nodes} nodes: net traffic"] = net > 0.0
    return claims


def ablation_recompute_claims(results: Dict[tuple, object]
                              ) -> Dict[str, bool]:
    """The recompute ablation's claims (§4.2), by name.

    ``results[(arch, policy)]`` is one epoch's
    :class:`~repro.core.trainer.EpochResult` for ``arch`` in GCN and GAT
    under the ``hybrid`` and ``recompute`` policies. On GCN the hybrid
    policy's cached aggregate saves the backward's re-staging and
    re-aggregation: fewer H2D bytes, GPU seconds and epoch seconds, while
    its D2H (writebacks plus checkpoints) is at least recompute's. GAT's
    aggregate is not cacheable, so both policies recompute and every
    number is equal.
    """
    hybrid, recompute = results[("gcn", "hybrid")], \
        results[("gcn", "recompute")]
    gat_hybrid, gat_recompute = results[("gat", "hybrid")], \
        results[("gat", "recompute")]
    return {
        "gcn: hybrid H2D < recompute":
            hybrid.h2d_bytes < recompute.h2d_bytes,
        "gcn: hybrid GPU s < recompute":
            hybrid.clock.seconds["gpu"] < recompute.clock.seconds["gpu"],
        "gcn: hybrid epoch < recompute":
            hybrid.epoch_seconds < recompute.epoch_seconds,
        "gcn: hybrid D2H >= recompute":
            hybrid.d2h_bytes >= recompute.d2h_bytes,
        "gat: H2D equal": gat_hybrid.h2d_bytes == gat_recompute.h2d_bytes,
        "gat: D2H equal": gat_hybrid.d2h_bytes == gat_recompute.d2h_bytes,
        "gat: epoch equal":
            abs(gat_hybrid.epoch_seconds - gat_recompute.epoch_seconds)
            < 1e-12,
    }


def emit_json(name: str, metrics: dict,
              config=None, fleet: dict = None) -> None:
    """Archive simulated metrics as results/<name>.json for CI.

    ``metrics`` maps metric name → number. Metrics are *simulated*
    (deterministic across machines) and lower-is-better — the contract
    ``tools/check_bench_regression.py`` enforces against
    ``results/baseline.json``. Host wall clock is never archived here:
    it is gated by the calibrated perf bench (``benchmarks/perf/``).

    The payload's ``"step"`` names the CI job step that produced the
    result (:data:`CI_STEP`); the regression checker echoes it next to
    any failing metric.

    ``config`` records provenance: the producing
    :class:`~repro.core.HongTuConfig` (or any object with ``to_dict``,
    or a plain dict) is archived under ``"config"`` so a regressed
    number names the settings that produced it. The fleet's shape is the platform's to
    state, not the config's, so ``fleet`` archives the scenario's
    ``nodes`` / ``topology`` / ``oversubscription`` beside it.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    payload = {"bench": name, "step": CI_STEP,
               "metrics": {key: float(value)
                           for key, value in metrics.items()}}
    if config is not None:
        payload["config"] = (config.to_dict()
                             if hasattr(config, "to_dict") else dict(config))
    if fleet is not None:
        payload["fleet"] = dict(fleet)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
