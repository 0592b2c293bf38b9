"""Print a hash of everything a training run computes, as JSON.

A change that claims to keep every number — a refactor, or an
optimisation that skips dead work — must produce the same epochs as its
parent, bit for bit. This runs a fixed small grid and prints one digest
per value, so the parent/change comparison is one ``diff``:

* the architectures GCN, GraphSAGE, GIN, CommNet, GAT and GGNN ×
  intermediate policy × overlap policy × {1, 2} nodes, three epochs
  each — the first records its layer sweeps and replays them, the later
  two only replay (``HongTuTrainer``'s sweep programs; the count stays
  three so the digests compare with earlier commits, whose second epoch
  recorded): every :class:`~repro.core.trainer.EpochResult` field,
  every timeline column (and the phase labels), the final parameters
  and the accuracies of ``evaluate()``. The four cacheable layers each
  take the batch AGGREGATE in their own way; GAT and GGNN take the
  other path, a chunk's input rows and the full tape (GGNN's through
  five ``Linear`` nodes, GAT's through none);
* the four ``benchmarks/perf`` workloads at their ``--tiny`` sizes: two
  steps, then the step's signature and counts, the timelines of the last
  step and the trainer's final parameters.

Usage::

    python tools/fingerprint.py > change.json
    # in a clone of the parent commit (copy this file there if it predates it)
    python tools/fingerprint.py > parent.json
    diff parent.json change.json

The command prints seed 0's digests. ``fingerprint(seed)`` seeds the
graphs, models and partitions, so a different seed must print different
digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for _entry in (ROOT, ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

ARCHS = ("gcn", "graphsage", "gin", "commnet", "gat", "ggnn")
POLICIES = ("hybrid", "recompute")
OVERLAPS = ("barrier", "pipeline")
NODES = (1, 2)
EPOCHS = 3
#: the grid's graph: 409 vertices, 32 features at seed 0
DATASET, SCALE = "friendster_sim", 0.05
#: the timeline's per-task columns (``TaskColumns`` minus ``used``)
COLUMNS = ("device", "channel", "seconds", "nbytes", "phase", "start", "end", "blocked_by")


def digest(value: Any) -> str:
    """A short hash of ``value``: an array's dtype, shape and bytes, or any
    other value's ``repr`` (exact for floats)."""
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        payload = f"{array.dtype.str}{array.shape}".encode() + array.tobytes()
    else:
        payload = repr(value).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def timeline_digests(timeline: Any) -> Dict[str, str]:
    """One digest per task column of ``timeline``, plus its phase labels
    and the devices each channel used."""
    scheduler = timeline.scheduler
    columns = scheduler.columns()
    out = {name: digest(getattr(columns, name)) for name in COLUMNS}
    out["phase_labels"] = digest(scheduler.phase_labels())
    out["used"] = digest([used.tolist() for used in columns.used])
    return out


def epoch_digests(result: Any) -> Dict[str, str]:
    """Every field of an ``EpochResult``, its derived views and its
    timeline."""
    out = {
        name: digest(getattr(result, name))
        for name in ("epoch", "loss", "peak_gpu_bytes", "host_bytes", "rebalance")
    }
    out["epoch_seconds"] = digest(result.epoch_seconds)
    out["bytes_view"] = digest(sorted(result.timeline.bytes_view().items()))
    out["breakdown"] = digest(result.clock)
    out.update({f"timeline.{k}": v for k, v in timeline_digests(result.timeline).items()})
    return out


def parameter_digests(model: Any) -> Dict[str, str]:
    """One digest per parameter of ``model``, in parameter order."""
    return {f"param{k}": digest(p.data) for k, p in enumerate(model.parameters())}


def grid(seed: int) -> Dict[str, Dict[str, str]]:
    """Digests of every grid configuration's ``EPOCHS`` epochs."""
    import repro.graph
    from repro.core import HongTuTrainer
    from repro.partition import two_level_partition
    from repro.scenario import ClusterArgs

    graph = repro.graph.load_dataset(DATASET, scale=SCALE, seed=seed)
    # one partition per fleet size; the perf workloads run METIS themselves
    partitions = {nodes: two_level_partition(graph, 2 * nodes, 2, seed=seed) for nodes in NODES}
    out: Dict[str, Dict[str, str]] = {}
    for arch, policy, overlap, nodes in itertools.product(ARCHS, POLICIES, OVERLAPS, NODES):
        scenario: Any = ClusterArgs(
            arch=arch, hidden_dim=8, layers=2, chunks=2, gpus=2, nodes=nodes, seed=seed
        )
        trainer = HongTuTrainer(
            graph,
            scenario.build_model(graph),
            scenario.build_platform(),
            scenario.build_config(intermediate_policy=policy, overlap=overlap),
            partition=partitions[nodes],
        )
        entry: Dict[str, str] = {}
        for result in trainer.train(EPOCHS):
            digests = epoch_digests(result)
            entry.update({f"e{result.epoch}.{k}": v for k, v in digests.items()})
        entry.update(parameter_digests(trainer.model))
        entry["evaluate"] = digest(sorted(trainer.evaluate().items()))
        out[f"{arch}/{policy}/{overlap}/nodes{nodes}"] = entry
    return out


def workloads(seed: int) -> Dict[str, Dict[str, str]]:
    """Digests of the perf workloads' tiny runs (two steps each)."""
    from benchmarks.perf.workloads import WORKLOADS

    def no_lap(label: Optional[str]) -> None:
        """The perf runner re-calibrates at a lap; nothing to do here."""

    out: Dict[str, Dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        state = workload.setup(seed, True)
        for _ in range(2):
            signature, counts = workload.step(state, no_lap)
        entry = {
            "signature": digest(sorted(signature.items())),
            "counts": digest(sorted(counts.items())),
        }
        last = state.last if isinstance(state.last, list) else [state.last]
        for k, result in enumerate(last):
            entry.update({f"run{k}.{c}": v for c, v in timeline_digests(result.timeline).items()})
        entry.update(parameter_digests(state.trainer.model))
        out[name] = entry
    return out


def fingerprint(seed: int) -> Dict[str, Dict[str, Dict[str, str]]]:
    """The whole fingerprint of ``seed``: part → run → value → digest."""
    return {"grid": grid(seed), "workloads": workloads(seed)}


def main() -> int:
    print(json.dumps(fingerprint(0), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
