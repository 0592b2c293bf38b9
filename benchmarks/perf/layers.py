"""Per-layer metrics from the traced run's ledgers.

A layer's ``*_s`` is the median of its self time per timed step where the
layer runs inside the steps of the workload, else per set-up, else in the
finish phase — so ``partition.metis_s`` reads set-up cost everywhere and
``comm.plan_s`` reads step cost on ``plan_fleet`` and set-up cost on the
train workloads (README.md says which phase each workload uses). Counts
come from the same phase and repeat exactly from step to step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from benchmarks.perf.metrics import HORIZONS
from benchmarks.perf.tracing import Ledger

__all__ = ["layer_metrics"]

_PHASE_ORDER = ("step", "setup", "finish")
_SUBMIT = "runtime.scheduler/EventScheduler.submit"
_SUBMIT_BATCH = "runtime.scheduler/EventScheduler.submit_batch"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class _Phases:
    def __init__(self, phases: Dict[str, List[Ledger]]) -> None:
        self.phases = phases

    def of(self, layer: str) -> List[Ledger]:
        """Ledgers of the first phase the layer spends time in."""
        for phase in _PHASE_ORDER:
            ledgers = self.phases.get(phase, [])
            if any(ledger.layer(layer) for ledger in ledgers):
                return ledgers
        return []

    def total(self, name: str, field: str = "self_s", within: str = ""):
        """Median of one layer's (or span name's) total, taken over the
        windows of the phase ``within`` (default: the name itself) is in."""
        return _median([ledger.layer(name, field)
                        for ledger in self.of(within or name)])


def _serving(out: Dict[str, float], suffix: str, counts: Dict[str, int],
             labels: Sequence[str], self_s: float, wall_s: float) -> None:
    def total(key: str) -> int:
        return sum(counts.get(f"{key}.{label}", 0) for label in labels)

    requests = total("requests")
    hits = total("hits")
    out.update({
        f"serving.engine_self_s{suffix}": self_s,
        f"serving.requests{suffix}": requests,
        f"serving.requests_per_host_s{suffix}": _ratio(requests, wall_s),
        f"serving.cache_hit_share{suffix}":
            _ratio(hits, hits + total("misses")),
        f"serving.evictions{suffix}": total("evictions"),
        f"serving.mean_batch{suffix}": _ratio(requests, total("batches")),
    })


def layer_metrics(phases: Dict[str, List[Ledger]], step_walls: List[float],
                  laps: List[Dict[str, tuple]], counts: Dict[str, int],
                  facts: Dict[str, float]) -> Dict[str, float]:
    """Every ledger-derived per-layer metric of one traced workload run.

    ``laps[i][label]`` is ``(wall seconds, ledger window)`` of one serving
    horizon of traced step ``i``; ``facts`` are the workload's
    deterministic facts about its final state.
    """
    p = _Phases(phases)
    out: Dict[str, float] = {}
    for layer, metric in (
            ("graph.load", "graph.load_s"),
            ("partition.metis", "partition.metis_s"),
            ("partition.placement", "partition.placement_s"),
            ("comm.joint", "comm.joint_s"),
            ("comm.reorganize", "comm.reorganize_s"),
            ("comm.plan", "comm.plan_s"),
            ("comm.executor", "comm.executor_s"),
            ("runtime.scheduler", "runtime.scheduler_s"),
            ("hardware.timeline", "hardware.timeline_self_s"),
            ("gnn.aggregate", "gnn.aggregate_s"),
            ("gnn.aggregate_backward", "gnn.aggregate_backward_s"),
            ("gnn.update", "gnn.update_s"),
            ("autograd.backward", "autograd.backward_s"),
            ("autograd.optim", "autograd.optim_s"),
            ("core.trainer", "core.trainer_self_s"),
            ("core.evaluate", "core.evaluate_s"),
            ("bench.reporting", "bench.reporting_s"),
            ("run/step", "untraced_remainder_s")):
        out[metric] = p.total(layer)

    out["graph.edges"] = p.total("graph.load", "units")
    out["partition.metis_edges_per_s"] = _ratio(
        p.total("partition.metis", "units"), out["partition.metis_s"])
    out["partition.placement_swaps"] = p.total("partition.placement", "units")
    out["comm.joint_iterations"] = p.total("comm.joint", "units")
    out["comm.reorganize_kept_share"] = _ratio(
        p.total("comm.reorganize", "units"),
        p.total("comm.reorganize", "calls"))
    out["comm.plan_rows_per_s"] = _ratio(
        facts.get("plan_rows", 0), p.total("comm.plan/build_comm_plan"))
    out["comm.executor_calls"] = p.total("comm.executor", "calls")
    out["comm.executor_rows"] = p.total("comm.executor", "units")

    scheduler = "runtime.scheduler"
    batched = p.total(_SUBMIT_BATCH, "units", within=scheduler)
    waves = p.total(_SUBMIT_BATCH, "calls", within=scheduler)
    tasks = batched + p.total(_SUBMIT, "calls", within=scheduler)
    out["runtime.scheduler_tasks"] = tasks
    out["runtime.scheduler_waves"] = waves
    out["runtime.scheduler_mean_wave"] = _ratio(batched, waves)
    out["runtime.scheduler_tasks_per_s"] = _ratio(
        tasks, out["runtime.scheduler_s"])

    out["gnn.edges_per_s"] = _ratio(
        p.total("gnn.aggregate", "units")
        + p.total("gnn.aggregate_backward", "units"),
        out["gnn.aggregate_s"] + out["gnn.aggregate_backward_s"])

    engine = "serving.engine"
    _serving(out, "", counts, HORIZONS, p.total(engine), _median(step_walls))
    for label in HORIZONS:
        windows = [lap[label] for lap in laps if label in lap]
        _serving(out, f".{label}", counts, (label,),
                 _median([ledger.layer(engine) for _wall, ledger in windows]),
                 _median([wall for wall, _ledger in windows]))

    out.update({name: value for name, value in facts.items()
                if name != "plan_rows"})
    return out
