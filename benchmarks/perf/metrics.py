"""Metric names, units and directions of the perf benchmark.

One table for everything the runner prints. ``BENCHMARK.json`` repeats
the names, units and directions (plus the regression bounds) for the
driver; ``test_perf_smoke.py`` asserts the two agree.

Every number is **host** (what the simulator costs to run: wall clock,
resident memory) or **sim** (what the modelled hardware would do:
simulated seconds, bytes on modelled links). Sim values and counts are
deterministic for a seed; host values carry the machine's noise.

Host *times* are ``perf_counter`` wall seconds divided by how much slower
than the reference host the machine ran beside the measured interval
(``run._Run.rooted``): the sandbox was seen to run 1.65x slower for
10-20 s at a time, several times a minute, which no bound survives.
"""

from __future__ import annotations

import re
from typing import Dict, NamedTuple

__all__ = ["Metric", "REFERENCE_SECONDS", "END_TO_END", "REPORT_ONLY",
           "PER_LAYER", "PROBES", "HORIZONS", "NAME_PATTERN", "metric_json"]

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: what ``probes.calibration_samples`` reads on the reference host — this
#: sandbox between its slow episodes
REFERENCE_SECONDS = 0.010

#: serving horizons of one ``serve_mixed`` day
HORIZONS = ("a", "b", "c")


class Metric(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    kind: str    # "host" | "sim" | "count"


def _host(unit: str = "s") -> Metric:
    return Metric(unit, "lower", "host")


#: gated by the driver — every workload reports every one, none is ever 0
END_TO_END: Dict[str, Metric] = {
    "setup_s": _host(),
    "step_host_s": _host(),
    "e2e_host_s": _host(),
    "peak_rss_mb": _host("MiB"),
    # unit "sim_s" keeps simulated seconds apart from host seconds
    "sim_makespan_s": Metric("sim_s", "lower", "sim"),
}

#: user-visible results that only some workloads have (0 elsewhere), so
#: they cannot be driver-gated end-to-end metrics; printed by every run
#: and carried through the traced run's metric list
REPORT_ONLY: Dict[str, Metric] = {
    "sim_pcie_bytes": Metric("bytes", "lower", "sim"),
    "sim_net_bytes": Metric("bytes", "lower", "sim"),
    "sim_peak_gpu_bytes": Metric("bytes", "lower", "sim"),
    "sim_p50_s": Metric("sim_s", "lower", "sim"),
    "sim_p999_s": Metric("sim_s", "lower", "sim"),
    "sim_goodput_rps": Metric("1/sim_s", "higher", "sim"),
}

_SERVING = {
    "serving.engine_self_s": _host(),
    "serving.requests": Metric("count", "higher", "count"),
    "serving.requests_per_host_s": Metric("1/s", "higher", "host"),
    "serving.cache_hit_share": Metric("share", "higher", "sim"),
    "serving.evictions": Metric("count", "lower", "count"),
    "serving.mean_batch": Metric("count", "higher", "sim"),
}

#: traced run only; ``*_s`` is the layer's self time per step where the
#: layer runs inside the timed steps of the workload, else per set-up
LAYERS: Dict[str, Metric] = {
    "graph.load_s": _host(),
    "graph.edges": Metric("count", "higher", "count"),
    "partition.metis_s": _host(),
    "partition.metis_edges_per_s": Metric("1/s", "higher", "host"),
    "partition.edge_cut": Metric("count", "lower", "sim"),
    "partition.placement_s": _host(),
    "partition.placement_swaps": Metric("count", "lower", "count"),
    "partition.placement_rows_saved_share": Metric("share", "higher", "sim"),
    "comm.joint_s": _host(),
    "comm.joint_iterations": Metric("count", "lower", "count"),
    "comm.reorganize_s": _host(),
    "comm.reorganize_kept_share": Metric("share", "lower", "sim"),
    "comm.plan_s": _host(),
    "comm.plan_rows_per_s": Metric("1/s", "higher", "host"),
    "comm.plan_dedup_share": Metric("share", "higher", "sim"),
    "comm.executor_s": _host(),
    "comm.executor_calls": Metric("count", "lower", "count"),
    "comm.executor_rows": Metric("count", "lower", "count"),
    "runtime.scheduler_s": _host(),
    "runtime.scheduler_tasks": Metric("count", "lower", "count"),
    "runtime.scheduler_waves": Metric("count", "lower", "count"),
    "runtime.scheduler_mean_wave": Metric("count", "higher", "count"),
    "runtime.scheduler_tasks_per_s": Metric("1/s", "higher", "host"),
    "hardware.timeline_self_s": _host(),
    "gnn.aggregate_s": _host(),
    "gnn.aggregate_backward_s": _host(),
    "gnn.update_s": _host(),
    "gnn.edges_per_s": Metric("1/s", "higher", "host"),
    "autograd.backward_s": _host(),
    "autograd.optim_s": _host(),
    "core.trainer_self_s": _host(),
    "core.evaluate_s": _host(),
    **_SERVING,
    **{f"{name}.{h}": metric
       for name, metric in _SERVING.items() for h in HORIZONS},
    "bench.reporting_s": _host(),
    "untraced_remainder_s": _host(),
    "trace.overhead_share": Metric("share", "lower", "host"),
    "trace.targets_missing": Metric("count", "lower", "count"),
}

#: fixed synthetic inputs, traced run only; they explain a step-time
#: change, they are never the claim
PROBES: Dict[str, Metric] = {
    "probe.calibration_s": _host(),
    "probe.scheduler_wave_tasks_per_s": Metric("1/s", "higher", "host"),
    "probe.scheduler_scalar_tasks_per_s": Metric("1/s", "higher", "host"),
    "probe.scheduler_shared_tasks_per_s": Metric("1/s", "higher", "host"),
    "probe.metis_edges_per_s": Metric("1/s", "higher", "host"),
    "probe.plan_rows_per_s": Metric("1/s", "higher", "host"),
    "probe.placement_partitions_per_s": Metric("1/s", "higher", "host"),
    "probe.aggregate_edges_per_s": Metric("1/s", "higher", "host"),
    "probe.aggregate_backward_edges_per_s": Metric("1/s", "higher", "host"),
    "probe.executor_rows_per_s": Metric("1/s", "higher", "host"),
}

PER_LAYER: Dict[str, Metric] = {**LAYERS, **REPORT_ONLY, **PROBES}


def metric_json(values: Dict[str, float], table: Dict[str, Metric]) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of ``table``.

    A metric the workload does not produce reads 0 (only possible for
    per-layer metrics; the end-to-end ones exist on every workload).
    """
    return {name: {"value": values.get(name, 0), "unit": table[name].unit}
            for name in table}
