"""The four workloads of the perf benchmark.

Every workload has the same shape — ``setup`` (graph → ready
trainer/engine), ``step`` (the unit the runner times), ``finish``
(evaluate + report rendering, what a user run ends with) and ``checks``
(output correctness) — and each stresses a different layer, so a gain
for one use of a layer that costs another shows up (see README.md for
the interaction table). Inputs derive from the seed only: graph,
model init, partition and arrival streams.

Functions the traced run times are called through their public module
attribute (``repro.graph.load_dataset(...)``) so the tracer's wrappers,
installed on those attributes, are what runs.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

import repro.bench
import repro.comm
import repro.graph
import repro.partition
from repro.baselines.inmemory import InMemoryMultiGPUTrainer
from repro.core import HongTuTrainer
from repro.scenario import ClusterArgs
from repro.serving import build_arrivals, build_policy, latency_percentile

__all__ = ["WORKLOADS", "Workload"]

Check = Tuple[str, Callable[[], bool]]


def _fresh_graph(shape, seed: int):
    """Build the seed's graph as a fresh process would.

    ``load_dataset`` memoises per process; a user run builds its graph
    once, so every set-up does too.
    """
    getattr(repro.graph.load_dataset, "cache_clear", lambda: None)()
    return repro.graph.load_dataset(shape.dataset, scale=shape.scale,
                                    seed=seed + 42)


def _epoch_sim(result) -> Dict[str, float]:
    """Simulated metrics of one training epoch."""
    return {
        "sim_makespan_s": result.epoch_seconds,
        "sim_pcie_bytes": result.pcie_bytes,
        "sim_net_bytes": result.net_bytes,
        "sim_peak_gpu_bytes": result.peak_gpu_bytes,
    }


def _render_epoch(state) -> int:
    """The reports ``repro train`` ends with; returns characters rendered."""
    text = repro.bench.render_timeline(
        state.last.timeline, title="epoch channel utilization")
    if state.scenario.nodes > 1:
        text += repro.bench.render_node_utilization(
            state.last.timeline, state.trainer.platform,
            title="per-node busy seconds")
    return len(text)


def _partition_facts(trainer) -> Dict[str, float]:
    """Deterministic per-layer facts read off a constructed trainer."""
    partition = trainer.partition
    volumes = repro.comm.measure_volumes(partition)
    placed = trainer.placement_result
    return {
        "partition.edge_cut": repro.partition.edge_cut(
            trainer.graph, partition.assignment),
        "partition.placement_rows_saved_share": (
            placed.rows_saved / placed.rows_block
            if placed is not None and placed.rows_block else 0.0),
        "comm.plan_dedup_share": volumes.reduction_fraction,
        "plan_rows": volumes.v_ori,
    }


class Workload:
    """Protocol of a workload; see the module docstring."""

    name = ""
    why = ""
    #: steps of one user run — weights ``step_host_s`` in ``e2e_host_s``
    nominal_steps = 1
    shape: dict = {}
    tiny_shape: dict = {}

    def _shape(self, tiny: bool) -> SimpleNamespace:
        return SimpleNamespace(**(self.tiny_shape if tiny else self.shape))

    def setup(self, seed: int, tiny: bool) -> SimpleNamespace:
        raise NotImplementedError

    def step(self, state, lap: Callable[[str], None]
             ) -> Tuple[dict, Dict[str, int]]:
        """One timed step → (signature, counts).

        The signature holds what must be identical on every timed step
        (steady state under a fixed plan); counts feed the per-layer
        metrics and must repeat exactly too. A step of several seconds
        calls ``lap(label)`` between its parts, where the runner measures
        the host's speed again.
        """
        raise NotImplementedError

    def finish(self, state) -> Dict[str, float]:
        """Evaluate + render reports → the workload's simulated metrics."""
        raise NotImplementedError

    def checks(self, state) -> Iterator[Check]:
        raise NotImplementedError

    def facts(self, state) -> Dict[str, float]:
        """Per-layer facts of the final state (traced run, untimed)."""
        return _partition_facts(state.trainer)


# ----------------------------------------------------------------------
# training epochs
# ----------------------------------------------------------------------
class _Train(Workload):
    def setup(self, seed: int, tiny: bool) -> SimpleNamespace:
        shape = self._shape(tiny)
        graph = _fresh_graph(shape, seed)
        scenario = ClusterArgs(seed=seed, **shape.cluster)
        trainer = HongTuTrainer(
            graph, scenario.build_model(graph), scenario.build_platform(),
            scenario.build_config(intermediate_policy=shape.policy,
                                  overlap="pipeline"))
        return SimpleNamespace(graph=graph, scenario=scenario, shape=shape,
                               trainer=trainer, losses=[], last=None)

    def step(self, state, lap):
        result = state.trainer.train_epoch()
        state.last = result
        state.losses.append(result.loss)
        sim = _epoch_sim(result)
        return sim, {"tasks": result.timeline.scheduler.num_tasks}

    def finish(self, state):
        state.accuracy = state.trainer.evaluate()
        state.report_chars = _render_epoch(state)
        return _epoch_sim(state.last)

    def checks(self, state):
        yield "timeline.validate", lambda: state.last.timeline.validate() is None
        yield "loss decreases", lambda: state.losses[-1] < state.losses[0]


class TrainNumerics(_Train):
    name = "train_numerics"
    why = ("one node, big chunks: gnn aggregate/backward + autograd carry "
           "the step, scheduler and placement idle; shows a numerics gain, "
           "must stay flat for scheduler/planner changes")
    nominal_steps = 10
    shape = dict(
        dataset="friendster_sim", scale=2.0, policy="hybrid",
        cluster=dict(arch="gcn", hidden_dim=128, layers=3, chunks=4, gpus=4))
    tiny_shape = dict(
        dataset="friendster_sim", scale=0.05, policy="hybrid",
        cluster=dict(arch="gcn", hidden_dim=16, layers=3, chunks=2, gpus=2))

    def checks(self, state):
        yield from super().checks(state)
        yield "losses equal the in-memory trainer", lambda: _matches_oracle(state)


#: The in-memory trainer's unchunked epoch costs ~9 s at the timed size
#: (a 215k-edge x 384-feature message tensor), more than the whole timed
#: run, so the equivalence is checked on the same seed's graph and the
#: same cluster/model configuration at this dataset scale.
_ORACLE_SCALE = 0.15


def _matches_oracle(state) -> bool:
    """Chunked, offloaded training *is* full-graph training (rel 1e-6)."""
    shape, scenario = state.shape, state.scenario
    graph = repro.graph.load_dataset(
        shape.dataset, scale=min(shape.scale, _ORACLE_SCALE),
        seed=scenario.seed + 42)
    trainer = HongTuTrainer(
        graph, scenario.build_model(graph), scenario.build_platform(),
        scenario.build_config(intermediate_policy=shape.policy,
                              overlap="pipeline"))
    oracle = InMemoryMultiGPUTrainer(
        graph, scenario.build_model(graph), scenario.build_platform(),
        seed=scenario.seed)
    losses = [[t.train_epoch().loss for _ in range(2)]
              for t in (trainer, oracle)]
    return np.allclose(losses[0], losses[1], rtol=1e-6, atol=0.0)


class TrainCluster(_Train):
    name = "train_cluster"
    why = ("128 GPUs, tiny chunks, recompute backward, spine holds: "
           "comm.executor + wave emission + scheduler fallback carry the "
           "step, numerics small; the other use of train_numerics' layers")
    nominal_steps = 16
    shape = dict(
        dataset="it2004_sim", scale=2.0, policy="recompute",
        cluster=dict(arch="gcn", hidden_dim=32, layers=2, chunks=2, gpus=4,
                     nodes=32, topology="spine", oversubscription=2.0,
                     placement="search"))
    tiny_shape = dict(
        dataset="it2004_sim", scale=0.15, policy="recompute",
        cluster=dict(arch="gcn", hidden_dim=8, layers=2, chunks=2, gpus=2,
                     nodes=2, topology="spine", oversubscription=2.0,
                     placement="search"))


# ----------------------------------------------------------------------
# placement / plan preprocessing
# ----------------------------------------------------------------------
class PlanFleet(Workload):
    name = "plan_fleet"
    why = ("256 partitions on a rail fleet: each step plans one sweep "
           "candidate (joint placement, reorganize, plan build) and runs its "
           "one epoch; set-up is METIS; what a placement/topology sweep pays")
    nominal_steps = 8
    shape = dict(
        dataset="friendster_sim", scale=2.5,
        cluster=dict(arch="gcn", hidden_dim=32, layers=2, chunks=2, gpus=4,
                     nodes=64, topology="rail", placement="joint",
                     max_imbalance=1))
    tiny_shape = dict(
        dataset="friendster_sim", scale=0.15,
        cluster=dict(arch="gcn", hidden_dim=8, layers=2, chunks=2, gpus=2,
                     nodes=4, topology="rail", placement="joint",
                     max_imbalance=1))

    def setup(self, seed, tiny):
        shape = self._shape(tiny)
        graph = _fresh_graph(shape, seed)
        scenario = ClusterArgs(seed=seed, **shape.cluster)
        partition = repro.partition.two_level_partition(
            graph, scenario.nodes * scenario.gpus, scenario.chunks, seed=seed)
        return SimpleNamespace(graph=graph, scenario=scenario,
                               partition=partition, trainer=None, last=None)

    def step(self, state, lap):
        """Plan one candidate on a fresh platform/model, run its epoch.

        The search's work depends on the seed's graph (79-302 swaps over
        ten seeds); the epoch a sweep runs to read the candidate's makespan
        keeps that from being the whole step.
        """
        scenario = state.scenario
        state.trainer = HongTuTrainer(
            state.graph, scenario.build_model(state.graph),
            scenario.build_platform(),
            scenario.build_config(overlap="pipeline"),
            partition=state.partition)
        lap("plan")
        state.last = state.trainer.train_epoch()
        placed = state.trainer.placement_result
        signature = dict(_epoch_sim(state.last),
                         rows_block=placed.rows_block,
                         rows_search=placed.rows_search,
                         placement=placed.placement.tolist())
        return signature, {"tasks": state.last.timeline.scheduler.num_tasks,
                           "swaps": placed.swaps,
                           "iterations": len(placed.iterations)}

    def finish(self, state):
        state.report_chars = _render_epoch(state)
        return _epoch_sim(state.last)

    def checks(self, state):
        placed = state.trainer.placement_result
        yield "timeline.validate", lambda: state.last.timeline.validate() is None
        yield "rows_search <= rows_block", \
            lambda: placed.rows_search <= placed.rows_block


# ----------------------------------------------------------------------
# request-driven serving
# ----------------------------------------------------------------------
#: (label, arrival kind, policy, policy arguments, cache budget as a
#: share of the warm set — None keeps the cache unbounded)
_HORIZONS = (
    ("a", "poisson", "immediate", {}, None),
    ("b", "bursty", "size", {"batch_size": 8}, None),
    ("c", "poisson", "deadline", {"batch_timeout": 0.5e-3}, 0.25),
)


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("open-loop request traffic, ~20k tiny waves per horizon: "
           "runtime.scheduler and serving emission carry the step, numerics "
           "zero; horizon c shrinks the cache below the working set")
    nominal_steps = 4
    shape = dict(
        dataset="products_sim", scale=1.0, rate=20000.0, duration=0.18,
        slo=0.5e-3,
        cluster=dict(arch="gcn", hidden_dim=64, layers=2, chunks=4, gpus=4,
                     nodes=4))
    tiny_shape = dict(
        dataset="products_sim", scale=0.25, rate=4000.0, duration=0.03,
        slo=0.5e-3,
        cluster=dict(arch="gcn", hidden_dim=8, layers=2, chunks=4, gpus=2,
                     nodes=2))

    def setup(self, seed, tiny):
        shape = self._shape(tiny)
        graph = _fresh_graph(shape, seed)
        scenario = ClusterArgs(seed=seed, **shape.cluster)
        trainer = HongTuTrainer(
            graph, scenario.build_model(graph), scenario.build_platform(),
            scenario.build_config(intermediate_policy="hybrid",
                                  overlap="pipeline"))
        trainer.train_epoch()  # checkpoints warm the embedding cache
        return SimpleNamespace(
            graph=graph, scenario=scenario, trainer=trainer, shape=shape,
            warm_bytes=trainer.serving_engine().cache_bytes, last=None)

    def step(self, state, lap):
        """One serving day: three horizons on fresh engines."""
        shape = state.shape
        results = []
        counts: Dict[str, int] = {}
        for k, (label, kind, policy, policy_args, share) in \
                enumerate(_HORIZONS):
            budget = (None if share is None
                      else max(1, int(state.warm_bytes * share)))
            engine = state.trainer.serving_engine(cache_budget_bytes=budget)
            arrivals = build_arrivals(
                kind, shape.rate, shape.duration,
                seed=1000 * state.scenario.seed + k, burst_size=8)
            result = engine.serve(arrivals, build_policy(policy, **policy_args),
                                  slo=shape.slo)
            lap(label)
            results.append(result)
            counts.update({
                f"requests.{label}": result.num_requests,
                f"batches.{label}": len(result.batch_sizes),
                f"hits.{label}": result.cache_hits,
                f"misses.{label}": result.cache_misses,
                f"evictions.{label}": result.cache_evictions,
            })
        counts["tasks"] = sum(result.timeline.scheduler.num_tasks
                              for result in results)
        state.last = results
        return _day_sim(results), counts

    def finish(self, state):
        text = "".join(repro.bench.render_latency_report(result)
                       for result in state.last)
        # the per-node table only for the horizon that has network traffic
        text += repro.bench.render_node_utilization(
            state.last[-1].timeline, state.trainer.platform,
            title="per-node busy seconds")
        state.report_chars = len(text)
        return _day_sim(state.last)

    def checks(self, state):
        a, _b, c = state.last
        for label, result in zip("abc", state.last):
            yield f"timeline.validate {label}", \
                lambda result=result: result.timeline.validate() is None
        yield "horizon c evicts", lambda: c.cache_evictions > 0
        yield "horizon c is colder than a", \
            lambda: c.cache_hit_rate < a.cache_hit_rate


def _day_sim(results) -> Dict[str, float]:
    """Simulated metrics pooled over a day's requests."""
    latencies = np.concatenate([result.latencies for result in results])
    makespan = sum(result.makespan for result in results)
    met = int(np.count_nonzero(latencies <= results[0].slo))
    return {
        "sim_makespan_s": makespan,
        "sim_net_bytes": sum(result.net_bytes for result in results),
        "sim_p50_s": latency_percentile(latencies, 50),
        "sim_p999_s": latency_percentile(latencies, 99.9),
        "sim_goodput_rps": met / makespan,
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (TrainNumerics(), TrainCluster(), PlanFleet(),
                     ServeMixed())
}
