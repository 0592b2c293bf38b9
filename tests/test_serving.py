"""Tests for the request-driven serving subsystem.

Covers the serving contracts end to end: arrival-process determinism,
admission-policy invariants on randomized traces, bit-identical serving
timelines across runs and against the scalar scheduler oracle
(the ``TestBatchedEmissionEquivalence`` contract extended to serving),
the analytic single-request latency identity on one GPU, and the
NaN-free percentile edge cases.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import ConfigurationError, ServingError
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    EventTimeline,
    MultiGPUPlatform,
)
from repro.runtime import CHANNELS
from repro.runtime.scheduler import EventScheduler
from repro.runtime.task import HOST_DEVICE
from repro.scenario import ClusterArgs
from scheduler_oracle import scheduler_state, task_rows, timeline_state
from serving_reference import ReferenceServingEngine
from repro.serving import (
    ArrivalProcess,
    BurstyArrivals,
    DeadlineBatchingPolicy,
    ImmediatePolicy,
    PoissonArrivals,
    ServeResult,
    ServingEngine,
    SizeBatchingPolicy,
    build_arrivals,
    build_policy,
    latency_percentile,
)
from repro.units import SCALAR_BYTES


def make_trainer(num_gpus=2, num_chunks=2, nodes=1, scale=0.12,
                 policy="hybrid", hidden=16):
    graph = load_dataset("reddit_sim", scale=scale, seed=3)
    dims = [graph.feature_dim, hidden, graph.num_classes]
    model = build_model("gcn", dims, np.random.default_rng(0))
    if nodes > 1:
        cluster = A100_CLUSTER.with_num_nodes(nodes)
        platform = ClusterPlatform(cluster, gpus_per_node=num_gpus)
    else:
        platform = MultiGPUPlatform(A100_SERVER, num_gpus=num_gpus)
    config = HongTuConfig(num_chunks=num_chunks,
                          intermediate_policy=policy, seed=0)
    return HongTuTrainer(graph, model, platform, config)


class FixedArrivals(ArrivalProcess):
    """Deterministic trace for tests: exactly the given timestamps."""

    kind = "fixed"

    def __init__(self, times, duration: float = 1.0, seed: int = 0):
        super().__init__(rate=1.0, duration=duration, seed=seed)
        self._times = np.asarray(times, dtype=np.float64)

    def generate(self) -> np.ndarray:
        return self._times.copy()


def random_trace(rng, n: int, mean_gap: float = 0.01) -> np.ndarray:
    """Sorted arrivals with strictly distinct times (positive gaps)."""
    gaps = rng.uniform(1e-6, 2 * mean_gap, size=n)
    return np.cumsum(gaps)


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------
class TestArrivals:
    def test_poisson_deterministic_under_seed(self):
        a = PoissonArrivals(200.0, 1.0, seed=11).generate()
        b = PoissonArrivals(200.0, 1.0, seed=11).generate()
        c = PoissonArrivals(200.0, 1.0, seed=12).generate()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_poisson_sorted_within_horizon(self):
        times = PoissonArrivals(500.0, 0.5, seed=0).generate()
        assert len(times) > 0
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 0.5

    def test_bursty_groups_of_burst_size(self):
        process = BurstyArrivals(400.0, 1.0, seed=4, burst_size=8)
        times = process.generate()
        assert len(times) % 8 == 0
        for epoch in times.reshape(-1, 8):
            assert np.all(epoch == epoch[0])
        assert np.all(np.diff(times) >= 0)

    def test_bursty_offered_load_matches_poisson(self):
        # Same expected requests/second: the burst epochs thin the
        # Poisson rate by exactly the burst size, so at a long horizon
        # the realized count is within a loose factor of the rate.
        times = BurstyArrivals(400.0, 20.0, seed=4, burst_size=8).generate()
        assert 0.5 * 400 * 20 < len(times) < 1.5 * 400 * 20

    def test_registry_and_validation(self):
        assert isinstance(build_arrivals("poisson", 10, 1.0),
                          PoissonArrivals)
        assert isinstance(build_arrivals("bursty", 10, 1.0),
                          BurstyArrivals)
        with pytest.raises(ServingError):
            build_arrivals("adversarial", 10, 1.0)
        with pytest.raises(ServingError):
            BurstyArrivals(10.0, 1.0, burst_size=0)

    @pytest.mark.parametrize("kind", ["poisson", "bursty"])
    @pytest.mark.parametrize("rate, duration", [
        (0.0, 1.0), (10.0, -1.0),
        # NaN used to pass both checks and serve 0 requests; an infinite
        # rate or horizon never leaves generate()'s loop
        (float("nan"), 1.0), (10.0, float("nan")),
        (float("inf"), 1.0), (10.0, float("inf")),
    ])
    def test_rejects_bad_rate_or_duration(self, kind, rate, duration):
        with pytest.raises(ServingError):
            build_arrivals(kind, rate, duration)

    @pytest.mark.parametrize("kind", ["poisson", "bursty"])
    @pytest.mark.parametrize("seed", [-1, 2.5, True, float("nan")])
    def test_rejects_a_seed_that_is_no_count(self, kind, seed):
        """-1 raised numpy's ValueError from ``generate()``; 2.5 was
        silently truncated to 2."""
        with pytest.raises(ServingError, match="seed"):
            build_arrivals(kind, 10.0, 1.0, seed=seed)

    def test_numpy_integer_seed_is_the_same_stream(self):
        np.testing.assert_array_equal(
            build_arrivals("poisson", 50.0, 1.0, seed=np.int64(3)).generate(),
            build_arrivals("poisson", 50.0, 1.0, seed=3).generate())


# ---------------------------------------------------------------------------
# admission policies (property tests on randomized traces)
# ---------------------------------------------------------------------------
class TestPolicyInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_partition_order_and_no_time_travel(self, seed):
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, int(rng.integers(1, 200)))
        for policy in (ImmediatePolicy(), SizeBatchingPolicy(7),
                       DeadlineBatchingPolicy(0.02)):
            batches = policy.admit(trace)
            served = [r for batch in batches for r in batch.requests]
            # Every request exactly once, in arrival order.
            assert served == list(range(len(trace)))
            previous = 0.0
            for batch in batches:
                # Dispatch never precedes a member's arrival, and the
                # dispatch sequence is monotone (the admission clock
                # chain depends on it).
                assert batch.dispatch_time >= trace[list(batch.requests)].max()
                assert batch.dispatch_time >= previous
                previous = batch.dispatch_time

    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 3), (2, 8), (3, 16)])
    def test_size_k_never_exceeds_k(self, seed, k):
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, int(rng.integers(1, 300)))
        batches = SizeBatchingPolicy(k).admit(trace)
        assert all(batch.size <= k for batch in batches)
        # All but the trailing batch are exactly full.
        assert all(batch.size == k for batch in batches[:-1])

    @pytest.mark.parametrize("seed,timeout", [(0, 0.0), (1, 0.001),
                                              (2, 0.05), (3, 0.5)])
    def test_deadline_never_holds_past_timeout(self, seed, timeout):
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, int(rng.integers(1, 300)))
        batches = DeadlineBatchingPolicy(timeout).admit(trace)
        for batch in batches:
            for request in batch.requests:
                wait = batch.dispatch_time - trace[request]
                assert wait <= timeout + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_immediate_is_the_fixed_point(self, seed):
        # On traces with strictly distinct arrival times, size(K=1) and
        # deadline(timeout=0) both degenerate to the immediate policy:
        # identical batch partitions AND identical dispatch times.
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, int(rng.integers(1, 150)))
        reference = ImmediatePolicy().admit(trace)
        for policy in (SizeBatchingPolicy(1), DeadlineBatchingPolicy(0.0)):
            batches = policy.admit(trace)
            assert [b.requests for b in batches] == \
                [b.requests for b in reference]
            assert [b.dispatch_time for b in batches] == \
                [b.dispatch_time for b in reference]

    def test_deadline_zero_coalesces_simultaneous_arrivals(self):
        # Tie semantics: a zero-timeout window still admits requests
        # arriving at the exact same instant — bursts coalesce, which is
        # why the fixed-point property above requires distinct times.
        trace = np.array([0.1, 0.1, 0.1, 0.2])
        batches = DeadlineBatchingPolicy(0.0).admit(trace)
        assert [b.requests for b in batches] == [(0, 1, 2), (3,)]

    def test_registry_and_validation(self):
        assert build_policy("immediate").name == "immediate"
        assert build_policy("size", batch_size=4).batch_size == 4
        assert build_policy("deadline", batch_timeout=0.1).timeout == 0.1
        with pytest.raises(ServingError):
            build_policy("clairvoyant")
        with pytest.raises(ServingError):
            SizeBatchingPolicy(0)

    @pytest.mark.parametrize("timeout", [-0.1, float("nan")])
    def test_deadline_rejects_bad_timeout(self, timeout):
        with pytest.raises(ServingError):
            build_policy("deadline", batch_timeout=timeout)

    @pytest.mark.parametrize("timeout", [float("inf"), True, "0.1"])
    def test_deadline_timeout_must_be_a_finite_number(self, timeout):
        """An infinite window used to reach the scheduler, which raised
        ``SchedulerError`` on the admission wave's infinite duration."""
        with pytest.raises(ServingError, match=">= 0 and finite"):
            DeadlineBatchingPolicy(timeout)


# ---------------------------------------------------------------------------
# percentile edge cases (the NaN-free fix)
# ---------------------------------------------------------------------------
class TestPercentiles:
    def test_empty_window_is_zero_not_nan(self):
        for pct in (0, 50, 95, 99, 100):
            value = latency_percentile([], pct)
            assert value == 0.0
            assert np.isfinite(value)

    def test_single_sample_every_percentile_is_it(self):
        for pct in (0, 1, 50, 99, 100):
            assert latency_percentile([0.42], pct) == 0.42

    def test_two_samples_split_at_median(self):
        values = [0.2, 0.1]
        assert latency_percentile(values, 50) == 0.1
        assert latency_percentile(values, 51) == 0.2
        assert latency_percentile(values, 99) == 0.2

    def test_nearest_rank_definition(self):
        values = np.arange(1, 101, dtype=np.float64)  # 1..100
        assert latency_percentile(values, 50) == 50.0
        assert latency_percentile(values, 95) == 95.0
        assert latency_percentile(values, 99) == 99.0
        assert latency_percentile(values, 100) == 100.0
        assert latency_percentile(values, 0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            latency_percentile([1.0], 101)
        with pytest.raises(ValueError):
            latency_percentile([1.0], -1)

    def test_empty_serve_result_is_finite(self):
        empty = np.empty(0, dtype=np.float64)
        result = ServeResult(
            arrivals=empty, completions=empty, latencies=empty,
            columns=empty.astype(np.int64),
            batch_sizes=empty.astype(np.int64),
            cache_hits=0, cache_misses=0, makespan=0.0, duration=1.0,
            net_bytes=0, arrival_kind="poisson", policy="immediate",
        )
        for value in (result.p50, result.p95, result.p99,
                      result.mean_latency, result.throughput,
                      result.goodput, result.mean_batch_size,
                      result.cache_hit_rate):
            assert value == 0.0


# ---------------------------------------------------------------------------
# serving timeline determinism + scalar-scheduler agreement
# ---------------------------------------------------------------------------
class TestServingDeterminism:
    @pytest.fixture(scope="class")
    def cluster_trainer(self):
        return make_trainer(num_gpus=2, nodes=2)

    def _serve(self, trainer, kind="poisson"):
        engine = ServingEngine(trainer)
        arrivals = build_arrivals(kind, 200.0, 0.5, seed=7)
        policy = build_policy("deadline", batch_timeout=0.005)
        return engine.serve(arrivals, policy)

    def test_bit_identical_across_runs(self, cluster_trainer):
        first = self._serve(cluster_trainer)
        second = self._serve(cluster_trainer)
        assert np.array_equal(first.latencies, second.latencies)
        assert first.p50 == second.p50
        assert first.p99 == second.p99
        assert first.makespan == second.makespan
        assert first.net_bytes == second.net_bytes
        first.timeline.validate()

    def test_scalar_scheduler_agrees_exactly(self, cluster_trainer,
                                             install_scheduler_oracle):
        batched = self._serve(cluster_trainer)
        install_scheduler_oracle()
        scalar = self._serve(cluster_trainer)
        assert type(batched.timeline.scheduler) is EventScheduler
        assert type(scalar.timeline.scheduler) is not EventScheduler
        assert np.array_equal(batched.latencies, scalar.latencies)
        assert batched.p50 == scalar.p50
        assert batched.p99 == scalar.p99
        assert batched.makespan == scalar.makespan
        assert (batched.timeline.scheduler.num_tasks
                == scalar.timeline.scheduler.num_tasks)
        scalar.timeline.validate()

    def test_cluster_serving_emits_halo_traffic(self, cluster_trainer):
        """The horizon's timeline is its byte ledger: its halo waves
        carry every net byte, per flow as in training."""
        result = self._serve(cluster_trainer)
        assert result.net_bytes > 0
        assert result.net_bytes == result.timeline.bytes_view()["net"]
        flows = ServingEngine(cluster_trainer).communicator \
            .net_bytes_by_flow(result.timeline)
        assert "halo_fetch" in flows
        assert set(flows) <= {"halo_load", "halo_fetch"}
        assert sum(sum(detail.values()) for detail in flows.values()) \
            == result.net_bytes

    @pytest.mark.parametrize("comm_mode",
                             ["baseline", "p2p", "ru", "hongtu"])
    def test_cold_serve_ships_every_remotely_owned_staged_row(
            self, comm_mode):
        """A cold serve stages the full transition set (nothing is
        resident), so its load halo covers the rows an epoch would have
        reused in place too — under ``ru`` it used to ship only the
        fresh ones."""
        graph = load_dataset("products_sim", scale=0.12, seed=0)
        args = ClusterArgs(hidden_dim=16, chunks=4, gpus=2, nodes=2)
        trainer = HongTuTrainer(
            graph, args.build_model(graph), args.build_platform(),
            args.build_config(comm_mode=comm_mode))
        comm = ServingEngine(trainer).communicator
        node = trainer.platform.placement
        owner = node[trainer.partition.assignment]
        row_bytes = 8
        shipped_total = reused_remote = 0
        for j, plans in enumerate(trainer.plan.plans):
            remote = sum(int((owner[plan.transition] != node[plan.gpu]).sum())
                         for plan in plans)
            reused_remote += sum(
                int((owner[plan.transition[plan.reuse_mask]]
                     != node[plan.gpu]).sum()) for plan in plans)
            timeline = EventTimeline()
            comm.submit_cold_load(timeline, j, row_bytes, None, f"[c{j}]")
            shipped = sum(comm.net_bytes_by_flow(timeline).get(
                "halo_load", {}).values())
            assert shipped == remote * row_bytes
            assert timeline.bytes_view()["h2d"] == sum(
                len(plan.transition) for plan in plans) * row_bytes
            shipped_total += shipped
        if comm_mode in ("p2p", "hongtu"):  # staged rows are owner-local
            assert shipped_total == 0
        else:
            assert shipped_total > 0
        # the case the fix is for is not vacuous
        assert (reused_remote > 0) == (comm_mode == "ru")

    def test_bursty_tail_dominates_poisson_at_equal_load(
            self, cluster_trainer):
        poisson = self._serve(cluster_trainer, kind="poisson")
        bursty = self._serve(cluster_trainer, kind="bursty")
        assert bursty.p99 > poisson.p99


# ---------------------------------------------------------------------------
# wave programs: replayed serving == the emitter straight on the timeline
# ---------------------------------------------------------------------------
class DirectEngine(ServingEngine):
    """The reference: no program, no recorder — every request runs the
    emitter directly against the horizon's ``EventTimeline``."""

    _replay_column = ServingEngine._emit_column


def assert_same_horizon(result, reference, skip=()):
    assert np.array_equal(result.latencies, reference.latencies)
    assert np.array_equal(result.completions, reference.completions)
    for field in ("net_bytes", "cache_hits", "cache_misses",
                  "cache_evictions", "makespan"):
        assert getattr(result, field) == getattr(reference, field), field
    ours, theirs = (timeline_state(r.timeline) for r in (result, reference))
    for key in ours:
        assert key in skip or ours[key] == theirs[key], key


def queue_intervals(timeline) -> dict:
    """(channel, device) -> that queue's sorted (start, end) pairs."""
    queues = {}
    for task in task_rows(timeline.scheduler):
        queues.setdefault((task.channel, task.device), []).append(
            (task.start, task.end))
    return {queue: sorted(pairs) for queue, pairs in queues.items()}


def assert_matches_reference(result, reference):
    """``result`` (admission as one wave) against the per-batch loop's
    horizon: equal in everything but the declared differences, which
    are pinned here."""
    for spec in fields(ServeResult):
        if spec.name == "timeline":
            continue
        ours, theirs = (getattr(r, spec.name) for r in (result, reference))
        if isinstance(ours, np.ndarray):
            assert ours.dtype == theirs.dtype, spec.name
            assert ours.tolist() == theirs.tolist(), spec.name
        else:
            assert ours == theirs, spec.name
    new, old = result.timeline, reference.timeline
    assert queue_intervals(new) == queue_intervals(old)
    assert new.busy_view() == old.busy_view()
    assert new.bytes_view() == old.bytes_view()
    ours, theirs = task_rows(new.scheduler), task_rows(old.scheduler)

    def critical(rows, timeline):
        return [(rows[i].channel, rows[i].device, rows[i].start, rows[i].end)
                for i in timeline.scheduler.critical_path().tolist()]

    assert critical(ours, new) == critical(theirs, old)
    new.validate()
    # Declared: the admission tasks are ids 0 .. B-1, one phase "admit"
    # listing no dependency (the host queue orders them); the loop gave
    # each batch its own phase, depending on the previous admission.
    num_batches = len(result.batch_sizes)
    admit = np.flatnonzero(
        old.scheduler.columns().channel == CHANNELS.index("cpu"))
    assert len(admit) == num_batches
    our_deps = scheduler_state(new.scheduler)["deps"]
    their_deps = scheduler_state(old.scheduler)["deps"]
    assert [task.device for task in ours[:num_batches]] == \
        [HOST_DEVICE] * num_batches
    assert {task.label for task in ours[:num_batches]} <= {"admit"}
    assert all(task.label != "admit" for task in ours[num_batches:])
    assert our_deps[:num_batches] == [[]] * num_batches
    assert [theirs[a].label for a in admit] == \
        [f"admit[{b}]" for b in range(num_batches)]
    assert [their_deps[a] for a in admit] == \
        [[]] + [[int(a)] for a in admit[:-1]]
    for task, a in zip(ours[:num_batches], admit):  # same times, blocker
        twin = theirs[a]
        assert (task.seconds, task.start, task.end) == \
            (twin.seconds, twin.start, twin.end)
        blocker = twin.blocked_by
        assert task.blocked_by == (
            -1 if blocker < 0 else int(np.searchsorted(admit, blocker)))
    # Declared: breakdown["cpu"] is the longest admission gap (one
    # phase), not the gaps' sum; every other channel is unchanged.
    gaps = [task.seconds for task in ours[:num_batches]]
    one_wave, per_batch = new.breakdown.as_dict(), old.breakdown.as_dict()
    assert one_wave.pop("cpu") == max(gaps, default=0.0)
    total = 0.0
    for gap in gaps:  # one phase per batch, charged in order
        total += gap
    assert per_batch.pop("cpu") == total
    assert one_wave == per_batch


SCENARIOS = {
    "flat": dict(),
    "spine_x2": dict(topology="spine", oversubscription=2.0),
    "rail": dict(topology="rail"),
    "hetero": dict(node_spec=["a100", "v100"]),
    "fault_window": dict(
        fault=["straggler:node=1,start=0,compute=0.5,nic=0.25"]),
    "evicting_budget": dict(),
}


class TestWaveProgramServing:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("reddit_sim", scale=0.12, seed=3)

    def make_trainer(self, graph, **scenario):
        args = ClusterArgs(hidden_dim=16, chunks=3, gpus=2, nodes=2,
                           **scenario)
        trainer = HongTuTrainer(
            graph, args.build_model(graph), args.build_platform(),
            args.build_config(intermediate_policy="hybrid",
                              overlap="pipeline"))
        trainer.train_epoch()  # checkpoints; applies any fault state
        return trainer

    @staticmethod
    def horizon(engine, seed=7, rate=600.0):
        return engine.serve(build_arrivals("bursty", rate, 0.1, seed=seed),
                            build_policy("deadline", batch_timeout=0.002))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_replay_equals_direct_emission(self, graph, name):
        trainer = self.make_trainer(graph, **SCENARIOS[name])
        warm_bytes = ServingEngine(trainer).cache_bytes
        assert warm_bytes > 0
        budget = warm_bytes * 2 // 3 if name == "evicting_budget" else None
        engines = [cls(trainer, cache_budget_bytes=budget)
                   for cls in (ServingEngine, DirectEngine)]
        for engine in engines:
            # half the pairs start cold: the day mixes cold, warm and
            # half-warm columns whatever the budget
            for pair in list(engine._cache)[::2]:
                engine._cache_bytes -= engine._cache.pop(pair)
        replayed, direct = (self.horizon(engine) for engine in engines)
        assert replayed.num_requests > 20
        assert replayed.cache_hits > 0 and replayed.cache_misses > 0
        assert replayed.net_bytes > 0
        assert_same_horizon(replayed, direct)
        flows = [engine.communicator.net_bytes_by_flow(result.timeline)
                 for engine, result in zip(engines, (replayed, direct))]
        assert flows[0] == flows[1]
        assert sum(sum(detail.values()) for detail in flows[0].values()) \
            == replayed.net_bytes
        assert list(engines[0]._cache.items()) == \
            list(engines[1]._cache.items())
        replayed.timeline.validate()
        # far fewer recordings than requests, and none on the reference
        programs = engines[0]._programs
        assert 0 < len(programs) < replayed.cache_hits + replayed.cache_misses
        assert len({warm for _j, warm in programs}) > 1
        assert not engines[1]._programs
        if name == "evicting_budget":
            assert replayed.cache_evictions > 0
        if name == "spine_x2":  # the halo waves carried their holds
            assert replayed.timeline.scheduler._free_shared
        if name == "fault_window":
            assert trainer.platform.fault_state is not None

    def test_oracle_scheduler_replays_identically(
            self, graph, install_scheduler_oracle):
        trainer = self.make_trainer(graph, topology="spine",
                                    oversubscription=2.0)
        engine = ServingEngine(trainer)
        engine.clear_cache()
        batched = self.horizon(engine)
        install_scheduler_oracle()
        engine = ServingEngine(trainer)
        engine.clear_cache()
        scalar = self.horizon(engine)
        assert type(scalar.timeline.scheduler) is not EventScheduler
        # the oracle adds a channel's busy seconds task by task, the
        # array step wave by wave: equal to rounding, not to the bit
        assert_same_horizon(batched, scalar, skip=("busy",))
        assert scalar.timeline.busy_view() == \
            pytest.approx(batched.timeline.busy_view(), rel=1e-12)

    #: the perf benchmark's ``serve_mixed`` day at its ``--tiny`` size
    #: (``benchmarks/perf/workloads.py``: ``_HORIZONS`` and
    #: ``ServeMixed.tiny_shape``): label -> (arrivals, policy, policy
    #: arguments, cache budget as a share of the warm set)
    BENCH_HORIZONS = {
        "a": ("poisson", "immediate", {}, None),
        "b": ("bursty", "size", {"batch_size": 8}, None),
        "c": ("poisson", "deadline", {"batch_timeout": 0.5e-3}, 0.25),
    }

    @pytest.fixture(scope="class")
    def bench_trainer(self):
        seed = 0
        graph = load_dataset("products_sim", scale=0.25, seed=seed + 42)
        args = ClusterArgs(seed=seed, arch="gcn", hidden_dim=8, layers=2,
                           chunks=4, gpus=2, nodes=2)
        trainer = HongTuTrainer(
            graph, args.build_model(graph), args.build_platform(),
            args.build_config(intermediate_policy="hybrid",
                              overlap="pipeline"))
        trainer.train_epoch()
        return trainer

    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["array_step", "oracle"])
    @pytest.mark.parametrize("label", sorted(BENCH_HORIZONS))
    def test_benchmark_horizons_replay_bit_identically(
            self, bench_trainer, label, oracle, install_scheduler_oracle):
        """The bit-identity the docs promise, on the path the benchmark
        runs: the engine ``serving_engine()`` hands out, replaying, and
        the emitter run per request straight onto the timeline leave the
        same completions, cache counters and schedule."""
        if oracle:
            install_scheduler_oracle()
        kind, policy, policy_args, share = self.BENCH_HORIZONS[label]
        warm_bytes = bench_trainer.serving_engine().cache_bytes
        budget = None if share is None else max(1, int(warm_bytes * share))
        horizons = []
        for engine in (
                bench_trainer.serving_engine(cache_budget_bytes=budget),
                DirectEngine(bench_trainer, cache_budget_bytes=budget)):
            arrivals = build_arrivals(kind, 4000.0, 0.03,
                                      seed="abc".index(label), burst_size=8)
            horizons.append(engine.serve(
                arrivals, build_policy(policy, **policy_args), slo=0.5e-3))
        replayed, direct = horizons
        assert (type(replayed.timeline.scheduler) is EventScheduler) \
            == (not oracle)
        assert replayed.num_requests > 50
        assert (replayed.cache_evictions > 0) == (label == "c")
        assert_same_horizon(replayed, direct)
        replayed.timeline.validate()

    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["array_step", "oracle"])
    @pytest.mark.parametrize("label", sorted(BENCH_HORIZONS))
    def test_benchmark_horizons_equal_the_per_batch_loop(
            self, bench_trainer, label, oracle, install_scheduler_oracle):
        """Admission as one wave, completions read once: the horizon the
        per-batch loop of ``tests/serving_reference.py`` leaves, up to
        the declared differences."""
        if oracle:
            install_scheduler_oracle()
        kind, policy, policy_args, share = self.BENCH_HORIZONS[label]
        warm_bytes = bench_trainer.serving_engine().cache_bytes
        budget = None if share is None else max(1, int(warm_bytes * share))
        result, reference = (
            cls(bench_trainer, cache_budget_bytes=budget).serve(
                build_arrivals(kind, 4000.0, 0.03, seed="abc".index(label),
                               burst_size=8),
                build_policy(policy, **policy_args), slo=0.5e-3)
            for cls in (ServingEngine, ReferenceServingEngine))
        assert result.num_requests > 50
        assert (result.cache_evictions > 0) == (label == "c")
        assert_matches_reference(result, reference)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios_equal_the_per_batch_loop(self, graph, name):
        trainer = self.make_trainer(graph, **SCENARIOS[name])
        warm_bytes = ServingEngine(trainer).cache_bytes
        budget = warm_bytes * 2 // 3 if name == "evicting_budget" else None
        engines = [cls(trainer, cache_budget_bytes=budget)
                   for cls in (ServingEngine, ReferenceServingEngine)]
        for engine in engines:
            for pair in list(engine._cache)[::2]:
                engine._cache_bytes -= engine._cache.pop(pair)
        result, reference = (self.horizon(engine) for engine in engines)
        assert result.cache_hits > 0 and result.cache_misses > 0
        assert max(result.batch_sizes) > 1
        assert_matches_reference(result, reference)
        assert list(engines[0]._cache.items()) == \
            list(engines[1]._cache.items())

    def test_one_admission_wave_and_one_read(self, bench_trainer,
                                             monkeypatch):
        """The work bound: per horizon one admission ``submit_batch``
        and one ``ends_of`` (every group's completion in one gather),
        per ``(batch, column)`` group one ``submit_program``."""
        calls = {"submit_batch": 0, "submit_program": 0, "ends_of": 0}
        for name in calls:
            method = getattr(EventScheduler, name)

            def counted(self, *args, _name=name, _method=method, **kw):
                calls[_name] += 1
                return _method(self, *args, **kw)

            monkeypatch.setattr(EventScheduler, name, counted)
        policy = build_policy("size", batch_size=8)
        engine = bench_trainer.serving_engine()
        result = engine.serve(
            build_arrivals("bursty", 4000.0, 0.03, seed=1, burst_size=8),
            policy, slo=0.5e-3)
        groups = {(b, int(result.columns[r]))
                  for b, batch in enumerate(policy.admit(result.arrivals))
                  for r in batch.requests}
        assert len(result.batch_sizes) > 1
        assert len(groups) > len(result.batch_sizes)  # batches span columns
        assert calls == {"submit_batch": 1, "submit_program": len(groups),
                         "ends_of": 1}

    def test_rates_version_bump_drops_the_programs(self, graph):
        """A fault applied between two horizons re-prices every second:
        the second horizon must equal a fresh engine's, not replay the
        first one's durations."""
        from repro.faults import FaultSchedule, Straggler

        trainer = self.make_trainer(graph)
        engine = ServingEngine(trainer)
        engine.clear_cache()
        healthy = self.horizon(engine)
        recorded_before = [program for program, _ in engine._programs.values()]
        assert recorded_before
        trainer.platform.apply_fault_state(FaultSchedule((
            Straggler(1, compute_factor=0.25, nic_factor=0.5),)).state_at(0.0))
        engine.clear_cache()
        degraded = self.horizon(engine)
        assert all(program not in recorded_before
                   for program, _ in engine._programs.values())
        assert degraded.makespan > healthy.makespan
        for cls in (ServingEngine, DirectEngine):
            fresh = cls(trainer)
            fresh.clear_cache()
            assert_same_horizon(degraded, self.horizon(fresh))

    def test_plan_swap_drops_the_programs(self, graph):
        """An elastic re-balance whose joint search re-cuts the
        partition swaps the trainer's plan (``free_checkpoints`` →
        ``plan_fleet`` → ``adopt``, the controller's steps): programs —
        and the cache — recorded against the old chunks must not
        survive it."""
        from repro.core.planner import plan_fleet
        from repro.partition import two_level_partition

        trainer = self.make_trainer(graph)
        engine = ServingEngine(trainer)
        self.horizon(engine)
        recorded_before = [program for program, _ in engine._programs.values()]
        assert recorded_before
        trainer.free_checkpoints()
        trainer.fleet.release()
        trainer.adopt(plan_fleet(
            graph, trainer.model, trainer.platform, trainer.config,
            partition=two_level_partition(
                graph, trainer.platform.num_gpus, trainer.config.num_chunks,
                seed=99)))
        assert trainer.plan is not engine.plan
        trainer.train_epoch()
        after = self.horizon(engine)
        assert engine.plan is trainer.plan
        assert all(program not in recorded_before
                   for program, _ in engine._programs.values())
        for cls in (ServingEngine, DirectEngine):
            assert_same_horizon(after, self.horizon(cls(trainer)))


# ---------------------------------------------------------------------------
# analytic latency identity (single request, single node, single GPU)
# ---------------------------------------------------------------------------
class TestAnalyticLatency:
    def test_single_request_costs_the_forward_sum(self):
        trainer = make_trainer(num_gpus=1, num_chunks=2)
        engine = ServingEngine(trainer)
        assert engine.warm_pairs == 0  # no training ran: all cold
        result = engine.serve(FixedArrivals([0.0]), ImmediatePolicy())
        assert result.num_requests == 1
        # No network tasks and no checkpoint charges on one node/GPU.
        assert result.net_bytes == 0
        assert result.cache_hits == 0
        assert result.cache_misses == len(trainer.model.layers)

        # Analytic forward-pass sum for the served column, accumulated
        # in emission order (the chain is strictly sequential on one
        # GPU, so latency must equal it to float identity).
        j = int(result.columns[0])
        platform = trainer.platform
        plan = trainer.plan.plans[j][0]
        block = trainer.partition.chunks[0][j].block
        expected = 0.0
        for l, layer in enumerate(trainer.model.layers):
            row_bytes = trainer.model.dims[l] * SCALAR_BYTES
            expected += platform.h2d_seconds(
                (plan.num_loaded + plan.num_reused) * row_bytes
            )
            # One GPU: a single segment, read from its own buffer.
            reader, source, rows = trainer.plan.segments(j)
            assert (reader.tolist(), source.tolist()) == ([0], [0])
            expected += platform.reuse_seconds(int(rows[0]) * row_bytes)
            expected += platform.gpu_compute_seconds(layer.forward_flops(
                block.num_src, block.num_dst, block.num_edges
            ))
            expected += platform.h2d_seconds(
                block.num_dst * layer.out_dim * SCALAR_BYTES
            )
        assert result.latencies[0] == expected
        result.timeline.validate()


# ---------------------------------------------------------------------------
# engine cache + admission semantics
# ---------------------------------------------------------------------------
class TestServingEngine:
    def test_cold_then_warm_same_column(self):
        trainer = make_trainer()
        engine = ServingEngine(trainer)
        cold = engine.serve(FixedArrivals([0.0]), ImmediatePolicy())
        warm = engine.serve(FixedArrivals([0.0]), ImmediatePolicy())
        # Same seed maps the request to the same column; the second
        # serve finds every layer warm and skips the staging front.
        assert cold.columns[0] == warm.columns[0]
        assert cold.cache_misses == len(trainer.model.layers)
        assert warm.cache_hits == len(trainer.model.layers)
        assert warm.cache_misses == 0
        assert warm.latencies[0] < cold.latencies[0]

    def test_hybrid_training_prewarms_cache(self):
        trainer = make_trainer()
        trainer.train_epoch()
        columns = trainer.checkpointed_columns()
        num_layers = len(trainer.model.layers)
        assert columns  # hybrid gcn checkpoints every cacheable layer
        assert all(0 <= l < num_layers and 0 <= j < trainer.plan.num_batches
                   for l, j in columns)
        engine = trainer.serving_engine()
        assert engine.warm_pairs == len(columns)
        engine.clear_cache()
        assert engine.warm_pairs == 0

    def test_admission_delay_reaches_latency(self):
        # Two simultaneous arrivals under a deadline window: both wait
        # for the window to close, so latency >= timeout for both.
        trainer = make_trainer()
        engine = ServingEngine(trainer)
        result = engine.serve(FixedArrivals([0.1, 0.1]),
                              DeadlineBatchingPolicy(0.05))
        assert result.num_requests == 2
        assert np.all(result.latencies >= 0.05)
        assert result.mean_batch_size == 2.0

    def test_empty_horizon_serves_nothing(self):
        trainer = make_trainer()
        engine = ServingEngine(trainer)
        result = engine.serve(FixedArrivals([]), ImmediatePolicy())
        assert result.num_requests == 0
        assert result.p50 == 0.0 and result.p99 == 0.0
        assert result.makespan == 0.0
        assert result.throughput == 0.0

    @pytest.mark.parametrize("slo", [0.0, -1.0, float("nan")])
    def test_rejects_invalid_slo(self, slo):
        trainer = make_trainer()
        engine = ServingEngine(trainer)
        with pytest.raises(ServingError):
            engine.serve(FixedArrivals([0.0]), ImmediatePolicy(), slo=slo)

    @pytest.fixture(scope="class")
    def trainer(self):
        return make_trainer()

    @pytest.mark.parametrize("budget", [
        float("nan"), float("inf"), True, 2.5, 8.0, "10", 0, -3,
        np.float64(64.0), np.bool_(True)])
    def test_rejects_a_budget_that_is_no_positive_integer(self, trainer,
                                                          budget):
        """``nan`` used to be accepted and act as unbounded; ``inf``,
        ``True`` and ``2.5`` were accepted too, ``"10"`` raised a stray
        ``TypeError``."""
        with pytest.raises(ConfigurationError, match="cache_budget_bytes"):
            ServingEngine(trainer, cache_budget_bytes=budget)

    @pytest.mark.parametrize("budget", [None, 1, np.int64(4096), 10**12])
    def test_accepts_none_or_a_positive_integer_budget(self, trainer,
                                                       budget):
        engine = ServingEngine(trainer, cache_budget_bytes=budget)
        assert engine.cache_budget_bytes == budget

    def test_column_seed_is_no_setting(self, trainer):
        """The columns draw from the arrival process's seed, always."""
        with pytest.raises(TypeError):
            ServingEngine(trainer).serve(FixedArrivals([0.0]),
                                         ImmediatePolicy(), column_seed=0)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7)])
    def test_columns_draw_from_the_arrival_seed(self, trainer, seed):
        result = ServingEngine(trainer).serve(
            FixedArrivals([0.0, 0.1], seed=seed), ImmediatePolicy())
        expected = np.random.default_rng(int(seed)).integers(
            trainer.plan.num_batches, size=2)
        assert result.columns.tolist() == expected.tolist()
