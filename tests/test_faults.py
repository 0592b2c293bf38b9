"""Fault schedules, fleet degradation, and online elastic re-balance.

Covers the contract layers bottom-up: spec parsing and schedule
semantics (pure data), platform rate perturbation (deaths permanent,
inactive states no-ops), the fault-aware cluster cost model, the
float-identity guarantee of an *empty* schedule on both scheduler
cores, and the trainer's epoch-boundary detect → re-search → migrate
loop.
"""

import json
import math

import numpy as np
import pytest

from repro.autograd import SGD
from repro.comm.cost_model import ClusterCostModel
from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import ConfigurationError, FaultError
from repro.faults import (
    FaultSchedule,
    FaultState,
    LinkDegradation,
    NodeDeath,
    Straggler,
    parse_fault,
)
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    MultiGPUPlatform,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products_sim", scale=0.08, seed=42)


def make_trainer(graph, nodes=3, faults=None, elastic=True,
                 placement="search", max_imbalance=2, epochs_hidden=8,
                 rebalance_trigger=1.05):
    platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(nodes),
                               gpus_per_node=2)
    model = build_model(
        "gcn", [graph.feature_dim, epochs_hidden, graph.num_classes],
        np.random.default_rng(0))
    config = HongTuConfig(
        num_chunks=2, overlap="pipeline", faults=faults,
        elastic=elastic, placement=placement,
        max_imbalance=max_imbalance, rebalance_trigger=rebalance_trigger,
        seed=0)
    return HongTuTrainer(graph, model, platform, config,
                         optimizer=SGD(model.parameters(), lr=0.02))


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
class TestParseFault:
    def test_straggler_grammar(self):
        fault = parse_fault("straggler:node=1,start=2,compute=0.5,nic=0.25")
        assert fault == Straggler(node=1, start=2.0, compute_factor=0.5,
                                  nic_factor=0.25)
        assert fault.end == math.inf

    def test_link_grammar(self):
        fault = parse_fault("link:src=0,dst=2,factor=0.5,end=9")
        assert fault == LinkDegradation(src=0, dst=2, factor=0.5, end=9.0)

    def test_death_grammar(self):
        assert parse_fault("death:node=2,at=5") == NodeDeath(node=2, at=5.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(FaultError, match="bad fault spec"):
            parse_fault("crash:node=1")

    def test_rejects_missing_required_field(self):
        with pytest.raises(FaultError, match="missing required field"):
            parse_fault("death:node=1")

    def test_rejects_unknown_field(self):
        with pytest.raises(FaultError, match="unknown straggler"):
            parse_fault("straggler:node=1,compute=0.5,flux=3")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(FaultError, match="bad straggler fault value"):
            parse_fault("straggler:node=1,compute=fast")

    def test_from_specs_builds_schedule(self):
        schedule = FaultSchedule.from_specs(
            ["straggler:node=0,nic=0.5", "death:node=1,at=3"])
        assert len(schedule) == 2


# ----------------------------------------------------------------------
# schedule + state semantics
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_empty_schedule_is_falsy_and_inactive(self):
        schedule = FaultSchedule.empty()
        assert not schedule
        assert schedule.state_at(0.0).inactive
        assert schedule.state_at(1e9).inactive

    def test_windows_bound_activity(self):
        schedule = FaultSchedule((
            Straggler(0, start=1.0, end=2.0, compute_factor=0.5),))
        assert schedule.state_at(0.5).inactive
        assert schedule.state_at(1.0).compute_factors() == {0: 0.5}
        assert schedule.state_at(2.0).inactive  # half-open [start, end)

    def test_overlapping_stragglers_multiply(self):
        schedule = FaultSchedule((
            Straggler(1, compute_factor=0.5),
            Straggler(1, compute_factor=0.5),))
        assert schedule.state_at(0.0).compute_factors() == {1: 0.25}

    def test_deaths_accumulate(self):
        schedule = FaultSchedule((NodeDeath(0, at=1.0), NodeDeath(2, at=2.0)))
        assert schedule.state_at(0.5).dead == frozenset()
        assert schedule.state_at(1.5).dead == frozenset({0})
        assert schedule.state_at(2.5).dead == frozenset({0, 2})

    def test_validate_rejects_out_of_range_node(self):
        schedule = FaultSchedule((NodeDeath(5, at=1.0),))
        with pytest.raises(FaultError, match="references node 5"):
            schedule.validate_for(3)

    def test_validate_rejects_killing_everyone(self):
        schedule = FaultSchedule(tuple(NodeDeath(n, at=1.0)
                                       for n in range(3)))
        with pytest.raises(FaultError, match="at least one"):
            schedule.validate_for(3)

    def test_rejects_non_fault_members(self):
        with pytest.raises(FaultError, match="not a fault"):
            FaultSchedule(("node 1 dies",))

    def test_dict_round_trip(self):
        schedule = FaultSchedule((
            Straggler(1, start=2.0, compute_factor=0.5),
            LinkDegradation(0, 2, factor=0.25, end=7.0),
            NodeDeath(2, at=5.0),))
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule

    def test_dict_is_strict_json(self):
        # Open-ended windows (end=inf) must not leak the non-standard
        # Infinity literal into archived artifacts.
        schedule = FaultSchedule((Straggler(0, nic_factor=0.5),))
        text = json.dumps(schedule.to_dict(), allow_nan=False)
        assert FaultSchedule.from_dict(json.loads(text)) == schedule

    def test_state_canonical_equality(self):
        # Factor-1.0 entries are dropped, so equality is structural.
        assert FaultState(compute=((1, 1.0),)) == FaultState()
        assert FaultState(compute=((1, 1.0),)).inactive


# ----------------------------------------------------------------------
# config integration
# ----------------------------------------------------------------------
class TestConfigFaults:
    def test_rejects_faults_on_one_node(self, graph):
        """The fleet-level rules fire where the platform is known: at
        trainer construction (an *empty* schedule stays admissible)."""
        model = build_model("gcn", [graph.feature_dim, 8, graph.num_classes],
                            np.random.default_rng(0))
        platform = MultiGPUPlatform(A100_SERVER, num_gpus=2)
        config = HongTuConfig(faults=FaultSchedule((NodeDeath(0, at=1.0),)))
        with pytest.raises(ConfigurationError, match="more than one node"):
            HongTuTrainer(graph, model, platform, config)
        HongTuTrainer(graph, model, platform,
                      HongTuConfig(faults=FaultSchedule(())))

    def test_rejects_schedule_beyond_fleet(self, graph):
        with pytest.raises(ConfigurationError, match="invalid for 2"):
            make_trainer(graph, nodes=2,
                         faults=FaultSchedule((NodeDeath(5, at=1.0),)))

    def test_rejects_non_schedule_faults(self):
        with pytest.raises(ConfigurationError, match="FaultSchedule"):
            HongTuConfig(faults=["death:node=0,at=1"])

    @pytest.mark.parametrize("trigger", [1.0, 0.5, float("nan")])
    def test_rejects_trivial_trigger(self, trigger):
        """NaN included: ``makespan > nan * expected`` never fires."""
        with pytest.raises(ConfigurationError, match="rebalance_trigger"):
            HongTuConfig(rebalance_trigger=trigger)

    def test_dict_round_trip_with_schedule(self):
        config = HongTuConfig(
            placement="search", max_imbalance=1,
            faults=FaultSchedule((Straggler(2, compute_factor=0.5),
                                  NodeDeath(1, at=4.0))))
        clone = HongTuConfig.from_dict(config.to_dict())
        assert clone == config
        # and the dict itself is strict-JSON-serializable (provenance)
        json.dumps(config.to_dict(), allow_nan=False)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown config"):
            HongTuConfig.from_dict({"warp_speed": 9})


# ----------------------------------------------------------------------
# platform perturbation
# ----------------------------------------------------------------------
class TestPlatformFaults:
    def _platform(self, nodes=3):
        return ClusterPlatform(A100_CLUSTER.with_num_nodes(nodes),
                               gpus_per_node=2)

    def test_straggler_scales_rates(self):
        platform = self._platform()
        base_compute = platform.node_compute_rates().copy()
        base_nic = platform.node_nic_rates().copy()
        platform.apply_fault_state(FaultState(compute=((1, 0.5),),
                                              nic=((1, 0.25),)))
        assert platform.node_compute_rates()[1] == base_compute[1] * 0.5
        assert platform.node_nic_rates()[1] == base_nic[1] * 0.25
        # untouched nodes keep their exact rates
        assert platform.node_compute_rates()[0] == base_compute[0]

    def test_inactive_state_restores_exactly(self):
        platform = self._platform()
        base = platform.node_compute_rates().copy()
        platform.apply_fault_state(FaultState(compute=((1, 0.5),)))
        platform.apply_fault_state(FaultState())
        assert platform.fault_state is None
        assert (platform.node_compute_rates() == base).all()

    def test_rates_version_tracks_applications(self):
        platform = self._platform()
        before = platform.rates_version
        platform.apply_fault_state(FaultState(nic=((0, 0.5),)))
        assert platform.rates_version > before

    def test_death_marks_node_dead(self):
        platform = self._platform()
        platform.apply_fault_state(FaultState(dead=frozenset({1})))
        assert platform.dead_nodes == frozenset({1})
        assert platform.alive_nodes == [0, 2]

    def test_deaths_are_permanent(self):
        platform = self._platform()
        platform.apply_fault_state(FaultState(dead=frozenset({1})))
        with pytest.raises(FaultError, match="resurrect"):
            platform.apply_fault_state(FaultState())

    def test_rejects_killing_everyone(self):
        platform = self._platform()
        with pytest.raises(FaultError):
            platform.apply_fault_state(
                FaultState(dead=frozenset({0, 1, 2})))

    def test_rejects_out_of_range_node(self):
        platform = self._platform()
        with pytest.raises(FaultError):
            platform.apply_fault_state(FaultState(compute=((7, 0.5),)))

    def test_dead_node_serves_no_host_memory(self):
        platform = self._platform()
        platform.apply_fault_state(FaultState(dead=frozenset({1})))
        shares = platform.split_host_bytes(3000)
        assert shares[1][1] == 0
        assert sum(nbytes for _, nbytes in shares) == 3000


# ----------------------------------------------------------------------
# fault-aware cost model
# ----------------------------------------------------------------------
class TestCostModelFaults:
    def test_faultless_platform_prices_identically(self):
        cluster = A100_CLUSTER.with_num_nodes(3)
        platform = ClusterPlatform(cluster, gpus_per_node=2)
        platform.apply_fault_state(FaultState(nic=((1, 0.25),)))
        platform.apply_fault_state(FaultState())
        restored = ClusterCostModel.from_platform(platform)
        fresh = ClusterCostModel.from_cluster(cluster)
        assert restored.collective_bandwidth == fresh.collective_bandwidth
        assert restored.link_bandwidth(0, 1) == fresh.link_bandwidth(0, 1)
        assert (restored.allreduce_seconds(1 << 20)
                == fresh.allreduce_seconds(1 << 20))

    def test_degraded_nic_slows_collectives(self):
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(3),
                                   gpus_per_node=2)
        model = ClusterCostModel.from_platform(platform)
        nbytes = 1 << 20
        healthy = model.allreduce_seconds(nbytes)
        platform.apply_fault_state(FaultState(nic=((1, 0.25),)))
        assert model.allreduce_seconds(nbytes) > healthy

    def test_model_is_a_live_view_never_a_stale_copy(self):
        """A model obtained *before* a fault state prices exactly like
        one obtained after — and again once an inactive state restores
        the faultless rates (it used to be a frozen copy)."""
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(4),
                                   gpus_per_node=2)

        def prices(model):
            return ([model.link_bandwidth(s, d)
                     for s in range(4) for d in range(4) if s != d],
                    model.collective_bandwidth, model.num_alive,
                    model.allreduce_seconds(1 << 20, "ring"),
                    model.allreduce_seconds(1 << 20, "tree"))

        before = ClusterCostModel.from_platform(platform)
        healthy = prices(before)
        platform.apply_fault_state(FaultState(
            nic=((1, 0.25),), links=((0, 2, 0.5),), dead=frozenset({3})))
        after = ClusterCostModel.from_platform(platform)
        assert prices(before) == prices(after) != healthy
        assert before.num_alive == 3
        assert before.link_bandwidth(0, 2) == \
            A100_CLUSTER.network_bandwidth * 0.5
        assert before.link_bandwidth(0, 1) == \
            A100_CLUSTER.network_bandwidth * 0.25

        # deaths are permanent, so the way back is shown on a second
        # fleet that only degrades
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(4),
                                   gpus_per_node=2)
        model = ClusterCostModel.from_platform(platform)
        platform.apply_fault_state(FaultState(
            nic=((1, 0.25),), links=((0, 2, 0.5),)))
        assert prices(model) != healthy
        platform.apply_fault_state(FaultState())
        assert prices(model) == healthy

    def test_dead_nodes_leave_the_ring(self):
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(4),
                                   gpus_per_node=2)
        platform.apply_fault_state(FaultState(dead=frozenset({3})))
        model = ClusterCostModel.from_platform(platform)
        assert model.num_alive == 3


# ----------------------------------------------------------------------
# empty-schedule float identity, under the array step and the oracle
# ----------------------------------------------------------------------
class TestEmptyScheduleIdentity:
    def _epoch(self, graph, faults):
        trainer = make_trainer(graph, faults=faults, placement="block",
                               max_imbalance=0)
        result = trainer.train_epoch()
        flows = trainer._comm_values.net_bytes_by_flow(result.timeline)
        return result, flows

    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["batched-core", "scalar-core"])
    def test_empty_schedule_is_float_identical(self, graph, oracle,
                                               install_scheduler_oracle):
        if oracle:
            install_scheduler_oracle()
        plain, plain_flows = self._epoch(graph, None)
        empty, empty_flows = self._epoch(graph, FaultSchedule.empty())
        assert empty.epoch_seconds == plain.epoch_seconds
        assert empty.loss == plain.loss
        assert empty.net_bytes == plain.net_bytes
        assert empty.migration_bytes == 0 and plain.migration_bytes == 0
        assert empty_flows == plain_flows
        assert (empty.timeline.scheduler.critical_path()
                == plain.timeline.scheduler.critical_path())

    def test_not_yet_triggered_schedule_is_identical(self, graph):
        late = FaultSchedule((Straggler(1, start=1e6, nic_factor=0.5),))
        plain, _ = self._epoch(graph, None)
        pending, _ = self._epoch(graph, late)
        assert pending.epoch_seconds == plain.epoch_seconds
        assert pending.loss == plain.loss


# ----------------------------------------------------------------------
# the elastic loop
# ----------------------------------------------------------------------
class TestElasticRebalance:
    def _epoch0(self, graph):
        return make_trainer(graph).train_epoch().epoch_seconds

    def test_straggler_triggers_makespan_rebalance(self, graph):
        epoch0 = self._epoch0(graph)
        faults = FaultSchedule((
            Straggler(2, start=2.5 * epoch0, compute_factor=0.2,
                      nic_factor=0.1),))
        trainer = make_trainer(graph, faults=faults)
        results = [trainer.train_epoch() for _ in range(8)]
        assert trainer.rebalances
        event = trainer.rebalances[0]
        assert event.trigger == "makespan"
        assert event.placement_before != event.placement_after
        assert event.migration_bytes > 0
        assert event.moved_partitions
        # the epoch that migrated reports it
        rebalanced = [r for r in results if r.rebalance is not None]
        assert rebalanced and rebalanced[0].migration_bytes > 0

    def test_static_fleet_never_rebalances(self, graph):
        epoch0 = self._epoch0(graph)
        faults = FaultSchedule((
            Straggler(2, start=2.5 * epoch0, compute_factor=0.2,
                      nic_factor=0.1),))
        trainer = make_trainer(graph, faults=faults, elastic=False)
        for _ in range(6):
            trainer.train_epoch()
        assert not trainer.rebalances
        # the straggler still slows the static fleet
        assert trainer.platform.fault_state is not None

    def test_death_rebalances_and_evacuates(self, graph):
        epoch0 = self._epoch0(graph)
        faults = FaultSchedule((NodeDeath(1, at=1.5 * epoch0),))
        trainer = make_trainer(graph, faults=faults)
        losses = [trainer.train_epoch().loss for _ in range(6)]
        assert [e.trigger for e in trainer.rebalances] == ["death"]
        assert trainer.platform.dead_nodes == frozenset({1})
        assert 1 not in set(trainer.placement.tolist())
        assert all(math.isfinite(loss) for loss in losses)

    def test_rebalance_builds_one_new_static_for_the_pair(self, graph):
        """The value and gradient communicators share one static per
        (plan, placement); a death-triggered re-balance keeps the plan
        object, replaces the pair, and the new pair's one static routes
        by the evacuated placement."""
        epoch0 = self._epoch0(graph)
        faults = FaultSchedule((NodeDeath(1, at=1.5 * epoch0),))
        trainer = make_trainer(graph, faults=faults)
        before = trainer.fleet
        assert before.comm_values.static is before.comm_grads.static
        assert before.comm_values.static.gpu_nodes.tolist() == \
            trainer.placement.tolist()
        trainer.train_epoch()
        assert trainer.fleet is before  # nothing re-planned yet
        for _ in range(4):
            trainer.train_epoch()
        assert [e.trigger for e in trainer.rebalances] == ["death"]
        after = trainer.fleet
        assert after.comm_plan is before.comm_plan
        assert after.comm_values is not before.comm_values
        static = after.comm_values.static
        assert static is after.comm_grads.static
        assert static is not before.comm_values.static
        assert static.gpu_nodes.tolist() == trainer.placement.tolist()
        assert 1 not in static.gpu_nodes
        assert np.array_equal(
            static.vertex_node,
            trainer.placement[trainer.partition.assignment])
        # the old static still describes the old placement: nothing was
        # patched in place
        assert 1 in before.comm_values.static.gpu_nodes

    def test_death_is_placement_invariant_numerically(self, graph):
        epoch0 = self._epoch0(graph)
        faults = FaultSchedule((NodeDeath(1, at=1.5 * epoch0),))
        faulty = make_trainer(graph, faults=faults)
        clean = make_trainer(graph)
        faulty_losses = [faulty.train_epoch().loss for _ in range(5)]
        clean_losses = [clean.train_epoch().loss for _ in range(5)]
        assert faulty_losses == clean_losses

    def test_death_without_elastic_raises(self, graph):
        epoch0 = self._epoch0(graph)
        faults = FaultSchedule((NodeDeath(1, at=1.5 * epoch0),))
        trainer = make_trainer(graph, faults=faults, elastic=False)
        with pytest.raises(FaultError, match="died"):
            for _ in range(6):
                trainer.train_epoch()

    def test_fleet_clock_advances_by_makespans(self, graph):
        trainer = make_trainer(graph)
        seconds = [trainer.train_epoch().epoch_seconds for _ in range(3)]
        assert trainer.fleet_seconds == pytest.approx(sum(seconds))


# ----------------------------------------------------------------------
# serving against a degraded fleet
# ----------------------------------------------------------------------
class TestServingAfterFaults:
    def test_engine_resyncs_after_rebalance(self, graph):
        from repro.serving import build_arrivals, build_policy

        epoch0 = make_trainer(graph).train_epoch().epoch_seconds
        faults = FaultSchedule((NodeDeath(1, at=1.5 * epoch0),))
        trainer = make_trainer(graph, faults=faults)
        trainer.train_epoch()
        engine = trainer.serving_engine()
        arrivals = build_arrivals("poisson", 40.0, 0.2, seed=1)
        policy = build_policy("immediate")
        before = engine.serve(arrivals, policy, slo=0.1)
        # the engine serves through the fleet's value communicator: its
        # routing static, not a copy of it
        stale = trainer.fleet.comm_values.static
        assert engine.communicator is trainer.fleet.comm_values
        assert engine.communicator.static is stale
        # drive the trainer through the death + evacuation, then serve
        # again through the same engine: it must re-sync to the degraded
        # rates and the evacuated placement instead of pricing stale
        # profiles.
        for _ in range(4):
            trainer.train_epoch()
        assert trainer.platform.dead_nodes == frozenset({1})
        after = engine.serve(arrivals, policy, slo=0.1)
        assert engine._rates_version == trainer.platform.rates_version
        assert engine.communicator is trainer.fleet.comm_values
        assert engine.communicator.static is not stale
        assert after.num_requests == before.num_requests
        after.timeline.validate()
