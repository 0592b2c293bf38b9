"""The planner seam: construction and re-balance are one pipeline.

``HongTuTrainer.__init__`` and the elastic controller both obtain their
(placement, partition, plan, communicators, reservations) from
:func:`repro.core.planner.plan_fleet`; these tests pin that a trainer's
planning state is exactly what the planner returns for the same values,
at construction and after a fault.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.comm import measure_volumes
from repro.core import HongTuConfig, HongTuTrainer
from repro.core.elastic import evacuation_seed
from repro.core.planner import plan_fleet
from repro.errors import DeviceOutOfMemoryError
from repro.faults import FaultSchedule, NodeDeath
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform
from repro.scenario import ClusterArgs


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products_sim", scale=0.08, seed=42)


SCENARIOS = {
    "search": ClusterArgs(nodes=3, gpus=2, chunks=2, hidden_dim=8,
                          placement="search", max_imbalance=2),
    "joint": ClusterArgs(nodes=3, gpus=2, chunks=2, hidden_dim=8,
                         placement="joint", max_imbalance=1,
                         topology="rail"),
    "hetero": ClusterArgs(nodes=3, gpus=2, chunks=2, hidden_dim=8,
                          placement="search",
                          node_spec=["a100:2", "v100:1"]),
}


def build(graph, scenario, **config):
    """(model, platform, config) of a scenario, fresh each call."""
    return (scenario.build_model(graph), scenario.build_platform(),
            scenario.build_config(overlap="pipeline", **config))


def host_reservations(fleet):
    return [allocation.nbytes for allocation in fleet.host_allocations]


class TestConstructionIsThePlanner:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_trainer_state_equals_direct_plan(self, graph, name):
        scenario = SCENARIOS[name]
        trainer = HongTuTrainer(graph, *build(graph, scenario))
        fleet = plan_fleet(graph, *build(graph, scenario))
        assert np.array_equal(trainer.placement, fleet.placement)
        assert trainer.placement_result.rows_search == \
            fleet.placement_result.rows_search
        assert measure_volumes(trainer.partition) == \
            measure_volumes(fleet.partition)
        assert trainer.plan.buffer_rows == fleet.comm_plan.buffer_rows
        assert host_reservations(trainer.fleet) == host_reservations(fleet)
        # the public views are the adopted plan, not copies of it
        assert trainer.plan is trainer.fleet.comm_plan
        assert trainer.partition is trainer.fleet.partition

    def test_heterogeneous_fleet_plans_with_capability_and_budgets(
            self, graph):
        fleet = plan_fleet(graph, *build(graph, SCENARIOS["hetero"]))
        assert fleet.compute_rows.shape == (6, 3)
        assert fleet.node_budgets is not None

    def test_homogeneous_exact_balance_plans_rows_only(self, graph):
        scenario = ClusterArgs(nodes=3, gpus=2, chunks=2, hidden_dim=8,
                               placement="search")
        fleet = plan_fleet(graph, *build(graph, scenario))
        assert fleet.compute_rows is None
        assert fleet.node_budgets is None


class TestRebalanceIsAReplan:
    def test_death_rebalance_equals_direct_replan(self, graph):
        scenario = SCENARIOS["search"]
        epoch0 = HongTuTrainer(graph, *build(graph, scenario)) \
            .train_epoch().epoch_seconds
        faults = FaultSchedule((NodeDeath(1, at=1.5 * epoch0),))
        trainer = HongTuTrainer(graph, *build(graph, scenario,
                                              faults=faults))
        for _ in range(4):
            trainer.train_epoch()
        (event,) = trainer.rebalances
        assert event.trigger == "death"

        # An identically faulted twin, re-planned by hand with the same
        # seed placement; the planner reads the dead set off the platform.
        twin = HongTuTrainer(graph, *build(graph, scenario))
        assert tuple(twin.placement.tolist()) == event.placement_before
        twin.platform.apply_fault_state(trainer.platform.fault_state)
        dead = twin.platform.dead_nodes
        assert dead == event.dead_nodes
        fleet = plan_fleet(
            graph, twin.model, twin.platform, twin.config,
            seed_placement=evacuation_seed(
                twin.placement, twin.platform.alive_nodes, dead),
            previous=twin.fleet,
        )
        assert tuple(fleet.placement.tolist()) == event.placement_after
        assert np.array_equal(fleet.placement, trainer.placement)
        assert fleet.comm_plan.buffer_rows == trainer.plan.buffer_rows
        assert host_reservations(fleet) == host_reservations(trainer.fleet)
        assert np.array_equal(fleet.compute_rows,
                              trainer.fleet.compute_rows)
        # the partition did not change, so neither did the plan object
        assert fleet.comm_plan is twin.plan

    def test_controller_does_not_keep_its_trainer_alive(self, graph):
        """The trainer ↔ controller link must not be a reference cycle:
        a sweep building many trainers frees each one (and its vertex
        buffers) by refcount, not whenever the cycle collector runs."""
        trainer = HongTuTrainer(graph, *build(graph, SCENARIOS["search"]))
        trainer.train_epoch()
        alive = weakref.ref(trainer)
        gc.disable()
        try:
            del trainer
            assert alive() is None
        finally:
            gc.enable()

    def test_evacuation_seed_rehomes_onto_least_loaded_survivors(self):
        placement = np.array([0, 0, 1, 1, 2, 2])
        seed = evacuation_seed(placement, alive=[0, 2], dead={1})
        assert seed.tolist() == [0, 0, 0, 2, 2, 2]
        assert placement.tolist() == [0, 0, 1, 1, 2, 2]  # input untouched
        assert evacuation_seed(placement, [0, 1, 2], frozenset()).tolist() \
            == placement.tolist()


class TestReservations:
    def test_an_oom_while_planning_leaves_nothing_reserved(self):
        """GPU 1 is one byte short of its topology: GPU 0's topology and
        the host's vertex data are reserved before it raises, and the
        raise frees them."""
        graph = load_dataset("reddit_sim", scale=0.05, seed=0)

        def trainer(platform):
            model = build_model(
                "gat", [graph.feature_dim, 16, graph.num_classes],
                np.random.default_rng(0))
            return HongTuTrainer(graph, model, platform, HongTuConfig())

        reference = trainer(MultiGPUPlatform(A100_SERVER))
        assert reference.platform.num_gpus == 4
        topology = reference.platform.gpus[1].memory.by_tag["topology"]
        platform = MultiGPUPlatform(A100_SERVER)
        platform.gpus[1].memory.capacity = topology - 1
        with pytest.raises(DeviceOutOfMemoryError) as error:
            trainer(platform)
        assert error.value.device == "gpu1"
        pools = [gpu.memory for gpu in platform.gpus] + [
            platform.host_pool(node) for node in range(platform.num_nodes)]
        for pool in pools:
            assert pool.by_tag.get("vertex_data", 0) == 0, pool.name
            assert pool.by_tag.get("topology", 0) == 0, pool.name
