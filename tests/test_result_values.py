"""Results are values: what planning and an epoch return is a pure
function of (graph, seed, scenario).

Three contracts: two identical runs return equal planning provenance and
equal re-balance events (no host clock in any of them); the reorganization
guard sweeps each layout-invariant fact once and hands its Eq. 4 volumes
forward to the joint loop; and every trainer in the repo returns the one
:class:`~repro.core.trainer.EpochResult`, whose timing *is* its timeline.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import repro.comm.joint as joint_module
import repro.comm.reorganize as reorganize_module
import repro.partition.nodes as nodes_module
from repro.baselines import (
    DistGNNSimulator,
    FullGraphTrainer,
    InMemoryMultiGPUTrainer,
    MiniBatchTrainer,
)
from repro.comm import reorganize_partition
from repro.comm.joint import joint_placement
from repro.core import EpochResult, HongTuTrainer
from repro.faults import FaultSchedule, NodeDeath
from repro.graph import load_dataset
from repro.hardware import CPU_NODE, EventTimeline
from repro.partition import search_placement, two_level_partition
from repro.scenario import ClusterArgs

JOINT = ClusterArgs(nodes=3, gpus=2, chunks=2, hidden_dim=8,
                    placement="joint", max_imbalance=1, topology="rail")


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products_sim", scale=0.08, seed=42)


def hongtu(graph, scenario, **config):
    return HongTuTrainer(
        graph, scenario.build_model(graph), scenario.build_platform(),
        scenario.build_config(overlap="pipeline", **config))


def facts(result, *skip):
    """A result dataclass's fields, minus the named array/object ones."""
    return {spec.name: getattr(result, spec.name)
            for spec in dataclasses.fields(result) if spec.name not in skip}


# ----------------------------------------------------------------------
# (i) same inputs, equal values
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_two_constructions_plan_equal_facts(self, graph):
        first, second = hongtu(graph, JOINT), hongtu(graph, JOINT)
        assert facts(first.placement_result, "placement") \
            == facts(second.placement_result, "placement")
        assert np.array_equal(first.placement_result.placement,
                              second.placement_result.placement)
        assert np.array_equal(first.placement, second.placement)
        assert facts(first.reorganization, "partition") \
            == facts(second.reorganization, "partition")
        assert first.placement_result.iterations  # the joint loop ran

    def test_faulted_runs_record_equal_rebalances(self, graph):
        def run():
            # dies inside epoch 1: epoch 2's boundary re-balances
            faults = FaultSchedule((NodeDeath(1, at=1e-9),))
            trainer = hongtu(graph, JOINT, faults=faults)
            results = trainer.train(2)
            return trainer.rebalances, results

        (events, results), (again, _) = run(), run()
        assert len(events) == 1 and events[0].trigger == "death"
        assert results[1].rebalance == events[0]
        assert events == again

    def test_search_placement_prices_nothing(self):
        parameters = inspect.signature(search_placement).parameters
        assert not {"platform", "row_bytes", "allreduce_bytes",
                    "allreduce_algorithm"} & set(parameters)


# ----------------------------------------------------------------------
# (ii) nothing measured twice
# ----------------------------------------------------------------------
def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` to log each call's first argument."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSweepCounts:
    NODES = 3

    @pytest.fixture()
    def priced(self, graph):
        platform = JOINT.build_platform()
        partition = two_level_partition(graph, platform.num_gpus, 4, seed=0)
        return partition, platform

    def test_one_guard_sweeps_layout_invariants_once(self, priced,
                                                     monkeypatch):
        partition, platform = priced
        fetch = count_calls(monkeypatch, nodes_module,
                            "partition_halo_matrix")
        node_maps = count_calls(monkeypatch, reorganize_module,
                                "partition_nodes")
        loads = count_calls(monkeypatch, nodes_module,
                            "partition_load_matrix")
        result = reorganize_partition(partition, platform, 32)
        assert result.net_aware
        assert len(fetch) == 1 and len(node_maps) == 1
        assert len(loads) == 3  # the schedule-dependent half: per candidate

    def test_joint_prices_the_volumes_the_guard_measured(self, priced,
                                                         monkeypatch):
        partition, platform = priced
        measured = count_calls(monkeypatch, reorganize_module,
                               "measure_volumes")
        joint = joint_placement(partition, platform, row_bytes=32)
        # input, greedy and net-aware layout of each round's guard, each
        # distinct layout measured once
        assert len(measured) <= 3 * len(joint.iterations)
        grids = [str([[id(chunk) for chunk in row] for row in layout.chunks])
                 for layout in measured]
        assert len(set(grids)) == len(grids)
        assert not hasattr(joint_module, "measure_volumes")
        # ... and what the loop priced is what the guard kept
        adopted = joint.reorganization
        assert adopted.volumes_after is not None
        assert adopted.cost_after == pytest.approx(
            adopted.net_seconds_after
            + platform.dedup_seconds(adopted.volumes_after, 32))


# ----------------------------------------------------------------------
# (iii) one epoch-result shape
# ----------------------------------------------------------------------
SINGLE = ClusterArgs(gpus=2, chunks=2, hidden_dim=8)

#: name → (graph → trainer), each on a fresh model and platform
TRAINERS = {
    "hongtu": lambda graph: hongtu(graph, SINGLE),
    "inmemory": lambda graph: InMemoryMultiGPUTrainer(
        graph, SINGLE.build_model(graph), SINGLE.build_platform()),
    "fullgraph": lambda graph: FullGraphTrainer(
        graph, SINGLE.build_model(graph), SINGLE.build_platform()),
    "minibatch": lambda graph: MiniBatchTrainer(
        graph, SINGLE.build_model(graph), SINGLE.build_platform(),
        fanout=3, batch_size=256),
    "distgnn": lambda graph: DistGNNSimulator(
        graph, SINGLE.build_model(graph), CPU_NODE.with_num_nodes(2)),
}
#: the fields each trainer's result adds to the one ``EpochResult``
OWN_FIELDS = {"hongtu": set(), "inmemory": set(), "fullgraph": set(),
              "minibatch": {"frontier_vertices"},
              "distgnn": {"peak_node_bytes"}}


class TestOneEpochResult:
    @pytest.mark.parametrize("name", sorted(TRAINERS))
    def test_every_trainer_returns_it(self, graph, name):
        result = TRAINERS[name](graph).train_epoch()
        assert isinstance(result, EpochResult)
        assert result.clock == result.timeline.breakdown  # a fresh view
        assert result.epoch_seconds == result.timeline.makespan
        assert result.epoch == 1
        # the baselines' classes keep only their extra field
        assert {spec.name for spec in dataclasses.fields(result)} \
            - {spec.name for spec in dataclasses.fields(EpochResult)} \
            == OWN_FIELDS[name]

    def test_a_result_needs_its_timeline(self):
        with pytest.raises(TypeError):
            EpochResult(epoch=1, loss=0.5)
        timeline = EventTimeline()
        timeline.add("gpu", 2.0)
        result = EpochResult(epoch=1, timeline=timeline, loss=0.5)
        assert result.epoch_seconds == 2.0
        assert result.clock.total == 2.0
        with pytest.raises(AttributeError):
            result.clock = timeline.breakdown  # read-through, not a field
