"""An epoch replays the layer sweeps it recorded, bit for bit.

Under one adopted plan and rate table an epoch's layer sweeps are the
same DAG every epoch, so :class:`~repro.core.trainer.HongTuTrainer`
records each sweep the first time an epoch runs it and replays it from
then on, that first epoch included.
:class:`trainer_reference.EmittingTrainer` emits every sweep of every
epoch onto its timeline. The two must agree on every epoch — every
:class:`~repro.core.trainer.EpochResult` field, every task column and
every phase label — on the perf benchmark's training workloads, over
the cacheable and attention layers × both policies × both overlaps, under
a fault schedule whose rates move mid-run and across an elastic
re-balance. Spies pin the lifecycle: which epochs record, which only
replay, and what drops the recording.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import sys

import numpy as np
import pytest

from repro.comm import DedupCommunicator
from repro.core import EpochResult, HongTuConfig, HongTuTrainer
from repro.faults import FaultSchedule, FaultState, NodeDeath, Straggler
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import A100_CLUSTER, ClusterPlatform
from repro.partition import two_level_partition
from repro.runtime import WaveRecorder
from repro.scenario import ClusterArgs
from trainer_reference import EmittingTrainer

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks.perf import workloads as perf_workloads  # noqa: E402

#: epochs per run: one records and replays, three only replay
EPOCHS = 4
LAYERS = 2
GRID = list(itertools.product(("gcn", "gat", "gin", "graphsage"),
                              ("hybrid", "recompute"),
                              ("barrier", "pipeline")))
#: ``EpochResult`` fields compared directly (the timeline column by column)
FIELDS = [field.name for field in dataclasses.fields(EpochResult)
          if field.name != "timeline"]


def assert_same_epoch(actual, expected):
    """Every field of two epochs, their timelines' views, every task
    column and every phase label."""
    for name in FIELDS + ["epoch_seconds", "clock"]:
        assert getattr(actual, name) == getattr(expected, name), name
    assert actual.timeline.bytes_view() == expected.timeline.bytes_view()
    assert actual.timeline.busy_view() == expected.timeline.busy_view()
    ours, theirs = actual.timeline.scheduler, expected.timeline.scheduler
    assert ours.phase_labels() == theirs.phase_labels()
    for name, column in theirs.columns()._asdict().items():
        mine = getattr(ours.columns(), name)
        if name == "used":
            assert [u.tolist() for u in mine] == \
                [u.tolist() for u in column]
        else:
            assert np.array_equal(mine, column), name


def assert_same_run(trainer, oracle, epochs=EPOCHS):
    for _ in range(epochs):
        assert_same_epoch(trainer.train_epoch(), oracle.train_epoch())
    for ours, theirs in zip(trainer.model.parameters(),
                            oracle.model.parameters(), strict=True):
        assert np.array_equal(ours.data, theirs.data)
    assert trainer.evaluate() == oracle.evaluate()


def all_sweeps(layers):
    """Every layer sweep's key, sorted."""
    return sorted(itertools.product(("backward", "forward"),
                                    range(layers)))


@pytest.fixture
def recordings(monkeypatch):
    """Every sweep recorded, in order: a spy on ``WaveRecorder.finish``
    (the oracles emit every epoch and record nothing)."""
    calls = []
    finish = WaveRecorder.finish

    def spy(self):
        calls.append(self)
        return finish(self)

    monkeypatch.setattr(WaveRecorder, "finish", spy)
    return calls


def recorded_per_epoch(trainer, oracle, recordings, epochs):
    """Run both ``epochs`` times, checking each pair of epochs; per
    epoch, the number of sweeps the trainer recorded and its result."""
    runs = []
    for _ in range(epochs):
        recordings.clear()
        result = trainer.train_epoch()
        assert_same_epoch(result, oracle.train_epoch())
        runs.append((len(recordings), result))
    return runs


@pytest.fixture(scope="module")
def graph():
    return load_dataset("friendster_sim", scale=0.05, seed=3)


@pytest.fixture(scope="module")
def partition(graph):
    return two_level_partition(graph, 4, 2, seed=3)


def _grid_trainer(cls, graph, partition, arch, policy, overlap):
    scenario = ClusterArgs(arch=arch, hidden_dim=8, layers=LAYERS, chunks=2,
                           gpus=2, nodes=2, seed=3)
    return cls(graph, scenario.build_model(graph), scenario.build_platform(),
               scenario.build_config(intermediate_policy=policy,
                                     overlap=overlap),
               partition=partition)


@pytest.mark.parametrize("arch, policy, overlap", GRID,
                         ids=["-".join(case) for case in GRID])
def test_replay_equals_emission_over_the_grid(graph, partition, arch,
                                              policy, overlap):
    trainer, oracle = (_grid_trainer(cls, graph, partition, arch, policy,
                                     overlap)
                       for cls in (HongTuTrainer, EmittingTrainer))
    assert_same_run(trainer, oracle)
    assert sorted(trainer._programs) == all_sweeps(LAYERS)


def test_evaluate_before_training_records_nothing(graph, partition,
                                                  recordings):
    trainer, oracle = (_grid_trainer(cls, graph, partition, "gcn",
                                     "hybrid", "pipeline")
                       for cls in (HongTuTrainer, EmittingTrainer))
    assert trainer.evaluate() == oracle.evaluate()
    assert trainer._programs == {}
    assert recordings == []


@pytest.mark.parametrize("name", ["train_numerics", "train_cluster",
                                  "plan_fleet"])
def test_replay_equals_emission_on_the_perf_workloads(monkeypatch, name):
    """Each training workload at its ``--tiny`` size, from one seed: the
    workload builds the trainer (its first step for ``plan_fleet``), and
    the rest of the epochs run on it. ``plan_fleet``'s trainer runs one
    epoch, which records every sweep."""
    workload = perf_workloads.WORKLOADS[name]
    runs = []
    for cls in (HongTuTrainer, EmittingTrainer):
        monkeypatch.setattr(perf_workloads, "HongTuTrainer", cls)
        state = workload.setup(0, True)
        if state.trainer is None:  # plan_fleet builds it in its step
            workload.step(state, lambda label: None)
        assert type(state.trainer) is cls
        runs.append(state)
    trainer, oracle = (state.trainer for state in runs)
    if runs[0].last is not None:
        assert_same_epoch(runs[0].last, runs[1].last)
    if name == "plan_fleet":
        assert trainer._epoch == 1
        assert sorted(trainer._programs) == \
            all_sweeps(len(trainer.model.layers))
    assert_same_run(trainer, oracle, EPOCHS - trainer._epoch)


def _fault_trainer(cls, graph, faults, elastic):
    platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(3),
                               gpus_per_node=2)
    model = build_model("gcn", [graph.feature_dim, 8, graph.num_classes],
                        np.random.default_rng(0))
    config = HongTuConfig(num_chunks=2, overlap="pipeline", faults=faults,
                          elastic=elastic, placement="search",
                          max_imbalance=2, rebalance_trigger=1.05, seed=0)
    return cls(graph, model, platform, config)


@pytest.fixture(scope="module")
def fault_graph():
    return load_dataset("products_sim", scale=0.08, seed=42)


@pytest.fixture(scope="module")
def epoch_seconds(fault_graph):
    """A fault-free epoch's makespan: the time axis faults are set on."""
    trainer = _fault_trainer(HongTuTrainer, fault_graph, None, False)
    return trainer.train_epoch().epoch_seconds


def test_replay_equals_emission_while_rates_move(fault_graph,
                                                 epoch_seconds,
                                                 recordings):
    """A straggler strikes after three epochs and recovers four later, on
    a static fleet: the rate table moves twice, and each move drops the
    recording — the next epoch records, and the rest replay under the
    new rates."""
    faults = FaultSchedule((Straggler(1, start=2.5 * epoch_seconds,
                                      end=7.5 * epoch_seconds,
                                      compute_factor=0.5, nic_factor=0.5),))
    trainer, oracle = (_fault_trainer(cls, fault_graph, faults, False)
                       for cls in (HongTuTrainer, EmittingTrainer))
    sweeps = 2 * len(trainer.model.layers)
    runs = recorded_per_epoch(trainer, oracle, recordings, 10)
    assert [count for count, _ in runs] == \
        [sweeps, 0, 0, sweeps, 0, 0, 0, sweeps, 0, 0]
    assert trainer.platform.fault_state is None  # recovered


def test_replay_equals_emission_across_a_rebalance(fault_graph,
                                                   epoch_seconds,
                                                   recordings):
    """A node dies after three epochs: the re-balance adopts a new plan
    and placement, which drops the recording, and the epoch after it
    records again."""
    faults = FaultSchedule((NodeDeath(1, at=2.5 * epoch_seconds),))
    trainer, oracle = (_fault_trainer(cls, fault_graph, faults, True)
                       for cls in (HongTuTrainer, EmittingTrainer))
    sweeps = 2 * len(trainer.model.layers)
    runs = recorded_per_epoch(trainer, oracle, recordings, 7)
    assert [count for count, _ in runs] == [sweeps, 0, 0, sweeps, 0, 0, 0]
    assert [result.rebalance is not None for _, result in runs] == \
        [False, False, False, True, False, False, False]
    assert runs[3][1].rebalance.trigger == "death"


def test_programs_are_kept_per_plan_and_rate_table(monkeypatch, graph,
                                                   partition):
    """``submit_batch_forward`` runs in the first epoch under a plan and
    rate table, which records, and not in the ones after it, which only
    replay; after a rate change or
    :meth:`~repro.core.trainer.HongTuTrainer.adopt` the first epoch
    records again; ``evaluate()`` emits nothing. Every epoch still equals
    an emitting trainer's."""
    calls = []
    submit = DedupCommunicator.submit_batch_forward

    def spy(self, *args, **kwargs):
        calls.append(self)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(DedupCommunicator, "submit_batch_forward", spy)
    trainer, oracle = (_grid_trainer(cls, graph, partition, "gcn",
                                     "recompute", "pipeline")
                       for cls in (HongTuTrainer, EmittingTrainer))
    # recompute: the forward and the backward stage every (layer, batch)
    staged = 2 * LAYERS * trainer.plan.num_batches

    def epoch() -> int:
        calls.clear()
        assert_same_epoch(trainer.train_epoch(), oracle.train_epoch())
        return sum(comm is trainer.fleet.comm_values for comm in calls)

    assert [epoch() for _ in range(4)] == [staged, 0, 0, 0]
    programs = trainer._programs
    assert all(program.num_external == 0 for program in programs.values())
    calls.clear()
    trainer.evaluate()
    assert calls == []
    oracle.evaluate()  # the oracle prices its forward, as evaluate() did
    assert len(calls) == staged // 2

    version = trainer.platform.rates_version
    for ours in (trainer, oracle):
        ours.platform.apply_fault_state(FaultState(compute=((1, 0.5),)))
    assert trainer.platform.rates_version > version
    assert [epoch() for _ in range(3)] == [staged, 0, 0]
    assert trainer._programs is not programs
    assert sorted(trainer._programs) == all_sweeps(LAYERS)

    trainer.adopt(trainer.fleet)
    assert trainer._programs == {}
    assert [epoch() for _ in range(3)] == [staged, 0, 0]
    assert sorted(trainer._programs) == all_sweeps(LAYERS)
