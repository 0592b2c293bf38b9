"""A cacheable layer's AGGREGATE reads h^l in place, bit for bit.

:class:`gather_reference.SlotTrainer` stages every batch into a stacked
transition buffer and runs the product over it;
:class:`gather_reference.GatherTrainer` keeps the per-GPU input gather,
the per-chunk aggregate, the recompute tape and the per-chunk workspace
reservation. The trainer runs one product per (layer, batch) over the
host's h^l instead. All must agree to the last bit over arch × policy ×
overlap × {1, 2} nodes, and spies pin the structure: every model only
emits its staging, GAT and GGNN included, and a cacheable model builds
each batch block once per adopted plan. A GPU whose workspace does not
fit fails the batch reservation exactly as it failed the per-chunk one,
and a host pool that cannot hold a (layer, batch) checkpoint fails as the
per-chunk checkpoint store failed at its first chunk.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import HongTuTrainer
from repro.errors import DeviceOutOfMemoryError
from repro.gnn.block import Block
from repro.graph import load_dataset
from repro.partition import two_level_partition
from repro.scenario import ClusterArgs
from repro.units import SCALAR_BYTES
from gather_reference import GatherTrainer, SlotTrainer

CACHEABLE = ("gcn", "graphsage", "gin", "commnet")
GRID = list(itertools.product(CACHEABLE + ("gat", "ggnn"),
                              ("hybrid", "recompute"),
                              ("barrier", "pipeline"), (1, 2)))
EPOCHS = 2
LAYERS = 2
COLUMNS = ("device", "channel", "seconds", "nbytes", "phase", "start",
           "end", "blocked_by")


@pytest.fixture(scope="module")
def graph():
    return load_dataset("friendster_sim", scale=0.05, seed=3)


@pytest.fixture(scope="module")
def partitions(graph):
    """One partition per fleet size, shared by both trainers of a case."""
    return {nodes: two_level_partition(graph, 2 * nodes, 2, seed=3)
            for nodes in (1, 2)}


def _trainer(cls, graph, partitions, arch, policy="hybrid",
             overlap="pipeline", nodes=2):
    scenario = ClusterArgs(arch=arch, hidden_dim=8, layers=LAYERS, chunks=2,
                           gpus=2, nodes=nodes, seed=3)
    return cls(graph, scenario.build_model(graph), scenario.build_platform(),
               scenario.build_config(intermediate_policy=policy,
                                     overlap=overlap),
               partition=partitions[nodes])


def _assert_same_epoch(actual, expected):
    for field in ("epoch", "loss", "peak_gpu_bytes", "host_bytes",
                  "rebalance", "epoch_seconds", "clock"):
        assert getattr(actual, field) == getattr(expected, field), field
    assert actual.timeline.bytes_view() == expected.timeline.bytes_view()
    ours, theirs = actual.timeline.scheduler, expected.timeline.scheduler
    assert ours.phase_labels() == theirs.phase_labels()
    for name in COLUMNS:
        assert np.array_equal(getattr(ours.columns(), name),
                              getattr(theirs.columns(), name)), name
    assert [u.tolist() for u in ours.columns().used] == \
        [u.tolist() for u in theirs.columns().used]


def _count_calls(monkeypatch, owner, name, calls):
    """Append ``name`` to ``calls`` whenever ``owner.name`` is called."""
    original = getattr(owner, name)

    def record(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    static = isinstance(vars(owner).get(name), staticmethod)
    monkeypatch.setattr(owner, name, staticmethod(record) if static
                        else record)


@pytest.mark.parametrize("arch, policy, overlap, nodes", GRID,
                         ids=["-".join(map(str, case)) for case in GRID])
def test_matches_the_gather_oracle(monkeypatch, graph, partitions, arch,
                                   policy, overlap, nodes):
    trainer = _trainer(HongTuTrainer, graph, partitions, arch, policy,
                       overlap, nodes)
    oracle = _trainer(GatherTrainer, graph, partitions, arch, policy,
                      overlap, nodes)
    staging, blocks = [], []
    for name in ("load_batch_forward", "submit_batch_forward"):
        _count_calls(monkeypatch, trainer._comm_values, name, staging)
    _count_calls(monkeypatch, Block, "in_slots", blocks)
    for _ in range(EPOCHS):
        _assert_same_epoch(trainer.train_epoch(), oracle.train_epoch())
    for ours, theirs in zip(trainer._h, oracle._h):
        assert np.array_equal(ours, theirs)
    assert trainer._grad_h.keys() == oracle._grad_h.keys()
    for l, grad in oracle._grad_h.items():
        assert np.array_equal(trainer._grad_h[l], grad), l
    for ours, theirs in zip(trainer.model.parameters(),
                            oracle.model.parameters()):
        assert np.array_equal(ours.data, theirs.data)
    assert trainer.evaluate() == oracle.evaluate()
    # one checkpoint per (layer, batch) warms the same pairs as a full
    # column of per-chunk ones, and frees the same host bytes
    assert trainer.checkpointed_columns() == oracle.checkpointed_columns()
    for ours in (trainer, oracle):
        ours.free_checkpoints()
    assert [pool.in_use for pool in trainer.platform.hosts] == \
        [pool.in_use for pool in oracle.platform.hosts]

    batches = trainer.plan.num_batches
    # the first epoch records every sweep: its forward stages every
    # (layer, batch) and its backward stages it again unless the aggregate
    # is cached; the second epoch replays and evaluate() stages nothing
    cacheable = arch in CACHEABLE
    restages = policy == "recompute" or not cacheable
    stages = (2 if restages else 1) * LAYERS * batches
    # no model loads a copy of its inputs: GAT and GGNN chunks read theirs
    # from h^l when they run
    assert staging == ["submit_batch_forward"] * stages
    # a cacheable model builds each batch block once
    assert blocks == (["in_slots"] * batches if cacheable else [])


@pytest.mark.parametrize(
    "arch, policy, overlap, nodes",
    [case for case in GRID if case[0] in CACHEABLE],
    ids=["-".join(map(str, case)) for case in GRID if case[0] in CACHEABLE])
def test_matches_the_slot_space_oracle(graph, partitions, arch, policy,
                                       overlap, nodes):
    """The product over h^l equals the product over the staged buffer."""
    trainer = _trainer(HongTuTrainer, graph, partitions, arch, policy,
                       overlap, nodes)
    oracle = _trainer(SlotTrainer, graph, partitions, arch, policy,
                      overlap, nodes)
    for _ in range(EPOCHS):
        _assert_same_epoch(trainer.train_epoch(), oracle.train_epoch())
    for ours, theirs in zip(trainer._h, oracle._h, strict=True):
        assert np.array_equal(ours, theirs)
    for l, grad in oracle._grad_h.items():
        assert np.array_equal(trainer._grad_h[l], grad), l
    for ours, theirs in zip(trainer.model.parameters(),
                            oracle.model.parameters(), strict=True):
        assert np.array_equal(ours.data, theirs.data)
    assert trainer.evaluate() == oracle.evaluate()


def test_batch_blocks_are_built_once_per_adopted_plan(monkeypatch, graph,
                                                      partitions):
    trainer = _trainer(HongTuTrainer, graph, partitions, "graphsage",
                       "recompute")
    calls = []
    _count_calls(monkeypatch, Block, "in_slots", calls)
    trainer.train_epoch()
    batches = trainer.plan.num_batches
    assert len(calls) == batches
    blocks = dict(trainer._batch_blocks)
    # the blocks read h^l: their sources are the graph's vertices
    assert {block.num_src for block in blocks.values()} == \
        {graph.num_vertices}
    trainer.adopt(trainer.fleet)
    assert trainer._batch_blocks == {}
    trainer.train_epoch()
    assert len(calls) == 2 * batches
    assert all(trainer._batch_blocks[j] is not blocks[j]
               for j in range(batches))
    # the partition holds no batch block: another plan over it builds its own
    _trainer(HongTuTrainer, graph, partitions, "graphsage").train_epoch()
    assert len(calls) == 3 * batches


# ----------------------------------------------------------------------
# workspace reservation: once per (layer, batch), per-GPU pools
# ----------------------------------------------------------------------
def _gpu1_short_of_its_first_workspace(cls, graph, partitions):
    """A trainer whose GPU 1 cannot fit its first forward workspace while
    GPU 0 fits everything."""
    trainer = _trainer(cls, graph, partitions, "gcn", nodes=1)
    costs = trainer.fleet.shapes.forward(trainer.model.layers[0], 0)
    # the pipeline's layer-0 sweep holds two buffers of feature rows
    buffers = trainer.platform.gpus[1].memory.in_use + 2 * \
        trainer.plan.buffer_rows[1] * graph.feature_dim * SCALAR_BYTES
    trainer.platform.gpus[1].memory.capacity = \
        buffers + int(costs.workspace_bytes[1]) - 1
    return trainer, costs.workspace_bytes


def test_a_gpu_short_of_workspace_fails_as_per_chunk(graph, partitions):
    """The batch reservation raises the per-chunk path's error, with the
    same arguments, on the same GPU."""
    errors = []
    for cls in (HongTuTrainer, GatherTrainer):
        trainer, workspace = _gpu1_short_of_its_first_workspace(
            cls, graph, partitions)
        assert workspace[1] > 0
        with pytest.raises(DeviceOutOfMemoryError) as caught:
            trainer.train_epoch()
        errors.append(caught.value)
    ours, theirs = errors
    assert ours.args == theirs.args
    assert (ours.device, ours.requested, ours.in_use, ours.capacity) == \
        (theirs.device, theirs.requested, theirs.in_use, theirs.capacity)
    # the workspace is what fails, not the transition buffers before it
    assert (ours.device, ours.requested) == ("gpu1", workspace[1])


def test_a_failed_reservation_releases_every_pool(graph, partitions):
    """GPU 0's reservation is released when GPU 1's fails: every pool's
    ``in_use`` is where it was, and a fitting batch releases all of its
    own on the way out too."""
    trainer, workspace = _gpu1_short_of_its_first_workspace(
        HongTuTrainer, graph, partitions)
    pools = [gpu.memory for gpu in trainer.platform.gpus]
    pools[1].capacity = pools[1].in_use + int(workspace[1]) - 1
    before = [pool.in_use for pool in pools]
    with pytest.raises(DeviceOutOfMemoryError) as caught:
        with trainer._workspaces("forward_workspace", workspace):
            raise AssertionError("the body must not run")
    assert caught.value.device == "gpu1"
    assert caught.value.requested == workspace[1]
    assert [pool.in_use for pool in pools] == before
    pools[1].capacity = None
    with trainer._workspaces("forward_workspace", workspace):
        assert [pool.in_use for pool in pools] == \
            [used + int(size) for used, size in zip(before, workspace)]
    assert [pool.in_use for pool in pools] == before


# ----------------------------------------------------------------------
# checkpoint reservation: once per (layer, batch), all or nothing
# ----------------------------------------------------------------------
def _host_short_of_the_first_checkpoint(cls, graph, partitions):
    """A one-node trainer whose host pool fits GPU 0's slot of the first
    (layer, batch) checkpoint but not GPU 1's."""
    trainer = _trainer(cls, graph, partitions, "gcn", nodes=1)
    costs = trainer.fleet.shapes.forward(trainer.model.layers[0], 0)
    pool = trainer.platform.host_pool(0)
    pool.capacity = pool.in_use + int(costs.checkpoint_bytes.sum()) - 1
    return trainer, costs.checkpoint_bytes


def test_a_host_short_of_a_checkpoint_fails_as_per_chunk(graph, partitions):
    """The batch checkpoint raises the per-chunk store's error at its first
    failing chunk, and leaves no entry and no reserved byte for the pair."""
    errors, trainers = [], []
    for cls in (HongTuTrainer, GatherTrainer):
        trainer, checkpoint = _host_short_of_the_first_checkpoint(
            cls, graph, partitions)
        assert checkpoint.min() > 0
        before = trainer.platform.host_pool(0).in_use
        with pytest.raises(DeviceOutOfMemoryError) as caught:
            trainer.train_epoch()
        errors.append(caught.value)
        trainers.append(trainer)
    ours, theirs = errors
    assert ours.args == theirs.args
    assert (ours.device, ours.requested, ours.in_use, ours.capacity) == \
        (theirs.device, theirs.requested, theirs.in_use, theirs.capacity)
    # GPU 1's slot is what fails, with GPU 0's reserved
    assert (ours.requested, ours.in_use) == \
        (checkpoint[1], before + checkpoint[0])
    trainer, oracle = trainers
    # the per-chunk store kept GPU 0's chunk, a column it did not count;
    # the batch store keeps nothing
    assert list(oracle._checkpoints) == [(0, 0, 0)]
    assert oracle.checkpointed_columns() == set()
    assert trainer._checkpoints == {}
    assert trainer.checkpointed_columns() == set()
    pool = trainer.platform.host_pool(0)
    assert pool.in_use == before
    assert pool.by_tag["aggregate_cache"] == 0
