"""A cacheable layer's AGGREGATE reads the staged buffer, bit for bit.

:class:`gather_reference.GatherTrainer` keeps the per-GPU input gather,
the per-chunk aggregate and the recompute tape; the trainer runs one
slot-space product per (layer, batch) instead. Both must agree to the
last bit over arch × policy × overlap × {1, 2} nodes, and spies pin the
structure: a cacheable model never gathers, each batch block is built
once per adopted plan, and GAT still gathers.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.comm import DedupCommunicator
from repro.core import HongTuTrainer
from repro.gnn.block import Block
from repro.graph import load_dataset
from repro.partition import two_level_partition
from repro.scenario import ClusterArgs
from gather_reference import GatherTrainer

CACHEABLE = ("gcn", "graphsage", "gin", "commnet")
GRID = list(itertools.product(CACHEABLE + ("gat",), ("hybrid", "recompute"),
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
    for name in ("load_batch_forward", "stage_batch_forward"):
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

    batches = trainer.plan.num_batches
    # per epoch, the forward stages every (layer, batch) and the backward
    # stages it again unless the aggregate is cached; evaluate() once more
    restages = policy == "recompute" or arch == "gat"
    stages = (EPOCHS * (2 if restages else 1) + 1) * LAYERS * batches
    if arch == "gat":
        # GAT's input goes through the per-GPU gather, which stages first
        assert staging == ["load_batch_forward", "stage_batch_forward"] \
            * stages
        assert blocks == []
    else:
        # a cacheable model never gathers, and builds each batch block once
        assert staging == ["stage_batch_forward"] * stages
        assert blocks == ["in_slots"] * batches


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
    trainer.adopt(trainer.fleet)
    assert trainer._batch_blocks == {}
    trainer.train_epoch()
    assert len(calls) == 2 * batches
    assert all(trainer._batch_blocks[j] is not blocks[j]
               for j in range(batches))
    # the partition holds no batch block: another plan over it builds its own
    _trainer(HongTuTrainer, graph, partitions, "graphsage").train_epoch()
    assert len(calls) == 3 * batches
