"""Layer 0's backward computes only what something reads.

The input features are constants, so nothing reads ∇h⁰. The trainer's
layer-0 backward computes parameter gradients only — no aggregate
adjoint, no input VJP, no row movement — and still emits every task of
the layer's gradient traffic. :class:`trainer_reference.GradInputTrainer`
keeps the old path (adjoint, row movement, a ∇h⁰ buffer); both must agree
to the last bit on everything but ∇h⁰ itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import DedupCommunicator
from repro.core import HongTuTrainer
from repro.graph import load_dataset
from repro.scenario import ClusterArgs
from trainer_reference import GradInputTrainer

GRID = [(arch, policy, overlap, nodes)
        for arch in ("gcn", "graphsage", "gin", "gat")
        for policy in ("hybrid", "recompute")
        for overlap in ("barrier", "pipeline")
        for nodes in (1, 2)]
EPOCHS = 2


def _trainer(cls, arch, policy, overlap, nodes):
    graph = load_dataset("friendster_sim", scale=0.05, seed=3)
    scenario = ClusterArgs(arch=arch, hidden_dim=8, layers=2, chunks=2,
                           gpus=2, nodes=nodes, seed=3)
    return cls(graph, scenario.build_model(graph), scenario.build_platform(),
               scenario.build_config(intermediate_policy=policy,
                                     overlap=overlap))


def _assert_same_epoch(actual, expected):
    for field in ("epoch", "loss", "peak_gpu_bytes", "host_bytes",
                  "rebalance", "epoch_seconds", "clock"):
        assert getattr(actual, field) == getattr(expected, field), field
    assert actual.timeline.bytes_view() == expected.timeline.bytes_view()
    ours, theirs = actual.timeline.scheduler, expected.timeline.scheduler
    assert ours.phase_labels() == theirs.phase_labels()
    for name, column in theirs.columns()._asdict().items():
        if name == "used":
            assert [u.tolist() for u in getattr(ours.columns(), name)] == \
                [u.tolist() for u in column]
        else:
            np.testing.assert_array_equal(getattr(ours.columns(), name),
                                          column, err_msg=name)


@pytest.mark.parametrize("arch, policy, overlap, nodes", GRID,
                         ids=["-".join(map(str, case)) for case in GRID])
def test_matches_the_grad_input_oracle(arch, policy, overlap, nodes):
    trainer = _trainer(HongTuTrainer, arch, policy, overlap, nodes)
    oracle = _trainer(GradInputTrainer, arch, policy, overlap, nodes)
    for _ in range(EPOCHS):
        _assert_same_epoch(trainer.train_epoch(), oracle.train_epoch())
    for ours, theirs in zip(trainer.model.parameters(),
                            oracle.model.parameters()):
        np.testing.assert_array_equal(ours.data, theirs.data)
    assert trainer.evaluate() == oracle.evaluate()
    # the oracle's ∇h⁰ was real work; the trainer keeps no such buffer
    assert np.any(oracle._grad_h[0] != 0)
    assert 0 not in trainer._grad_h


@pytest.mark.parametrize("policy", ["hybrid", "recompute"])
def test_layer0_runs_no_adjoint_and_moves_no_rows(monkeypatch, policy):
    trainer = _trainer(HongTuTrainer, "graphsage", policy, "pipeline", 2)
    calls = []
    current = []

    def spy(name, original):
        def record(*args, **kwargs):
            calls.append((current[-1], name))
            return original(*args, **kwargs)
        return record

    backward_batch = trainer._backward_batch

    def tracked(l, *args, **kwargs):
        current.append(l)
        return backward_batch(l, *args, **kwargs)

    monkeypatch.setattr(trainer, "_backward_batch", tracked)
    for layer in trainer.model.layers:
        monkeypatch.setattr(layer, "aggregate_backward",
                            spy("adjoint", layer.aggregate_backward))
    for method in ("accumulate_batch_backward", "submit_batch_backward"):
        monkeypatch.setattr(DedupCommunicator, method,
                            spy(method, getattr(DedupCommunicator, method)))
    trainer.train_epoch()

    batches = trainer.plan.num_batches
    layer0 = [name for l, name in calls if l == 0]
    assert layer0 == ["submit_batch_backward"] * batches
    # layer 1 still moves its rows, then emits through the same call; a
    # cacheable layer runs one closed-form adjoint per chunk whether its
    # aggregate was cached or recomputed
    layer1 = [name for l, name in calls if l == 1]
    assert layer1.count("adjoint") == batches * trainer.plan.num_gpus
    assert [name for name in layer1 if name != "adjoint"] == \
        ["accumulate_batch_backward", "submit_batch_backward"] * batches
