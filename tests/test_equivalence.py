"""The central integration property of the reproduction.

HongTu's partition-based, recomputation-managed, dedup-communicated training
must produce *identical* parameters to monolithic full-graph training —
the paper's semantics-preserving claim (§4.2: "the recomputation-based
approach maintains the accuracy of the original training method"; Fig. 8
shows indistinguishable curves).

Every combination of architecture × communication mode × intermediate
policy × chunk count must agree with the reference to float64 tolerance.
"""

import numpy as np
import pytest

from repro.autograd import SGD
from repro.baselines import FullGraphTrainer, InMemoryMultiGPUTrainer
from repro.core import HongTuConfig, HongTuTrainer
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

ARCHS = ["gcn", "gat", "graphsage", "gin", "commnet", "ggnn"]

# GIN's un-normalized sum aggregation diverges quickly on dense graphs;
# identical-trajectory comparison needs a stable regime or float roundoff
# amplifies chaotically (the divergence itself is identical in both
# trainers, but comparing exploding parameters is meaningless).
LEARNING_RATE = {"gin": 1e-4}
DEFAULT_LR = 0.02


def lr_for(arch):
    return LEARNING_RATE.get(arch, DEFAULT_LR)


def fresh_pair(graph, arch, seed=11):
    """Two identically-initialized model copies."""
    dims = [graph.feature_dim, 12, graph.num_classes]
    reference = build_model(arch, dims, np.random.default_rng(seed))
    candidate = build_model(arch, dims, np.random.default_rng(seed))
    return reference, candidate


def max_param_diff(a, b):
    state_a, state_b = a.state_dict(), b.state_dict()
    return max(np.abs(state_a[k] - state_b[k]).max() for k in state_a)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("reddit_sim", scale=0.12, seed=3)


@pytest.mark.parametrize("arch", ARCHS)
def test_hongtu_equals_monolithic(graph, arch):
    reference_model, hongtu_model = fresh_pair(graph, arch)
    lr = lr_for(arch)
    reference = FullGraphTrainer(
        graph, reference_model,
        optimizer=SGD(reference_model.parameters(), lr=lr),
    )
    trainer = HongTuTrainer(
        graph, hongtu_model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=3, seed=2),
        optimizer=SGD(hongtu_model.parameters(), lr=lr),
    )
    for _ in range(3):
        ref_result = reference.train_epoch()
        ht_result = trainer.train_epoch()
        assert np.isclose(ref_result.loss, ht_result.loss, atol=1e-9)
    assert max_param_diff(reference_model, hongtu_model) < 1e-9


@pytest.mark.parametrize("comm_mode", ["baseline", "p2p", "ru", "hongtu"])
def test_comm_modes_do_not_change_numerics(graph, comm_mode):
    reference_model, hongtu_model = fresh_pair(graph, "gcn")
    reference = FullGraphTrainer(
        graph, reference_model,
        optimizer=SGD(reference_model.parameters(), lr=0.02),
    )
    trainer = HongTuTrainer(
        graph, hongtu_model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=4, comm_mode=comm_mode, seed=5),
        optimizer=SGD(hongtu_model.parameters(), lr=0.02),
    )
    for _ in range(2):
        reference.train_epoch()
        trainer.train_epoch()
    assert max_param_diff(reference_model, hongtu_model) < 1e-9


@pytest.mark.parametrize("policy", ["hybrid", "recompute"])
@pytest.mark.parametrize("arch", ["gcn", "gat"])
def test_intermediate_policies_do_not_change_numerics(graph, policy, arch):
    reference_model, hongtu_model = fresh_pair(graph, arch)
    reference = FullGraphTrainer(
        graph, reference_model,
        optimizer=SGD(reference_model.parameters(), lr=0.02),
    )
    trainer = HongTuTrainer(
        graph, hongtu_model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=3, intermediate_policy=policy, seed=7),
        optimizer=SGD(hongtu_model.parameters(), lr=0.02),
    )
    for _ in range(2):
        reference.train_epoch()
        trainer.train_epoch()
    assert max_param_diff(reference_model, hongtu_model) < 1e-9


#: Losses of three chunked epochs recorded with the per-edge scatter
#: aggregate (message tensor + ``np.add.at``), before the layers moved to
#: one SpMM per aggregate. The reference and the candidate above share
#: their layers, so only a pinned value can show that both moved together.
SCATTER_ERA_LOSSES = {
    "gcn": [3.1341192059529677, 2.762598748442835, 2.6372526529363367],
    "graphsage": [14.562579978580878, 5.938945083808823, 2.645834528380697],
}


@pytest.mark.parametrize("policy", ["hybrid", "recompute"])
@pytest.mark.parametrize("arch", sorted(SCATTER_ERA_LOSSES))
def test_chunked_losses_equal_the_scatter_era(graph, policy, arch):
    _, model = fresh_pair(graph, arch)
    trainer = HongTuTrainer(
        graph, model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=3, intermediate_policy=policy, seed=7),
        optimizer=SGD(model.parameters(), lr=0.02),
    )
    losses = [trainer.train_epoch().loss for _ in range(3)]
    np.testing.assert_allclose(losses, SCATTER_ERA_LOSSES[arch],
                               rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("num_chunks", [1, 2, 5, 9])
def test_chunk_count_does_not_change_numerics(graph, num_chunks):
    reference_model, hongtu_model = fresh_pair(graph, "gcn")
    reference = FullGraphTrainer(
        graph, reference_model,
        optimizer=SGD(reference_model.parameters(), lr=0.02),
    )
    trainer = HongTuTrainer(
        graph, hongtu_model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=num_chunks, seed=1),
        optimizer=SGD(hongtu_model.parameters(), lr=0.02),
    )
    reference.train_epoch()
    trainer.train_epoch()
    assert max_param_diff(reference_model, hongtu_model) < 1e-9


def test_reorganization_does_not_change_numerics(graph):
    model_a, model_b = fresh_pair(graph, "gcn")
    with_reorg = HongTuTrainer(
        graph, model_a, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=4, reorganize=True, seed=9),
        optimizer=SGD(model_a.parameters(), lr=0.02),
    )
    without_reorg = HongTuTrainer(
        graph, model_b, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=4, reorganize=False, seed=9),
        optimizer=SGD(model_b.parameters(), lr=0.02),
    )
    for _ in range(2):
        with_reorg.train_epoch()
        without_reorg.train_epoch()
    assert max_param_diff(model_a, model_b) < 1e-9


def test_gpu_count_does_not_change_numerics(graph):
    model_a, model_b = fresh_pair(graph, "gcn")
    four_gpu = HongTuTrainer(
        graph, model_a, MultiGPUPlatform(A100_SERVER, num_gpus=4),
        HongTuConfig(num_chunks=3, seed=4),
        optimizer=SGD(model_a.parameters(), lr=0.02),
    )
    one_gpu = HongTuTrainer(
        graph, model_b, MultiGPUPlatform(A100_SERVER, num_gpus=1),
        HongTuConfig(num_chunks=3, seed=4),
        optimizer=SGD(model_b.parameters(), lr=0.02),
    )
    four_gpu.train_epoch()
    one_gpu.train_epoch()
    assert max_param_diff(model_a, model_b) < 1e-9


def test_inmemory_equals_monolithic(graph):
    reference_model, inmemory_model = fresh_pair(graph, "gcn")
    reference = FullGraphTrainer(
        graph, reference_model,
        optimizer=SGD(reference_model.parameters(), lr=0.02),
    )
    inmemory = InMemoryMultiGPUTrainer(
        graph, inmemory_model, MultiGPUPlatform(A100_SERVER),
        optimizer=SGD(inmemory_model.parameters(), lr=0.02),
    )
    for _ in range(2):
        reference.train_epoch()
        inmemory.train_epoch()
    assert max_param_diff(reference_model, inmemory_model) < 1e-9


def test_hongtu_logits_match_monolithic(graph):
    reference_model, hongtu_model = fresh_pair(graph, "graphsage")
    reference = FullGraphTrainer(graph, reference_model)
    trainer = HongTuTrainer(
        graph, hongtu_model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=4, seed=0),
    )
    reference.train_epoch()
    trainer.train_epoch()
    np.testing.assert_allclose(trainer.logits(), reference.logits(),
                               atol=1e-9)
