"""Tests for the comparison systems (in-memory, DistGNN sim, mini-batch)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    DistGNNSimulator,
    FullGraphTrainer,
    InMemoryMultiGPUTrainer,
    MiniBatchTrainer,
    NeighborSampler,
)
from repro.core import HongTuConfig, HongTuTrainer
from repro.core.memory_model import estimate_for_model
from repro.errors import ConfigurationError, DeviceOutOfMemoryError
from repro.gnn import GNNModel, build_model
from repro.gnn.layers import GCNLayer
from repro.graph import load_dataset
from repro.hardware import (
    A100_SERVER,
    CPU_NODE,
    MultiGPUPlatform,
)
from repro.partition import remote_replica_rows
from repro.units import SCALAR_BYTES


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products_sim", scale=0.1, seed=4)


def make_model(graph, arch="gcn", layers=2, hidden=16, seed=0):
    dims = [graph.feature_dim] + [hidden] * (layers - 1) + [graph.num_classes]
    return build_model(arch, dims, np.random.default_rng(seed))


class TestFullGraphTrainer:
    def test_loss_decreases(self, graph):
        trainer = FullGraphTrainer(graph, make_model(graph))
        losses = [trainer.train_epoch().loss for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_oom_on_small_gpu(self, graph):
        model = make_model(graph)
        estimate = estimate_for_model(graph.num_vertices, graph.num_edges,
                                      model)
        tiny = MultiGPUPlatform(
            A100_SERVER.with_gpu_memory(estimate.total_bytes // 2)
        )
        with pytest.raises(DeviceOutOfMemoryError):
            FullGraphTrainer(graph, model, platform=tiny)

    def test_fits_on_big_gpu(self, graph):
        platform = MultiGPUPlatform(A100_SERVER)
        trainer = FullGraphTrainer(graph, make_model(graph),
                                   platform=platform)
        result = trainer.train_epoch()
        assert result.epoch_seconds > 0
        assert result.peak_gpu_bytes > 0


class TestInMemoryTrainer:
    def test_oom_on_big_graph_small_gpus(self):
        graph = load_dataset("friendster_sim", scale=0.2, seed=1)
        model = make_model(graph)
        estimate = estimate_for_model(graph.num_vertices, graph.num_edges,
                                      model)
        platform = MultiGPUPlatform(
            A100_SERVER.with_gpu_memory(estimate.total_bytes // 16)
        )
        with pytest.raises(DeviceOutOfMemoryError):
            InMemoryMultiGPUTrainer(graph, model, platform)

    def test_epoch_faster_than_single_gpu(self, graph):
        """4-way compute split must beat 1 GPU on kernel time."""
        model = make_model(graph)
        multi = InMemoryMultiGPUTrainer(
            graph, make_model(graph), MultiGPUPlatform(A100_SERVER)
        )
        single = FullGraphTrainer(
            graph, model, platform=MultiGPUPlatform(A100_SERVER)
        )
        multi_result = multi.train_epoch()
        single_result = single.train_epoch()
        assert multi_result.clock.seconds["gpu"] < \
            single_result.clock.seconds["gpu"]

    def test_d2d_traffic_present(self, graph):
        trainer = InMemoryMultiGPUTrainer(
            graph, make_model(graph), MultiGPUPlatform(A100_SERVER)
        )
        assert trainer.train_epoch().clock.seconds["d2d"] > 0

    @pytest.mark.parametrize("comm_overhead", [1.0, 1.3])
    def test_boundary_sync_is_the_closed_form(self, graph, comm_overhead):
        """GPU i syncs 2 · rows_i · Σ in_dim · SCALAR_BYTES ·
        comm_overhead bytes over NVLink, rows_i its remote replicas."""
        model = make_model(graph, layers=3)
        trainer = InMemoryMultiGPUTrainer(
            graph, model, MultiGPUPlatform(A100_SERVER), seed=2,
            comm_overhead=comm_overhead)
        timeline = trainer.train_epoch().timeline
        scheduler = timeline.scheduler
        columns = scheduler.columns()
        sync = [phase for phase, label
                in enumerate(scheduler.phase_labels())
                if label == "boundary_sync"]
        tasks = np.flatnonzero(np.isin(columns.phase, sync))
        assert columns.device[tasks].tolist() == [0, 1, 2, 3]
        rows = remote_replica_rows(graph, trainer.assignment, 4)
        assert rows.min() > 0
        in_dims = sum(layer.in_dim for layer in model.layers)
        np.testing.assert_allclose(
            columns.seconds[tasks],
            2 * rows * in_dims * SCALAR_BYTES * comm_overhead
            / A100_SERVER.nvlink_bandwidth,
            rtol=1e-14, atol=0.0)

    def test_evaluates_at_the_current_parameters(self, graph):
        """The monolithic epoch's evaluation, not the logits of the last
        forward pass (which ran before the optimizer step)."""
        reference = FullGraphTrainer(graph, make_model(graph, seed=5))
        inmemory = InMemoryMultiGPUTrainer(
            graph, make_model(graph, seed=5), MultiGPUPlatform(A100_SERVER))
        for _ in range(3):
            reference.train_epoch()
            inmemory.train_epoch()
        assert inmemory.evaluate() == reference.evaluate()


class TestDistGNN:
    def test_compute_scales_with_nodes(self, graph):
        model = make_model(graph)
        single = DistGNNSimulator(graph, model, CPU_NODE)
        cluster = DistGNNSimulator(graph, model,
                                   CPU_NODE.with_num_nodes(16))
        assert cluster.train_epoch().clock.seconds["cpu"] < \
            single.train_epoch().clock.seconds["cpu"]

    def test_multi_node_faster_in_compute_bound_regime(self):
        """The paper's regime: a locality-heavy graph (low cut) + wide
        model -> compute dominates the network term and the cluster beats
        one node."""
        graph = load_dataset("it2004_sim", scale=0.5, seed=1)
        dims = [graph.feature_dim, 256, 256, graph.num_classes]
        model = build_model("gcn", dims, np.random.default_rng(0))
        single = DistGNNSimulator(graph, model, CPU_NODE)
        cluster = DistGNNSimulator(graph, model,
                                   CPU_NODE.with_num_nodes(16))
        assert cluster.train_epoch().epoch_seconds < \
            single.train_epoch().epoch_seconds

    def test_cpu_slower_than_gpu(self, graph):
        """The >10x GPU-over-CPU gap of Table 5."""
        model = make_model(graph)
        cpu = DistGNNSimulator(graph, model, CPU_NODE)
        gpu = FullGraphTrainer(graph, make_model(graph),
                               platform=MultiGPUPlatform(A100_SERVER))
        cpu_seconds = cpu.train_epoch().epoch_seconds
        gpu_seconds = gpu.train_epoch().clock.seconds["gpu"]
        assert cpu_seconds > 10 * gpu_seconds

    def test_oom_on_small_nodes(self):
        graph = load_dataset("friendster_sim", scale=0.2, seed=1)
        model = make_model(graph, arch="gat", layers=3)
        estimate = estimate_for_model(graph.num_vertices, graph.num_edges,
                                      model)
        import dataclasses
        tiny_cluster = dataclasses.replace(
            CPU_NODE.with_num_nodes(4),
            memory_per_node=estimate.total_bytes // 8,
        )
        with pytest.raises(DeviceOutOfMemoryError):
            DistGNNSimulator(graph, model, tiny_cluster)


class TestNeighborSampler:
    def test_block_count_matches_fanouts(self, graph):
        sampler = NeighborSampler(graph, [5, 5], seed=0)
        seeds = np.arange(10)
        blocks = sampler.sample(seeds)
        assert len(blocks) == 2

    def test_final_dst_are_seeds(self, graph):
        sampler = NeighborSampler(graph, [5, 5], seed=0)
        seeds = np.array([3, 7, 11])
        blocks = sampler.sample(seeds)
        np.testing.assert_array_equal(blocks[-1].dst_global,
                                      np.unique(seeds))

    def test_fanout_bound(self, graph):
        fanout = 4
        sampler = NeighborSampler(graph, [fanout], seed=0)
        blocks = sampler.sample(np.arange(20))
        degrees = blocks[0].in_degrees()
        assert degrees.max() <= fanout

    def test_frontier_grows_with_layers(self, graph):
        seeds = np.arange(8)
        one_layer = NeighborSampler(graph, [10], seed=0).sample(seeds)
        three_layer = NeighborSampler(graph, [10, 10, 10], seed=0).sample(seeds)
        assert three_layer[0].num_src > one_layer[0].num_src

    @pytest.mark.parametrize("fanouts", [[0], [2.5], [3, True],
                                         [float("nan")]])
    def test_invalid_fanout(self, graph, fanouts):
        """2.5 used to reach numpy as a ``TypeError``; NaN and ``True``
        were accepted."""
        with pytest.raises(ConfigurationError, match="fanouts"):
            NeighborSampler(graph, fanouts)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_invalid_seed(self, graph, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            NeighborSampler(graph, [2], seed=seed)

    @given(st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_blocks_are_consistent(self, fanout, num_layers):
        graph = load_dataset("products_sim", scale=0.1, seed=4)
        sampler = NeighborSampler(graph, [fanout] * num_layers, seed=1)
        blocks = sampler.sample(np.arange(5))
        # Chaining: block l's src set equals block l+1's... frontier
        # relationship: sources of block l+1 are the dst of block l.
        for lower, upper in zip(blocks[:-1], blocks[1:]):
            np.testing.assert_array_equal(lower.dst_global,
                                          upper.src_global)
        for block in blocks:
            # Every edge's source is a valid row and dst self-rows exist.
            assert np.all(block.edge_src < block.num_src)
            np.testing.assert_array_equal(
                block.src_global[block.dst_pos], block.dst_global
            )


class TestMiniBatchTrainer:
    def test_trains_and_loss_decreases(self, graph):
        trainer = MiniBatchTrainer(
            graph, make_model(graph), MultiGPUPlatform(A100_SERVER),
            fanout=5, batch_size=64,
        )
        first = trainer.train_epoch().loss
        for _ in range(5):
            last = trainer.train_epoch().loss
        assert last < first

    def test_requires_train_mask(self):
        from repro.graph import Graph
        g = Graph(np.array([0]), np.array([1]), 2,
                  features=np.ones((2, 4)), labels=np.array([0, 1]))
        model = build_model("gcn", [4, 2], np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            MiniBatchTrainer(g, model, MultiGPUPlatform(A100_SERVER))

    def test_neighbor_explosion_in_time(self, graph):
        """Deeper models cost superlinearly more (Table 6's DistDGL rows).

        Small batches keep the frontier well below |V| so the geometric
        growth is visible before saturation.
        """
        shallow = MiniBatchTrainer(
            graph, make_model(graph, layers=1),
            MultiGPUPlatform(A100_SERVER), fanout=5, batch_size=16,
        )
        deep = MiniBatchTrainer(
            graph, make_model(graph, layers=3),
            MultiGPUPlatform(A100_SERVER), fanout=5, batch_size=16,
        )
        shallow_result = shallow.train_epoch()
        deep_result = deep.train_epoch()
        assert deep_result.frontier_vertices > \
            2 * shallow_result.frontier_vertices
        assert deep_result.epoch_seconds > 2 * shallow_result.epoch_seconds

    def test_oom_with_tiny_gpu_and_deep_model(self, graph):
        model = make_model(graph, layers=3)
        tiny = MultiGPUPlatform(A100_SERVER.with_gpu_memory(32 * 1024))
        trainer = MiniBatchTrainer(graph, model, tiny, fanout=10,
                                   batch_size=256)
        with pytest.raises(DeviceOutOfMemoryError):
            trainer.train_epoch()

    def test_evaluate_keys(self, graph):
        trainer = MiniBatchTrainer(
            graph, make_model(graph), MultiGPUPlatform(A100_SERVER),
            fanout=5, batch_size=64,
        )
        metrics = trainer.evaluate()
        assert "val_accuracy" in metrics


@pytest.mark.parametrize("system,field,value", [
    # -1 trained nothing and returned loss 0.0 in 0 s; 0 raised from
    # range(), 2.5 a TypeError; True trained with a batch of 1
    *[(MiniBatchTrainer, "batch_size", value)
      for value in (-1, 0, 2.5, True)],
    # 2.5 and True raised numpy TypeErrors
    *[(MiniBatchTrainer, "fanout", value) for value in (0, 2.5, True)],
    # NaN and -1.0 were accepted and failed in train_epoch as a
    # SchedulerError; below 1.0 is outside the documented range
    *[(InMemoryMultiGPUTrainer, "comm_overhead", value)
      for value in (float("nan"), -1.0, 0.5, float("inf"), True, "1")],
])
def test_counts_are_validated_at_construction(graph, system, field, value):
    with pytest.raises(ConfigurationError, match=field):
        system(graph, make_model(graph), MultiGPUPlatform(A100_SERVER),
               **{field: value})


@pytest.mark.parametrize("system", [HongTuTrainer, FullGraphTrainer,
                                    InMemoryMultiGPUTrainer,
                                    MiniBatchTrainer])
def test_requires_matching_dims(graph, system):
    """A model that does not read the feature width is refused at
    construction — the in-memory and mini-batch trainers used to fail in
    their first epoch with numpy's matmul ``ValueError``."""
    model = build_model("gcn", [3, 2], np.random.default_rng(0))
    platform = MultiGPUPlatform(A100_SERVER)
    args = (HongTuConfig(num_chunks=2),) if system is HongTuTrainer else ()
    with pytest.raises(ConfigurationError, match="input dim 3"):
        system(graph, model, platform, *args)


def _baseline(system, graph, model):
    if system is FullGraphTrainer:
        return FullGraphTrainer(graph, model)
    if system is MiniBatchTrainer:
        return MiniBatchTrainer(graph, model, MultiGPUPlatform(A100_SERVER),
                                fanout=5, batch_size=256)
    return system(graph, model, MultiGPUPlatform(A100_SERVER))


@pytest.mark.parametrize("system", [FullGraphTrainer, InMemoryMultiGPUTrainer,
                                    MiniBatchTrainer])
class TestModelDtype:
    """Every baseline computes in its model's one floating dtype, as
    :class:`~repro.core.HongTuTrainer` does: a float32 model's logits are
    float32 — the features used to be cast to float64 instead."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_are_in_the_model_dtype(self, graph, system, dtype):
        model = build_model(
            "gcn", [graph.feature_dim, 16, graph.num_classes],
            np.random.default_rng(0), dtype=dtype)
        trainer = _baseline(system, graph, model)
        assert trainer.dtype == dtype
        outputs = []
        forward = model.layers[-1].forward

        def recording(*args):
            outputs.append(forward(*args))
            return outputs[-1]

        model.layers[-1].forward = recording
        trainer.train_epoch()
        trainer.evaluate()
        assert outputs and {out.data.dtype for out in outputs} == \
            {np.dtype(dtype)}
        if system is not MiniBatchTrainer:
            assert trainer.logits().dtype == dtype
        assert {p.data.dtype for p in model.parameters()} == \
            {np.dtype(dtype)}

    def test_mixed_dtypes_are_refused(self, graph, system):
        rng = np.random.default_rng(0)
        model = GNNModel([
            GCNLayer(graph.feature_dim, 16, rng, dtype=np.float32),
            GCNLayer(16, graph.num_classes, rng, activation=None),
        ])
        with pytest.raises(ConfigurationError,
                           match=r"\['float32', 'float64'\]"):
            _baseline(system, graph, model)
